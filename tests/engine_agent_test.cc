// The agent-level engine's per-agent update path: population handling for
// stateful protocols, memory-less dynamics run through the stateful
// interface, and the stateful dynamics (undecided-state, trend-follower).
// tests/engine_sharded_test.cc covers the memory-less fast path.
#include <gtest/gtest.h>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/sharded.h"
#include "naive_agent_oracle.h"
#include "protocols/follow_trend.h"
#include "protocols/minority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"

namespace bitspread {
namespace {

TEST(AgentEngine, PopulationLayoutMatchesConfiguration) {
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd);
  const Configuration config{10, 4, Opinion::kOne};
  const auto population = engine.make_population(config);
  EXPECT_EQ(population.size(), 10u);
  EXPECT_EQ(population.count_ones(), 4u);
  EXPECT_EQ(population.opinion(0), Opinion::kOne);  // Source first.
  EXPECT_EQ(population.config(), config);
  for (std::uint64_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(population.state(i),
              usd.initial_view(population.opinion(i)).state);
  }
}

TEST(AgentEngine, SourceIsPinnedAcrossSteps) {
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd);
  const SeedSequence seeds(1);
  auto population =
      engine.make_population(Configuration{20, 1, Opinion::kOne});
  for (std::uint64_t t = 0; t < 50; ++t) {
    engine.step(population, t, seeds);
    EXPECT_EQ(population.opinion(0), Opinion::kOne);
  }
}

TEST(AgentEngine, ConsensusAbsorbingForMinority) {
  const MinorityDynamics minority(3);
  const OpaqueStateful stateful(minority);
  const ShardedAgentEngine engine(stateful);
  ASSERT_FALSE(engine.memoryless_fast_path());
  const SeedSequence seeds(2);
  auto population =
      engine.make_population(correct_consensus(50, Opinion::kOne));
  for (std::uint64_t t = 0; t < 20; ++t) {
    engine.step(population, t, seeds);
    EXPECT_EQ(population.count_ones(), 50u);
  }
}

TEST(AgentEngine, RunConvergesOnSmallInstance) {
  const VoterDynamics voter;
  const OpaqueStateful stateful(voter);
  const ShardedAgentEngine engine(stateful);
  StopRule rule;
  rule.max_rounds = 200000;
  const RunResult result =
      engine.run(init_all_wrong(30, Opinion::kOne), rule, 3);
  EXPECT_TRUE(result.converged()) << to_string(result.reason);
}

TEST(AgentEngine, OneRoundMeanMatchesExpectation) {
  // Voter: each non-source agent independently becomes 1 w.p. p = x/n.
  const VoterDynamics voter;
  const OpaqueStateful stateful(voter);
  const ShardedAgentEngine engine(stateful);
  const std::uint64_t n = 2000, x0 = 600;
  double total = 0.0;
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kOne});
    engine.step(population, 0, SeedSequence(4000 + i));
    total += static_cast<double>(population.count_ones());
  }
  const double expected = 1.0 + static_cast<double>(n - 1) * 0.3;
  EXPECT_NEAR(total / kTrials, expected, 6.0);
}

TEST(AgentEngine, WithoutReplacementSampling) {
  const MinorityDynamics minority(5);
  const OpaqueStateful stateful(minority);
  const ShardedAgentEngine engine(
      stateful,
      {.sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  StopRule rule;
  rule.max_rounds = 500;
  const RunResult result =
      engine.run(init_half(60, Opinion::kOne), rule, 5);
  EXPECT_NE(result.reason, StopReason::kIntervalExit);
  EXPECT_TRUE(result.final_config.valid());
}

TEST(UndecidedState, ConvergesToInitialMajority) {
  // USD is majority-biased: from a 70% correct-opinion start it reaches the
  // correct display consensus quickly — here across several blocks.
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd, {.threads = 2});
  StopRule rule;
  rule.max_rounds = 100000;
  const RunResult result = engine.run(
      init_fraction_ones(3 * ShardedAgentEngine::kBlockAgents + 17,
                         Opinion::kOne, 0.7),
      rule, 6);
  EXPECT_TRUE(result.converged()) << to_string(result.reason);
}

TEST(UndecidedState, FailsBitDisseminationFromAllWrong) {
  // Like majority dynamics (paper §1), USD lacks sensitivity to the source:
  // from an all-wrong start the wrong local majority pins the system and the
  // correct opinion does not spread within a generous horizon.
  const UndecidedStateDynamics usd;
  const ShardedAgentEngine engine(usd);
  StopRule rule;
  rule.max_rounds = 3000;
  const RunResult result =
      engine.run(init_all_wrong(40, Opinion::kOne), rule, 61);
  EXPECT_EQ(result.reason, StopReason::kRoundLimit);
  // The ones-count stays pinned near the source alone.
  EXPECT_LT(result.final_config.ones, 10u);
}

TEST(UndecidedState, UpdateRulesMatchSpec) {
  const UndecidedStateDynamics usd;
  Rng rng(7);
  using View = StatefulProtocol::AgentView;
  // Committed 1 sees 1: unchanged.
  View v = usd.update(View{Opinion::kOne, UndecidedStateDynamics::kCommitted},
                      1, 1, 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kOne);
  EXPECT_EQ(v.state, UndecidedStateDynamics::kCommitted);
  // Committed 1 sees 0: becomes undecided, still displays 1.
  v = usd.update(View{Opinion::kOne, UndecidedStateDynamics::kCommitted}, 0, 1,
                 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kOne);
  EXPECT_EQ(v.state, UndecidedStateDynamics::kUndecided);
  // Undecided sees 0: commits to 0.
  v = usd.update(View{Opinion::kOne, UndecidedStateDynamics::kUndecided}, 0, 1,
                 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kZero);
  EXPECT_EQ(v.state, UndecidedStateDynamics::kCommitted);
}

TEST(TrendFollower, UpdateFollowsTrend) {
  const TrendFollowerDynamics trend(SampleSizePolicy::constant(10));
  Rng rng(8);
  using View = StatefulProtocol::AgentView;
  // Count rose 3 -> 7: adopt 1, remember 7.
  View v = trend.update(View{Opinion::kZero, 3}, 7, 10, 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kOne);
  EXPECT_EQ(v.state, 7u);
  // Count fell 7 -> 2: adopt 0.
  v = trend.update(View{Opinion::kOne, 7}, 2, 10, 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kZero);
  // Flat at a majority of ones: adopt 1.
  v = trend.update(View{Opinion::kZero, 8}, 8, 10, 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kOne);
  // Flat exactly balanced: keep own.
  v = trend.update(View{Opinion::kZero, 5}, 5, 10, 100, rng);
  EXPECT_EQ(v.opinion, Opinion::kZero);
}

TEST(TrendFollower, DisplayConsensusIsStable) {
  const TrendFollowerDynamics trend(SampleSizePolicy::constant(6));
  const ShardedAgentEngine engine(trend);
  const SeedSequence seeds(9);
  auto population =
      engine.make_population(correct_consensus(50, Opinion::kOne));
  for (std::uint64_t t = 0; t < 20; ++t) {
    engine.step(population, t, seeds);
    EXPECT_EQ(population.count_ones(), 50u);
  }
}

TEST(AgentEngine, RunsFromAdversarialInternalStates) {
  // Engines must accept ANY internal state (self-stabilization quantifies
  // over them). Every trend-follower remembers the largest possible count,
  // so its first reading looks like a fall and drives it to the wrong
  // opinion; the run must still reach the correct display consensus.
  const std::uint64_t n = 256;
  const TrendFollowerDynamics trend(SampleSizePolicy::log_n(2.0), n);
  const ShardedAgentEngine engine(trend);
  auto population =
      engine.make_population(init_fraction_ones(n, Opinion::kOne, 0.7));
  for (std::uint64_t i = 1; i < n; ++i) {
    population.set_state(i, trend.sample_size(n));
  }
  StopRule rule;
  rule.max_rounds = 100000;
  const RunResult result = engine.run_population(population, rule, 10);
  EXPECT_TRUE(result.converged()) << to_string(result.reason);
}

TEST(MemorylessAdapter, ReportsBaseName) {
  const VoterDynamics voter;
  const MemorylessAsStateful adapter(voter);
  EXPECT_EQ(adapter.name(), "voter");
  EXPECT_EQ(adapter.state_count(), 1u);
  EXPECT_EQ(adapter.sample_size(100), voter.sample_size(100));
}

}  // namespace
}  // namespace bitspread
