// Distribution-identity cross-checks between the representations of the same
// dynamics: the aggregate engine, the sharded agent-level engine (its
// memory-less fast path and its per-agent update path), the naive per-agent
// oracle, and the exact dense Markov chain. These tests are the empirical
// backbone of the aggregate-chain reduction (DESIGN.md §3).
#include <gtest/gtest.h>

#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "engine/aggregate.h"
#include "engine/alpha_sync.h"
#include "engine/conflicting.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "markov/absorption.h"
#include "markov/dense_chain.h"
#include "naive_agent_oracle.h"
#include "protocols/follow_trend.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "stats/ks.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

// One-step distribution of the aggregate engine against the exact chain row,
// by chi-square.
TEST(CrossValidation, AggregateStepMatchesExactChainRow) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const AggregateParallelEngine engine(minority);
  Rng rng(1);
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    const Configuration next =
        engine.step(Configuration{n, x0, Opinion::kOne}, rng);
    ++counts[next.ones - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// One-step distribution of the per-agent update step against the exact
// chain row, taken twice: by the sharded engine's stateful path and by the
// naive oracle the stateful laws below are checked against.
TEST(CrossValidation, AgentStepMatchesExactChainRow) {
  const ThreeMajorityDynamics three;
  const std::uint64_t n = 24;
  const std::uint64_t x0 = 10;
  const DenseParallelChain chain(three, n, Opinion::kZero);
  const std::vector<double> expected = chain.transition_row(x0);
  const Configuration start{n, x0, Opinion::kZero};

  const OpaqueStateful stateful(three);
  const ShardedAgentEngine engine(stateful);
  ASSERT_FALSE(engine.memoryless_fast_path());
  Rng rng(2);
  const int kTrials = 30000;
  std::vector<std::uint64_t> engine_counts(chain.state_count(), 0);
  std::vector<std::uint64_t> oracle_counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population = engine.make_population(start);
    engine.step(population, 0, SeedSequence(2000 + i));
    ++engine_counts[population.count_ones() - chain.min_state()];
    oracle::Views views = oracle::make_views(stateful, start);
    oracle::step(stateful, views, start.sources, rng);
    ++oracle_counts[oracle::count_ones(views) - chain.min_state()];
  }
  for (const auto* counts : {&engine_counts, &oracle_counts}) {
    int dof = 0;
    const double stat =
        chi_square_statistic(*counts, expected, kTrials, &dof);
    EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
        << (counts == &engine_counts ? "engine" : "oracle")
        << " stat=" << stat << " dof=" << dof;
  }
}

// The sharded engine's stateful path against the naive oracle: convergence
// times follow the same law (KS) for USD from a 70% correct start and for
// the trend-follower from the all-wrong start.
TEST(CrossValidation, StatefulConvergenceLawsMatchNaiveOracle) {
  const std::uint64_t n = 64;
  const UndecidedStateDynamics usd;
  const TrendFollowerDynamics trend(SampleSizePolicy::log_n(2.0), n);
  struct Case {
    const StatefulProtocol* protocol;
    Configuration start;
  };
  const Case cases[] = {{&usd, init_fraction_ones(n, Opinion::kOne, 0.7)},
                        {&trend, init_all_wrong(n, Opinion::kOne)}};
  StopRule rule;
  rule.max_rounds = 100000;
  const int kTrials = 400;
  for (const Case& c : cases) {
    const ShardedAgentEngine engine(*c.protocol);
    std::vector<double> engine_times, oracle_times;
    for (int i = 0; i < kTrials; ++i) {
      const RunResult result =
          engine.run(c.start, rule, 140000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(result.converged()) << c.protocol->name();
      engine_times.push_back(static_cast<double>(result.rounds()));
      Rng rng(150000 + i);
      oracle_times.push_back(static_cast<double>(oracle::rounds_to_consensus(
          *c.protocol, c.start, rule.max_rounds, rng)));
    }
    const double d = ks_statistic(engine_times, oracle_times);
    EXPECT_GT(ks_p_value(d, engine_times.size(), oracle_times.size()), 1e-3)
        << c.protocol->name() << " KS=" << d;
  }
}

// Full-trajectory comparison: convergence-time samples from the aggregate
// engine and from the sharded engine's per-agent update path are drawn from
// the same law (KS test).
TEST(CrossValidation, ConvergenceTimeLawsAgreeAcrossEngines) {
  // Voter converges from any start in O(n log n) rounds, so every replicate
  // finishes. (Minority with constant l would stall at its interior fixed
  // point — the Theorem 1 phenomenon — and censor the comparison.)
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const OpaqueStateful stateful(voter);
  const ShardedAgentEngine agent(stateful);
  ASSERT_FALSE(agent.memoryless_fast_path());

  const int kTrials = 400;
  std::vector<double> agg_times, agent_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(10000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b = agent.run(Configuration{n, 10, Opinion::kOne}, rule,
                                  20000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    agg_times.push_back(static_cast<double>(a.rounds()));
    agent_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(agg_times, agent_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), agent_times.size()), 1e-3)
      << "KS=" << d;
}

// One-step distribution of the SHARDED agent engine against the exact chain
// row: the packed-plane + g-table fast path samples the same law.
TEST(CrossValidation, ShardedStepMatchesExactChainRow) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 30;
  const std::uint64_t x0 = 12;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const std::vector<double> expected = chain.transition_row(x0);

  const ShardedAgentEngine engine(minority, {.threads = 2});
  const int kTrials = 40000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kOne});
    engine.step(population, 0, SeedSequence(7000 + i));
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

// Convergence-time laws agree between the sharded engine and the aggregate
// engine (the memory-less reduction it cross-validates at scale).
TEST(CrossValidation, ShardedAndAggregateConvergenceLawsAgree) {
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const ShardedAgentEngine sharded(voter, {.threads = 2});

  const int kTrials = 400;
  std::vector<double> agg_times, sharded_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(60000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b =
        sharded.run(Configuration{n, 10, Opinion::kOne}, rule,
                    70000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    agg_times.push_back(static_cast<double>(a.rounds()));
    sharded_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(agg_times, sharded_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), sharded_times.size()), 1e-3)
      << "KS=" << d;
}

// Without-replacement boundary: l = n = 100 draws see the whole population
// — beyond the old rejection sampler's l <= 64 cap, and the exact point
// where rejection degenerated. Floyd's method handles it in O(l).
TEST(CrossValidation, WithoutReplacementFullSampleBoundary) {
  const MinorityDynamics minority(100);
  const OpaqueStateful stateful(minority);
  const ShardedAgentEngine engine(
      stateful,
      {.sampling = ShardedAgentEngine::Sampling::kWithoutReplacement});
  const std::uint64_t n = 100;
  auto population =
      engine.make_population(Configuration{n, 40, Opinion::kOne});
  engine.step(population, 0, SeedSequence(9));
  EXPECT_EQ(population.size(), n);
  EXPECT_TRUE(population.config().valid());
}

// Mean convergence time of the aggregate engine against the exact expected
// absorption time from the dense chain.
TEST(CrossValidation, MeanConvergenceMatchesExactAbsorptionTime) {
  const MinorityDynamics minority(3);
  const std::uint64_t n = 20;
  const std::uint64_t x0 = 8;
  const DenseParallelChain chain(minority, n, Opinion::kOne);
  const double exact =
      expected_convergence_rounds(chain)[x0 - chain.min_state()];

  const AggregateParallelEngine engine(minority);
  StopRule rule;
  rule.max_rounds = 1000000;
  RunningStats stats;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng(30000 + i);
    const RunResult result =
        engine.run(Configuration{n, x0, Opinion::kOne}, rule, rng);
    ASSERT_TRUE(result.converged());
    stats.add(static_cast<double>(result.rounds()));
  }
  EXPECT_NEAR(stats.mean(), exact, 5.0 * stats.stderr_mean())
      << "exact=" << exact;
}

// The alpha-synchronous scheduler at alpha = 1 IS the parallel setting:
// convergence-time laws match the aggregate engine's (KS). Not bit-identity —
// the alpha engine spends two extra activation binomials per round — so the
// comparison is distributional.
TEST(CrossValidation, AlphaOneMatchesAggregateConvergenceLaw) {
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;

  const AggregateParallelEngine aggregate(voter);
  const AlphaSynchronousEngine alpha(voter, 1.0);

  const int kTrials = 400;
  std::vector<double> agg_times, alpha_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(80000 + i), rng_b(90000 + i);
    const RunResult a =
        aggregate.run(Configuration{n, 10, Opinion::kOne}, rule, rng_a);
    const RunResult b =
        alpha.run(Configuration{n, 10, Opinion::kOne}, rule, rng_b);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    EXPECT_EQ(b.unit, TimeUnit::kAlphaRounds);
    agg_times.push_back(a.parallel_rounds());
    alpha_times.push_back(b.parallel_rounds());
  }
  const double d = ks_statistic(agg_times, alpha_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), alpha_times.size()), 1e-3)
      << "KS=" << d;
}

// Same identity through the faulty code path: at alpha = 1 the noisy
// closed-form adoption plus source flips produce the same re-convergence law
// as the aggregate engine's faulty run.
TEST(CrossValidation, AlphaOneMatchesAggregateUnderFaults) {
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;
  EnvironmentModel model;
  model.observation_noise = 0.02;
  model.convergence_quorum = 0.9;
  model.source_flip_rounds = {3};

  const AggregateParallelEngine aggregate(voter);
  const AlphaSynchronousEngine alpha(voter, 1.0);

  const int kTrials = 400;
  std::vector<double> agg_times, alpha_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng_a(100000 + i), rng_b(110000 + i);
    const RunResult a = aggregate.run(Configuration{n, 10, Opinion::kOne},
                                      rule, model, rng_a);
    const RunResult b =
        alpha.run(Configuration{n, 10, Opinion::kOne}, rule, model, rng_b);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    ASSERT_EQ(a.recoveries.size(), 2u);
    ASSERT_EQ(b.recoveries.size(), 2u);
    agg_times.push_back(a.parallel_rounds());
    alpha_times.push_back(b.parallel_rounds());
  }
  const double d = ks_statistic(agg_times, alpha_times);
  EXPECT_GT(ks_p_value(d, agg_times.size(), alpha_times.size()), 1e-3)
      << "KS=" << d;
}

// A single stubborn camp IS the standard single-source model: the
// conflicting engine's zealot reduction must then be the identity, i.e.
// bit-for-bit the plain aggregate run with the same seed.
TEST(CrossValidation, ConflictingSingleCampIsBitIdenticalToStandardRun) {
  const MinorityDynamics minority(3);
  const ConflictingAggregateEngine conflicting(minority);
  const AggregateParallelEngine aggregate(minority);
  StopRule rule;
  rule.max_rounds = 5000;

  for (int i = 0; i < 50; ++i) {
    Rng rng_a(120000 + i), rng_b(120000 + i);
    const ConflictingConfiguration config{40, 12, 1, 0};
    const RunResult a = conflicting.run(config, rule, rng_a);
    const RunResult b =
        aggregate.run(Configuration{40, 12, Opinion::kOne, 1}, rule, rng_b);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.final_config.ones, b.final_config.ones);
  }
}

// The same reduction identity through the fault channels: with noise and a
// source-flip schedule on top, a single-camp conflicting run is bit-identical
// to the standard faulty aggregate run.
TEST(CrossValidation, ConflictingSingleCampBitIdenticalUnderFaults) {
  const VoterDynamics voter;
  const ConflictingAggregateEngine conflicting(voter);
  const AggregateParallelEngine aggregate(voter);
  StopRule rule;
  rule.max_rounds = 5000;
  EnvironmentModel model;
  model.observation_noise = 0.05;
  model.convergence_quorum = 0.9;
  model.source_flip_rounds = {4};

  for (int i = 0; i < 50; ++i) {
    Rng rng_a(130000 + i), rng_b(130000 + i);
    const ConflictingConfiguration config{40, 12, 1, 0};
    const RunResult a = conflicting.run(config, rule, model, rng_a);
    const RunResult b = aggregate.run(Configuration{40, 12, Opinion::kOne, 1},
                                      rule, model, rng_b);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.final_config.ones, b.final_config.ones);
    EXPECT_EQ(a.recoveries, b.recoveries);
  }
}

}  // namespace
}  // namespace bitspread
