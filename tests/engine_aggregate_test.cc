// The aggregate parallel engine: invariants, stop rules, trajectories,
// determinism, and behavior at absorbing states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/minority.h"
#include "protocols/perturbed.h"
#include "protocols/three_majority.h"
#include "protocols/voter.h"

namespace bitspread {
namespace {

TEST(AggregateEngine, StepPreservesValidity) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  Rng rng(1);
  Configuration config{100, 40, Opinion::kOne};
  for (int t = 0; t < 200; ++t) {
    config = engine.step(config, rng);
    ASSERT_TRUE(config.valid()) << config.describe();
    EXPECT_EQ(config.n, 100u);
    EXPECT_EQ(config.correct, Opinion::kOne);
  }
}

TEST(AggregateEngine, SourceNeverFlips) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(2);
  Configuration config{50, 1, Opinion::kOne};  // Only the source holds 1.
  for (int t = 0; t < 100; ++t) {
    config = engine.step(config, rng);
    EXPECT_GE(config.ones, 1u);  // The source's 1 persists.
  }
}

TEST(AggregateEngine, ConsensusIsAbsorbingForCompliantProtocol) {
  const MinorityDynamics minority(5);
  const AggregateParallelEngine engine(minority);
  Rng rng(3);
  Configuration config = correct_consensus(1000, Opinion::kOne);
  for (int t = 0; t < 50; ++t) {
    config = engine.step(config, rng);
    EXPECT_TRUE(config.is_correct_consensus());
  }
}

TEST(AggregateEngine, BrokenProtocolEscapesConsensus) {
  const VoterDynamics voter;
  const PerturbedProtocol noisy(voter, 0.2);
  const AggregateParallelEngine engine(noisy);
  Rng rng(4);
  Configuration config = correct_consensus(1000, Opinion::kOne);
  bool escaped = false;
  for (int t = 0; t < 20 && !escaped; ++t) {
    config = engine.step(config, rng);
    escaped = !config.is_correct_consensus();
  }
  EXPECT_TRUE(escaped);
}

TEST(AggregateEngine, RunStopsAtCorrectConsensus) {
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const AggregateParallelEngine engine(minority);
  Rng rng(5);
  StopRule rule;
  rule.max_rounds = 10000;
  const RunResult result =
      engine.run(init_half(4096, Opinion::kOne), rule, rng);
  EXPECT_EQ(result.reason, StopReason::kCorrectConsensus);
  EXPECT_TRUE(result.final_config.is_correct_consensus());
  EXPECT_TRUE(result.converged());
  EXPECT_FALSE(result.censored());
}

TEST(AggregateEngine, RunHonorsRoundLimit) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(6);
  StopRule rule;
  rule.max_rounds = 5;
  const RunResult result =
      engine.run(init_half(100000, Opinion::kOne), rule, rng);
  EXPECT_EQ(result.reason, StopReason::kRoundLimit);
  EXPECT_EQ(result.rounds(), 5u);
  EXPECT_TRUE(result.censored());
}

TEST(AggregateEngine, RunStopsOnIntervalExit) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  Rng rng(7);
  StopRule rule;
  rule.max_rounds = 100000;
  // Minority from 90% ones pushes DOWN; watch for dropping below 70%.
  rule.interval_lo = 700;
  const RunResult result = engine.run(
      Configuration{1000, 900, Opinion::kOne}, rule, rng);
  EXPECT_EQ(result.reason, StopReason::kIntervalExit);
  EXPECT_LT(result.final_config.ones, 700u);
}

TEST(AggregateEngine, ZeroRoundsWhenStartingConverged) {
  const MinorityDynamics minority(3);
  const AggregateParallelEngine engine(minority);
  Rng rng(8);
  const RunResult result =
      engine.run(correct_consensus(100, Opinion::kZero), StopRule{}, rng);
  EXPECT_EQ(result.rounds(), 0u);
  EXPECT_TRUE(result.converged());
}

TEST(AggregateEngine, TrajectoryRecordsEveryRound) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(9);
  StopRule rule;
  rule.max_rounds = 10;
  Trajectory trajectory;
  engine.run(init_half(1000, Opinion::kOne), rule, rng, &trajectory);
  ASSERT_GE(trajectory.size(), 2u);
  EXPECT_EQ(trajectory.points().front().round, 0u);
  EXPECT_EQ(trajectory.points().front().ones, 500u);
  // Rounds are consecutive.
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    EXPECT_EQ(trajectory.points()[i].round,
              trajectory.points()[i - 1].round + 1);
  }
}

TEST(AggregateEngine, TrajectoryStrideThins) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(10);
  StopRule rule;
  rule.max_rounds = 100;
  Trajectory trajectory(10);
  engine.run(init_half(1000, Opinion::kOne), rule, rng, &trajectory);
  EXPECT_LE(trajectory.size(), 12u);
}

TEST(AggregateEngine, DeterministicGivenSeed) {
  const MinorityDynamics minority(4);
  const AggregateParallelEngine engine(minority);
  StopRule rule;
  rule.max_rounds = 500;
  Rng rng_a(11), rng_b(11);
  const RunResult a = engine.run(init_half(512, Opinion::kOne), rule, rng_a);
  const RunResult b = engine.run(init_half(512, Opinion::kOne), rule, rng_b);
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.final_config, b.final_config);
  EXPECT_EQ(a.reason, b.reason);
}

TEST(AggregateEngine, HugePopulationStepIsCheapAndSane) {
  // n = 10^9: one round must work and stay near the expected drift.
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(12);
  const std::uint64_t n = 1'000'000'000;
  const Configuration config{n, n / 4, Opinion::kOne};
  const Configuration next = engine.step(config, rng);
  // Voter keeps the expectation: ones' ~ Bin(n-1, 1/4) + 1.
  const double mean = static_cast<double>(n) / 4.0;
  EXPECT_NEAR(static_cast<double>(next.ones), mean, 6.0 * std::sqrt(mean));
}

TEST(AggregateEngine, MultiSourceConfigurationsSupported) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  Rng rng(13);
  Configuration config{100, 10, Opinion::kOne, 10};  // 10 sources, all ones.
  for (int t = 0; t < 50; ++t) {
    config = engine.step(config, rng);
    ASSERT_TRUE(config.valid());
    EXPECT_GE(config.ones, 10u);
  }
}

TEST(AggregateEngine, SourcelessConsensusMode) {
  // sources = 0: pure consensus. 3-majority drifts toward the initial
  // majority and absorbs quickly; either consensus stops the run.
  // (Minority with constant l would NOT work here: its bias stabilizes the
  // mixed state at 1/2 — the very phenomenon behind Theorem 1.)
  const ThreeMajorityDynamics three;
  const AggregateParallelEngine engine(three);
  Rng rng(14);
  StopRule rule;
  rule.max_rounds = 100000;
  const RunResult result =
      engine.run(Configuration{200, 130, Opinion::kOne, 0}, rule, rng);
  EXPECT_TRUE(result.reason == StopReason::kCorrectConsensus ||
              result.reason == StopReason::kWrongConsensus);
  EXPECT_TRUE(result.final_config.is_consensus());
}

// run() plans each visited state once and keeps the plan in a 64-slot table
// keyed by X_t (engine/plan_table.h); step() plans every call. Both must
// consume the same uniforms in the same order, so run() with stride 1
// records exactly the states a hand loop of step() visits on the same seed.
// Returns the number of distinct states visited.
std::size_t expect_run_matches_step_loop(const MemorylessProtocol& protocol,
                                         const Configuration& init,
                                         std::uint64_t max_rounds,
                                         std::uint64_t seed) {
  const AggregateParallelEngine engine(protocol);
  StopRule rule;
  rule.max_rounds = max_rounds;
  Rng run_rng(seed);
  Trajectory trajectory(1);
  const RunResult result = engine.run(init, rule, run_rng, &trajectory);

  Rng step_rng(seed);
  Configuration config = init;
  std::vector<std::uint64_t> visited{config.ones};
  while (!evaluate_stop(rule, config) && visited.size() <= max_rounds) {
    config = engine.step(config, step_rng);
    visited.push_back(config.ones);
  }

  EXPECT_EQ(result.rounds(), visited.size() - 1);
  EXPECT_EQ(result.final_config, config);
  EXPECT_EQ(run_rng.state(), step_rng.state());
  EXPECT_EQ(trajectory.size(), visited.size());
  for (std::size_t t = 0; t < std::min(trajectory.size(), visited.size());
       ++t) {
    if (trajectory.points()[t].ones != visited[t]) {
      ADD_FAILURE() << "run() left the step() path at round " << t << ": "
                    << trajectory.points()[t].ones << " vs " << visited[t];
      break;
    }
  }
  std::sort(visited.begin(), visited.end());
  return static_cast<std::size_t>(
      std::unique(visited.begin(), visited.end()) - visited.begin());
}

TEST(AggregateEngine, RunMatchesUncachedStepsWhenEveryStateRepeats) {
  // The Theorem 1 trap: 21 states, so after a few rounds every plan hits.
  const MinorityDynamics minority(3);
  expect_run_matches_step_loop(minority, Configuration{20, 8, Opinion::kOne},
                               20'000, 21);
}

TEST(AggregateEngine, RunMatchesUncachedStepsAcrossTagCollisions) {
  // Minority stalls around n/2 with O(sqrt n) swings: more states than
  // slots, so X_t and X_t + 64 evict each other.
  const MinorityDynamics minority(3);
  const std::size_t states = expect_run_matches_step_loop(
      minority, init_half(1000, Opinion::kOne), 5'000, 22);
  EXPECT_GT(states, 64u);
}

TEST(AggregateEngine, RunMatchesUncachedStepsInTheRejectionRegime) {
  // Voter at 3/4 ones: P_b = X/n > 1/2 takes the flip, n*p takes BTRS.
  const VoterDynamics voter;
  const std::uint64_t n = std::uint64_t{1} << 20;
  expect_run_matches_step_loop(voter,
                               Configuration{n, 3 * n / 4, Opinion::kOne},
                               300, 23);
}

}  // namespace
}  // namespace bitspread
