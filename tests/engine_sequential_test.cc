// The sequential engine, and its exact agreement with the birth-death chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/init.h"
#include "engine/sequential.h"
#include "markov/birth_death.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

TEST(SequentialEngine, StepMovesAtMostOne) {
  // The structural fact behind all sequential lower bounds (§1).
  const MinorityDynamics minority(5);
  const SequentialEngine engine(minority);
  Rng rng(1);
  Configuration config{100, 50, Opinion::kOne};
  for (int t = 0; t < 2000; ++t) {
    const Configuration next = engine.step(config, rng);
    ASSERT_TRUE(next.valid());
    const std::int64_t delta = static_cast<std::int64_t>(next.ones) -
                               static_cast<std::int64_t>(config.ones);
    EXPECT_LE(std::abs(delta), 1);
    config = next;
  }
}

TEST(SequentialEngine, RunReportsActivationsAndParallelRounds) {
  const VoterDynamics voter;
  const SequentialEngine engine(voter);
  Rng rng(2);
  StopRule rule;
  rule.max_rounds = 3;  // 3 parallel rounds = 3n activations.
  const RunResult result =
      engine.run(init_half(1000, Opinion::kOne), rule, rng);
  EXPECT_EQ(result.reason, StopReason::kRoundLimit);
  EXPECT_EQ(result.activations(), 3000u);
  EXPECT_DOUBLE_EQ(result.parallel_rounds(), 3.0);
}

TEST(SequentialEngine, ConvergesOnTinyInstance) {
  const VoterDynamics voter;
  const SequentialEngine engine(voter);
  Rng rng(3);
  StopRule rule;
  rule.max_rounds = 1000000;
  const RunResult result =
      engine.run(init_all_wrong(12, Opinion::kOne), rule, rng);
  EXPECT_TRUE(result.converged());
  EXPECT_GT(result.activations(), 0u);
}

TEST(SequentialEngine, ConsensusIsAbsorbing) {
  const MinorityDynamics minority(3);
  const SequentialEngine engine(minority);
  Rng rng(4);
  Configuration config = correct_consensus(50, Opinion::kZero);
  for (int t = 0; t < 500; ++t) {
    config = engine.step(config, rng);
    EXPECT_TRUE(config.is_correct_consensus());
  }
}

TEST(SequentialEngine, MeanConvergenceTimeMatchesBirthDeathChain) {
  // Cross-validation against the EXACT expected absorption time. n is tiny
  // so sampling error is controlled.
  const VoterDynamics voter;
  const std::uint64_t n = 10;
  const std::uint64_t x0 = 5;
  const BirthDeathChain chain(voter, n, Opinion::kOne);
  const double exact =
      chain.expected_absorption_activations()[x0 - chain.min_state()];

  const SequentialEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 1000000;
  RunningStats stats;
  const int kTrials = 3000;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng(1000 + i);
    const RunResult result =
        engine.run(Configuration{n, x0, Opinion::kOne}, rule, rng);
    ASSERT_TRUE(result.converged());
    stats.add(static_cast<double>(result.activations()));
  }
  EXPECT_NEAR(stats.mean(), exact, 5.0 * stats.stderr_mean())
      << "exact=" << exact << " simulated=" << stats.mean();
}

TEST(SequentialEngine, TrajectoryRecordsPerParallelRound) {
  const VoterDynamics voter;
  const SequentialEngine engine(voter);
  Rng rng(5);
  StopRule rule;
  rule.max_rounds = 5;
  Trajectory trajectory;
  engine.run(init_half(100, Opinion::kOne), rule, rng, &trajectory);
  EXPECT_GE(trajectory.size(), 2u);
  EXPECT_LE(trajectory.size(), 7u);
}

TEST(SequentialEngine, DeterministicGivenSeed) {
  const MinorityDynamics minority(3);
  const SequentialEngine engine(minority);
  StopRule rule;
  rule.max_rounds = 100000;
  Rng a(6), b(6);
  const auto ra = engine.run(init_half(64, Opinion::kOne), rule, a);
  const auto rb = engine.run(init_half(64, Opinion::kOne), rule, b);
  EXPECT_EQ(ra.activations(), rb.activations());
  EXPECT_EQ(ra.final_config, rb.final_config);
}

// run() keeps each visited state's Bin(l, X/n) sampler in a 64-slot table
// keyed by X_t (engine/plan_table.h); step() prepares it every call. Both
// must consume the same uniforms in the same order: run() ends where a hand
// loop of step() ends on the same seed, through the same per-round states.
// Returns the number of distinct states visited.
std::size_t expect_run_matches_step_loop(const MemorylessProtocol& protocol,
                                         const Configuration& init,
                                         std::uint64_t max_rounds,
                                         std::uint64_t seed) {
  const SequentialEngine engine(protocol);
  StopRule rule;
  rule.max_rounds = max_rounds;
  Rng run_rng(seed);
  Trajectory trajectory(1);
  const RunResult result = engine.run(init, rule, run_rng, &trajectory);

  Rng step_rng(seed);
  Configuration config = init;
  std::vector<std::uint64_t> per_round{config.ones};
  std::vector<std::uint64_t> visited{config.ones};
  std::uint64_t activations = 0;
  while (!evaluate_stop(rule, config) && activations < max_rounds * init.n) {
    config = engine.step(config, step_rng);
    visited.push_back(config.ones);
    if (++activations % init.n == 0) per_round.push_back(config.ones);
  }

  EXPECT_EQ(result.activations(), activations);
  EXPECT_EQ(result.final_config, config);
  EXPECT_EQ(run_rng.state(), step_rng.state());
  EXPECT_GE(trajectory.size(), per_round.size());
  for (std::size_t r = 0; r < std::min(trajectory.size(), per_round.size());
       ++r) {
    if (trajectory.points()[r].ones != per_round[r]) {
      ADD_FAILURE() << "run() left the step() path by round " << r << ": "
                    << trajectory.points()[r].ones << " vs " << per_round[r];
      break;
    }
  }
  std::sort(visited.begin(), visited.end());
  return static_cast<std::size_t>(
      std::unique(visited.begin(), visited.end()) - visited.begin());
}

TEST(SequentialEngine, RunMatchesUncachedStepsWhenEveryStateRepeats) {
  const MinorityDynamics minority(3);
  expect_run_matches_step_loop(minority, Configuration{20, 8, Opinion::kOne},
                               20'000, 31);
}

TEST(SequentialEngine, RunMatchesUncachedStepsAcrossTagCollisions) {
  const MinorityDynamics minority(3);
  const std::size_t states = expect_run_matches_step_loop(
      minority, init_half(1000, Opinion::kOne), 40, 32);
  EXPECT_GT(states, 64u);
}

TEST(SequentialEngine, RunMatchesUncachedStepsAtLargeN) {
  // X/n > 1/2 takes the flip; the walk spans far more states than slots.
  const VoterDynamics voter;
  const std::uint64_t n = std::uint64_t{1} << 20;
  expect_run_matches_step_loop(voter,
                               Configuration{n, 3 * n / 4, Opinion::kOne},
                               2, 33);
}

}  // namespace
}  // namespace bitspread
