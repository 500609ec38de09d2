// The unified run-loop core (engine/run_loop.h): TimePolicy/TimeUnit
// conversions, and the cross-cutting driver features — fault lifecycle,
// telemetry, trajectory and flight-recorder recording — on the engines that
// gained them in the refactor (alpha-synchronous, conflicting-sources,
// multi-opinion, population).
#include <gtest/gtest.h>

#include <string>

#include "engine/aggregate.h"
#include "engine/alpha_sync.h"
#include "engine/conflicting.h"
#include "engine/run_loop.h"
#include "engine/sequential.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "multi/engine.h"
#include "multi/protocols.h"
#include "population/engine.h"
#include "population/protocols.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "telemetry/jsonl.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

TEST(TimePolicy, FactoriesSetUnitsAndScales) {
  const TimePolicy parallel = TimePolicy::parallel();
  EXPECT_EQ(parallel.unit, TimeUnit::kParallelRounds);
  EXPECT_EQ(parallel.ticks_per_round, 1u);
  EXPECT_EQ(parallel.units_per_tick, 1u);

  const TimePolicy activations = TimePolicy::activations(30);
  EXPECT_EQ(activations.unit, TimeUnit::kActivations);
  EXPECT_EQ(activations.ticks_per_round, 30u);
  EXPECT_EQ(activations.units_per_tick, 1u);

  const TimePolicy interactions = TimePolicy::interaction_rounds(30);
  EXPECT_EQ(interactions.unit, TimeUnit::kActivations);
  EXPECT_EQ(interactions.ticks_per_round, 1u);
  EXPECT_EQ(interactions.units_per_tick, 30u);

  const TimePolicy alpha = TimePolicy::alpha_rounds(0.25);
  EXPECT_EQ(alpha.unit, TimeUnit::kAlphaRounds);
  EXPECT_DOUBLE_EQ(alpha.alpha, 0.25);

  EXPECT_FALSE(parallel.describe().empty());
  EXPECT_FALSE(interactions.describe().empty());
}

TEST(TimeUnitResult, AccessorsConvertBetweenUnits) {
  RunResult parallel;
  parallel.unit = TimeUnit::kParallelRounds;
  parallel.ticks = 7;
  parallel.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(parallel.rounds(), 7u);
  EXPECT_EQ(parallel.activations(), 210u);
  EXPECT_DOUBLE_EQ(parallel.parallel_rounds(), 7.0);

  RunResult sequential;
  sequential.unit = TimeUnit::kActivations;
  sequential.ticks = 90;
  sequential.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(sequential.rounds(), 3u);
  EXPECT_EQ(sequential.activations(), 90u);
  EXPECT_DOUBLE_EQ(sequential.parallel_rounds(), 3.0);

  RunResult alpha;
  alpha.unit = TimeUnit::kAlphaRounds;
  alpha.alpha = 0.5;
  alpha.ticks = 10;
  alpha.final_config = Configuration{30, 30, Opinion::kOne};
  EXPECT_EQ(alpha.rounds(), 10u);
  EXPECT_EQ(alpha.activations(), 150u);
  EXPECT_DOUBLE_EQ(alpha.parallel_rounds(), 5.0);
}

TEST(TimeUnitResult, ToStringNamesEveryUnit) {
  EXPECT_FALSE(to_string(TimeUnit::kParallelRounds).empty());
  EXPECT_FALSE(to_string(TimeUnit::kActivations).empty());
  EXPECT_FALSE(to_string(TimeUnit::kAlphaRounds).empty());
  EXPECT_NE(to_string(TimeUnit::kParallelRounds),
            to_string(TimeUnit::kActivations));
}

// --- Alpha-synchronous engine through the driver's fault lifecycle --------

TEST(RunLoopFaults, AlphaRunRecoversFromSourceFlip) {
  const VoterDynamics voter;
  const AlphaSynchronousEngine engine(voter, 0.5);
  StopRule rule;
  rule.max_rounds = 1000000;
  EnvironmentModel model;
  model.source_flip_rounds = {5};
  Rng rng(71);
  const RunResult result =
      engine.run(Configuration{30, 10, Opinion::kOne}, rule, model, rng);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.unit, TimeUnit::kAlphaRounds);
  ASSERT_EQ(result.recoveries.size(), 2u);
  // Segment 0 ends at the flip; a voter rarely reaches quorum in 5 rounds,
  // so only the post-flip segment is guaranteed to close with a recovery.
  EXPECT_TRUE(result.recoveries[1].recovered);
  EXPECT_EQ(result.last_flip_round(), 5u);
}

TEST(RunLoopFaults, AlphaRunDegradesWhenFlipCannotRecover) {
  const VoterDynamics voter;
  const AlphaSynchronousEngine engine(voter, 1.0);
  StopRule rule;
  rule.max_rounds = 11;  // One round after the flip: cannot re-converge.
  EnvironmentModel model;
  model.source_flip_rounds = {10};
  Rng rng(72);
  const RunResult result =
      engine.run(Configuration{64, 32, Opinion::kOne}, rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kDegraded);
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(result.censored());
  ASSERT_EQ(result.recoveries.size(), 2u);
  EXPECT_FALSE(result.recoveries.back().recovered);
  EXPECT_EQ(result.last_flip_round(), 10u);
}

TEST(RunLoopTrajectory, AlphaRunRecordsEveryRoundAndTheFinalState) {
  const VoterDynamics voter;
  const AlphaSynchronousEngine engine(voter, 0.5);
  StopRule rule;
  rule.max_rounds = 20;
  Rng rng(73);
  Trajectory trajectory;
  const RunResult result = engine.run(Configuration{256, 128, Opinion::kOne},
                                      rule, rng, &trajectory);
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().round, 0u);
  EXPECT_EQ(trajectory.back().round, result.ticks);
  EXPECT_EQ(trajectory.back().ones, result.final_config.ones);
  EXPECT_EQ(trajectory.size(), result.ticks + 1);
}

// --- Conflicting-sources engine -------------------------------------------

TEST(RunLoopFaults, ConflictingBothCampsReportsZealotTelemetry) {
  const VoterDynamics voter;
  const ConflictingAggregateEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 30;
  EnvironmentModel model;
  model.convergence_quorum = 0.8;
  Rng rng(74);
  const ConflictingConfiguration config{64, 32, 4, 2};
  const RunResult result = engine.run(config, rule, model, rng);
  EXPECT_TRUE(result.reason == StopReason::kCorrectConsensus ||
              result.reason == StopReason::kRoundLimit);
  // The minority camp rides the zealot channel.
  EXPECT_EQ(result.telemetry.fault_zealots, 2u);
  EXPECT_GT(result.telemetry.samples_drawn, 0u);
}

TEST(RunLoopTelemetry, ConflictingWatchCarriesTelemetry) {
  const VoterDynamics voter;
  const ConflictingAggregateEngine engine(voter);
  Rng rng(75);
  Trajectory trajectory;
  const auto watch = engine.watch(ConflictingConfiguration{64, 32, 4, 2}, 25,
                                  rng, &trajectory);
  EXPECT_EQ(trajectory.back().round, 25u);
  EXPECT_EQ(watch.telemetry.rounds, 25u);
  EXPECT_GT(watch.telemetry.samples_drawn, 0u);
}

// --- Multi-opinion engines ------------------------------------------------

TEST(RunLoopFaults, MultiQuorumStopsTheFaultyRun) {
  const MultiVoter voter(3, 4);
  const MultiAggregateEngine engine(voter);
  StopRule rule;
  EnvironmentModel model;
  model.observation_noise = 0.02;
  model.convergence_quorum = 0.7;  // ceil(0.7 * 64) = 45 <= 50: met at once.
  Rng rng(76);
  const MultiRunResult result =
      engine.run(MultiConfiguration{{50, 7, 7}, 0, 1}, rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kCorrectConsensus);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(RunLoopFaults, MultiChurnKeepsRunFromConsensusAndIsCounted) {
  const MultiVoter voter(3, 4);
  const MultiAggregateEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 50;
  EnvironmentModel model;
  model.observation_noise = 0.1;
  model.churn_rate = 0.2;
  Rng rng(77);
  const MultiRunResult result =
      engine.run(MultiConfiguration{{50, 7, 7}, 0, 1}, rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kRoundLimit);
  EXPECT_TRUE(result.censored());
  EXPECT_GT(result.telemetry.fault_churned, 0u);
  EXPECT_EQ(result.telemetry.rounds, 50u);
}

TEST(RunLoopFaults, MultiWrongConsensusDoesNotStopWhenEscapable) {
  const MultiVoter voter(3, 4);
  const MultiAggregateEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 30;
  EnvironmentModel model;
  model.observation_noise = 0.2;  // Wrong consensus is escapable.
  Rng rng(78);
  // Source-less all-wrong start: the fault-free rule would stop immediately.
  const MultiRunResult result =
      engine.run(MultiConfiguration{{0, 64, 0}, 0, 0}, rule, model, rng);
  EXPECT_NE(result.reason, StopReason::kWrongConsensus);
}

TEST(RunLoopFaults, MultiAgentFaultyRunMatchesAggregateShape) {
  const MultiVoter voter(3, 4);
  const MultiAgentEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 40;
  EnvironmentModel model;
  model.observation_noise = 0.1;
  model.spontaneous_rate = 0.05;
  model.churn_rate = 0.1;
  Rng rng(79);
  Trajectory trajectory;
  const MultiRunResult result = engine.run(
      MultiConfiguration{{40, 12, 12}, 0, 1}, rule, model, rng, &trajectory);
  EXPECT_LE(result.rounds, 40u);
  EXPECT_EQ(result.final_config.n(), 64u);
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().round, 0u);
  // The trajectory tracks the correct-opinion count, not a binary ones.
  EXPECT_EQ(trajectory.back().ones, result.final_config.counts[0]);
}

// --- Population engine ----------------------------------------------------

TEST(RunLoopFaults, PopulationFlipResetsSourcesAndRecovers) {
  const PairwiseVoter voter;
  const PopulationEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 1000000;
  EnvironmentModel model;
  model.source_flip_rounds = {5};
  Rng rng(80);
  auto population = engine.make_population(32, Opinion::kOne, 16);
  const RunResult result = engine.run(population, rule, model, rng);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.unit, TimeUnit::kActivations);
  EXPECT_EQ(result.ticks, result.rounds() * 32);
  ASSERT_EQ(result.recoveries.size(), 2u);
  EXPECT_TRUE(result.recoveries.back().recovered);
  // The flip re-targeted correct to kZero; the run ended there.
  EXPECT_EQ(result.final_config.correct, Opinion::kZero);
}

TEST(RunLoopFaults, PopulationZealotSlotsStayFrozen) {
  const PairwiseVoter voter;
  const PopulationEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 1000000;
  EnvironmentModel model;
  model.extra_zealots = 2;
  model.convergence_quorum = 0.8;
  Rng rng(81);
  auto population = engine.make_population(16, Opinion::kOne, 8);
  const RunResult result = engine.run(population, rule, model, rng);
  EXPECT_TRUE(result.converged());
  // Zealots pin the initially wrong opinion (kZero -> the last slots).
  EXPECT_EQ(voter.opinion(population.states[15]), Opinion::kZero);
  EXPECT_EQ(voter.opinion(population.states[14]), Opinion::kZero);
  EXPECT_EQ(result.telemetry.fault_zealots, 2u);
}

TEST(RunLoopTrajectory, PopulationRunRecordsPerParallelRound) {
  const EpidemicProtocol epidemic;
  const PopulationEngine engine(epidemic);
  StopRule rule;
  rule.max_rounds = 1000000;
  Rng rng(82);
  auto population = engine.make_population(64, Opinion::kOne, 1);
  Trajectory trajectory;
  const RunResult result = engine.run(population, rule, rng, &trajectory);
  EXPECT_TRUE(result.converged());
  ASSERT_FALSE(trajectory.empty());
  EXPECT_EQ(trajectory.points().front().round, 0u);
  EXPECT_EQ(trajectory.back().round, result.rounds());
  EXPECT_EQ(trajectory.back().ones, result.final_config.ones);
}

// --- The stepper probe gate -----------------------------------------------

// The aggregate and sequential steppers take RunDriver's probe decision as
// a template argument. Under a phase sink they run the probed loop: the
// same uniforms, so the same result and trajectory, plus kSampleDraw
// counts (one per aggregate round, one per activation).
TEST(RunLoopTelemetry, KeptPlanStepperProbesDoNotPerturbTheRun) {
  const MinorityDynamics minority(3);
  const Configuration trap{20, 8, Opinion::kOne};
  StopRule rule;
  rule.max_rounds = 4000;
  const auto run_both = [&](const auto& engine, std::uint64_t seed) {
    Trajectory plain_path;
    Rng plain_rng(seed);
    const RunResult plain = engine.run(trap, rule, plain_rng, &plain_path);

    telemetry::PhaseStats phases;
    Trajectory probed_path;
    Rng probed_rng(seed);
    RunResult probed;
    {
      const telemetry::ObserverScope observe({.phases = &phases});
      probed = engine.run(trap, rule, probed_rng, &probed_path);
    }
    EXPECT_EQ(probed.reason, plain.reason);
    EXPECT_EQ(probed.ticks, plain.ticks);
    EXPECT_EQ(probed.final_config.ones, plain.final_config.ones);
    EXPECT_EQ(probed.telemetry.rounds, plain.telemetry.rounds);
    EXPECT_EQ(probed.telemetry.samples_drawn, plain.telemetry.samples_drawn);
    EXPECT_EQ(probed_rng.state(), plain_rng.state());
    ASSERT_EQ(probed_path.size(), plain_path.size());
    for (std::size_t i = 0; i < plain_path.size(); ++i) {
      EXPECT_EQ(probed_path.points()[i].round, plain_path.points()[i].round);
      EXPECT_EQ(probed_path.points()[i].ones, plain_path.points()[i].ones);
    }
    EXPECT_EQ(phases.count(telemetry::Phase::kSampleDraw), plain.ticks);
    EXPECT_EQ(phases.count(telemetry::Phase::kRoundStep), plain.ticks);
  };
  run_both(AggregateParallelEngine(minority), 61);
  run_both(SequentialEngine(minority), 62);
}

// --- Flight-recorder round streams from the newly migrated engines --------

TEST(RunLoopTelemetry, MigratedEnginesStreamRounds) {
  const std::string path = testing::TempDir() + "/run_loop_rounds.jsonl";
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const telemetry::ObserverScope observe({.rounds = &stream});

    const VoterDynamics voter;
    const AlphaSynchronousEngine alpha(voter, 0.5);
    StopRule rule;
    rule.max_rounds = 10;  // Voter needs ~n rounds: no consensus inside 10.
    Rng rng(83);
    const RunResult result =
        alpha.run(Configuration{4096, 2048, Opinion::kOne}, rule, rng);

    EXPECT_EQ(result.ticks, 10u);
    EXPECT_EQ(stream.rounds_seen(), result.ticks + 1);
  }
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const telemetry::ObserverScope observe({.rounds = &stream});

    const MultiVoter voter(3, 4);
    const MultiAggregateEngine engine(voter);
    StopRule rule;
    rule.max_rounds = 10;
    Rng rng(84);
    const MultiRunResult result =
        engine.run(MultiConfiguration{{2048, 1024, 1024}, 0, 1}, rule, rng);

    EXPECT_EQ(stream.rounds_seen(), result.rounds + 1);
  }
  {
    telemetry::RoundStream stream(path);
    ASSERT_TRUE(stream.ok());
    const telemetry::ObserverScope observe({.rounds = &stream});

    const PairwiseVoter voter;
    const PopulationEngine engine(voter);
    StopRule rule;
    rule.max_rounds = 10;
    Rng rng(85);
    auto population = engine.make_population(256, Opinion::kOne, 128);
    const RunResult result = engine.run(population, rule, rng);

    EXPECT_EQ(stream.rounds_seen(), result.rounds() + 1);
  }
}

}  // namespace
}  // namespace bitspread
