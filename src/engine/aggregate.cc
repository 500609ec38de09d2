#include "engine/aggregate.h"

#include <cassert>

#include "engine/plan_table.h"
#include "engine/run_loop.h"
#include "faults/noisy_protocol.h"
#include "faults/session.h"
#include "random/binomial.h"
#include "snapshot/state.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Everything one fault-free round prepares from X_t before its first
// uniform: the two Eq. 4 draws with their adoption probabilities folded in.
// A kept plan's samplers are tabulated; step() builds one-shot ones.
struct AggregatePlan {
  BinomialSampler ones;   // Bin(non-source ones, P_1(x/n)).
  BinomialSampler zeros;  // Bin(non-source zeros, P_0(x/n)).
};

template <bool kKept>
AggregatePlan plan_round(const MemorylessProtocol& protocol,
                         const Configuration& config) {
  const double p = config.fraction_ones();
  const double p1 = protocol.aggregate_adoption(Opinion::kOne, p, config.n);
  const double p0 = protocol.aggregate_adoption(Opinion::kZero, p, config.n);
  if constexpr (kKept) {
    return {BinomialSampler::tabulated(config.non_source_ones(), p1),
            BinomialSampler::tabulated(config.non_source_zeros(), p0)};
  } else {
    return {BinomialSampler(config.non_source_ones(), p1),
            BinomialSampler(config.non_source_zeros(), p0)};
  }
}

template <bool kProbed>
Configuration draw_round(const Configuration& config,
                         const AggregatePlan& plan, Rng& rng) {
  const internal::PhaseProbe<kProbed> draw_timer(
      telemetry::Phase::kSampleDraw);
  const std::uint64_t stay_one = plan.ones(rng);
  const std::uint64_t switch_to_one = plan.zeros(rng);
  Configuration next = config;
  next.ones = config.source_ones() + stay_one + switch_to_one;
  return next;
}

// Fault-free stepper: one exact round = two binomial draws, planned once
// per visited state.
struct AggregateStepper {
  const MemorylessProtocol& protocol;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;
  PlanTable<AggregatePlan> plans{};

  Configuration& config() noexcept { return state; }
  template <bool kProbed>
  void step(std::uint64_t /*tick*/) {
    const AggregatePlan& plan = plans.get(
        state.ones, [&] { return plan_round<true>(protocol, state); });
    state = draw_round<kProbed>(state, plan, rng);
    // The aggregate reduction draws (n - z) * l conceptual observation
    // bits per round through two exact binomials.
    samples += (state.n - state.sources) * protocol.sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }

  // Snapshot hooks: the whole evolved state is the 256-bit generator (the
  // configuration travels driver-side).
  static constexpr const char* kSnapshotTag = "aggregate";
  void capture(snapshot::StepperState& out) const {
    out.rng.assign(1, rng.state());
    out.samples_drawn = samples;
  }
  bool restore(const snapshot::StepperState& saved) {
    if (saved.rng.size() != 1) return false;
    rng.set_state(saved.rng[0]);
    samples = saved.samples_drawn;
    plans.clear();
    return true;
  }
};

// Faulty stepper: free agents update through the noisy closed-form adoption
// probabilities; churn replaces crashed ones at the round boundary.
struct AggregateFaultyStepper {
  const NoisyObservationProtocol& noisy;
  FaultSession& session;
  Rng& rng;
  Configuration state;
  std::uint32_t ell = 0;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const double p = state.fraction_ones();
    const double p1 = noisy.aggregate_adoption(Opinion::kOne, p, state.n);
    const double p0 = noisy.aggregate_adoption(Opinion::kZero, p, state.n);
    const std::uint64_t next_free_ones =
        binomial(rng, session.free_ones(state), p1) +
        binomial(rng, session.free_zeros(state), p0);
    state.ones =
        state.source_ones() + session.zealot_ones() + next_free_ones;
    samples += session.free_agents() * ell;
  }
  void end_round(std::uint64_t /*round*/) {
    state = session.churn(state, rng);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }

  static constexpr const char* kSnapshotTag = "aggregate.faulty";
  void capture(snapshot::StepperState& out) const {
    out.rng.assign(1, rng.state());
    out.samples_drawn = samples;
  }
  bool restore(const snapshot::StepperState& saved) {
    if (saved.rng.size() != 1) return false;
    rng.set_state(saved.rng[0]);
    samples = saved.samples_drawn;
    return true;
  }
};

}  // namespace

Configuration AggregateParallelEngine::step(const Configuration& config,
                                            Rng& rng) const {
  assert(config.valid());
  return draw_round<true>(config, plan_round<false>(*protocol_, config), rng);
}

RunResult AggregateParallelEngine::run(Configuration config,
                                       const StopRule& rule, Rng& rng,
                                       Trajectory* trajectory) const {
  AggregateStepper stepper{*protocol_, rng, config};
  return RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
}

RunResult AggregateParallelEngine::run(Configuration config,
                                       const StopRule& rule,
                                       const EnvironmentModel& faults,
                                       Rng& rng,
                                       Trajectory* trajectory) const {
  assert(config.valid());
  FaultSession session(faults, config);
  const NoisyObservationProtocol noisy(*protocol_, session.model());
  config = session.plant(config);
  AggregateFaultyStepper stepper{noisy, session, rng, config,
                                 protocol_->sample_size(config.n)};
  return RunDriver(TimePolicy::parallel())
      .run(stepper, rule, session, trajectory);
}

}  // namespace bitspread
