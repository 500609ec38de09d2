#include "engine/alpha_sync.h"

#include <algorithm>
#include <cassert>

#include "engine/run_loop.h"
#include "faults/noisy_protocol.h"
#include "faults/session.h"
#include "random/binomial.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Fault-free stepper. The round arithmetic mirrors
// AlphaSynchronousEngine::step draw-for-draw; it is inlined here so the
// stepper can count the activated agents (only they draw samples).
struct AlphaStepper {
  const AlphaSynchronousEngine& engine;
  Rng& rng;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const MemorylessProtocol& protocol = engine.protocol();
    const double p = state.fraction_ones();
    const double p1 = protocol.aggregate_adoption(Opinion::kOne, p, state.n);
    const double p0 = protocol.aggregate_adoption(Opinion::kZero, p, state.n);
    const telemetry::ScopedTimer draw_timer(telemetry::Phase::kSampleDraw);
    const std::uint64_t active_ones =
        binomial(rng, state.non_source_ones(), engine.alpha());
    const std::uint64_t active_zeros =
        binomial(rng, state.non_source_zeros(), engine.alpha());
    const std::uint64_t stay_ones = state.non_source_ones() - active_ones;
    state.ones = state.source_ones() + stay_ones +
                 binomial(rng, active_ones, p1) +
                 binomial(rng, active_zeros, p0);
    samples += (active_ones + active_zeros) *
               protocol.sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Faulty stepper: the activated free agents adopt with the closed-form
// noisy probabilities; zealots never activate; churn at round boundaries.
struct AlphaFaultyStepper {
  const AlphaSynchronousEngine& engine;
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
    const telemetry::ScopedTimer draw_timer(telemetry::Phase::kSampleDraw);
    const std::uint64_t free_ones = session.free_ones(state);
    const std::uint64_t free_zeros = session.free_zeros(state);
    const std::uint64_t active_ones = binomial(rng, free_ones, engine.alpha());
    const std::uint64_t active_zeros =
        binomial(rng, free_zeros, engine.alpha());
    const std::uint64_t stay_ones = free_ones - active_ones;
    state.ones = state.source_ones() + session.zealot_ones() + stay_ones +
                 binomial(rng, active_ones, p1) +
                 binomial(rng, active_zeros, p0);
    samples += (active_ones + active_zeros) * ell;
  }
  void end_round(std::uint64_t /*round*/) {
    state = session.churn(state, rng);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

}  // namespace

AlphaSynchronousEngine::AlphaSynchronousEngine(
    const MemorylessProtocol& protocol, double alpha) noexcept
    : protocol_(&protocol), alpha_(std::clamp(alpha, 0.0, 1.0)) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

Configuration AlphaSynchronousEngine::step(const Configuration& config,
                                           Rng& rng) const {
  assert(config.valid());
  const double p = config.fraction_ones();
  const double p1 = protocol_->aggregate_adoption(Opinion::kOne, p, config.n);
  const double p0 = protocol_->aggregate_adoption(Opinion::kZero, p, config.n);

  const std::uint64_t active_ones =
      binomial(rng, config.non_source_ones(), alpha_);
  const std::uint64_t active_zeros =
      binomial(rng, config.non_source_zeros(), alpha_);
  const std::uint64_t stay_ones = config.non_source_ones() - active_ones;

  Configuration next = config;
  next.ones = config.source_ones() + stay_ones +
              binomial(rng, active_ones, p1) + binomial(rng, active_zeros, p0);
  return next;
}

RunResult AlphaSynchronousEngine::run(Configuration config,
                                      const StopRule& rule, Rng& rng,
                                      Trajectory* trajectory) const {
  AlphaStepper stepper{*this, rng, config};
  return RunDriver(TimePolicy::alpha_rounds(alpha_))
      .run(stepper, rule, trajectory);
}

RunResult AlphaSynchronousEngine::run(Configuration config,
                                      const StopRule& rule,
                                      const EnvironmentModel& faults, Rng& rng,
                                      Trajectory* trajectory) const {
  assert(config.valid());
  FaultSession session(faults, config);
  const NoisyObservationProtocol noisy(*protocol_, session.model());
  config = session.plant(config);
  AlphaFaultyStepper stepper{*this, noisy, session, rng, config,
                             protocol_->sample_size(config.n)};
  return RunDriver(TimePolicy::alpha_rounds(alpha_))
      .run(stepper, rule, session, trajectory);
}

}  // namespace bitspread
