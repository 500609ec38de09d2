#include "population/engine.h"

#include <cassert>

#include "engine/run_loop.h"
#include "faults/session.h"

namespace bitspread {
namespace {

// Fault-free stepper: one tick = one scheduler round of n interactions; the
// display configuration is recounted once per round (O(n), the same
// amortization the hand-rolled loop used).
struct PopulationStepper {
  const PopulationEngine& engine;
  Rng& rng;
  PopulationEngine::Population& population;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const std::uint64_t n = population.states.size();
    for (std::uint64_t i = 0; i < n; ++i) engine.interact(population, rng);
    state.ones = population.count_ones(engine.protocol());
    // Each interaction reveals both partners' full states: two
    // observations per interaction is the passive-sampling equivalent.
    samples += 2 * n;
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Faulty stepper: zealot slots are frozen inside the interaction, source
// flips reset the pinned source states, churn replaces free agents at round
// boundaries.
struct PopulationFaultyStepper {
  const PopulationEngine& engine;
  FaultSession& session;
  Rng& rng;
  PopulationEngine::Population& population;
  Configuration state;
  std::uint64_t samples = 0;
  std::uint64_t churn_events = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t /*tick*/) {
    const std::uint64_t n = population.states.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      engine.interact_faulty(population, session, rng);
    }
    state.ones = population.count_ones(engine.protocol());
    samples += 2 * n;
  }
  void sync_flip() {
    population.correct = state.correct;
    for (std::uint64_t i = 0; i < population.sources; ++i) {
      population.states[i] = engine.protocol().source_state(state.correct);
    }
    state.ones = population.count_ones(engine.protocol());
  }
  void end_round(std::uint64_t /*round*/) {
    const double delta = session.model().churn_rate;
    if (delta <= 0.0) return;
    const Opinion wrong = state.correct == Opinion::kOne ? Opinion::kZero
                                                         : Opinion::kOne;
    const std::uint32_t reset = engine.protocol().initial_state(wrong);
    for (std::uint64_t i = population.sources;
         i < population.states.size(); ++i) {
      if (session.is_zealot(i)) continue;
      if (!rng.bernoulli(delta)) continue;
      population.states[i] = reset;
      ++churn_events;
    }
    state.ones = population.count_ones(engine.protocol());
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
  std::uint64_t churned() const noexcept { return churn_events; }
};

}  // namespace

std::uint64_t PopulationEngine::Population::count_ones(
    const PairwiseProtocol& protocol) const noexcept {
  std::uint64_t ones = 0;
  for (const std::uint32_t state : states) {
    ones += to_int(protocol.opinion(state));
  }
  return ones;
}

PopulationEngine::Population PopulationEngine::make_population(
    std::uint64_t n, Opinion correct, std::uint64_t initial_ones,
    std::uint64_t sources) const {
  assert(sources <= n);
  Population population;
  population.sources = sources;
  population.correct = correct;
  population.states.reserve(n);
  const std::uint64_t source_ones = correct == Opinion::kOne ? sources : 0;
  assert(initial_ones >= source_ones &&
         initial_ones - source_ones <= n - sources);
  for (std::uint64_t i = 0; i < sources; ++i) {
    population.states.push_back(protocol_->source_state(correct));
  }
  for (std::uint64_t i = 0; i < initial_ones - source_ones; ++i) {
    population.states.push_back(protocol_->initial_state(Opinion::kOne));
  }
  for (std::uint64_t i = sources + (initial_ones - source_ones); i < n; ++i) {
    population.states.push_back(protocol_->initial_state(Opinion::kZero));
  }
  return population;
}

void PopulationEngine::interact(Population& population, Rng& rng) const {
  const std::uint64_t n = population.states.size();
  assert(n >= 2);
  const std::uint64_t a = rng.next_below(n);
  std::uint64_t b = rng.next_below(n - 1);
  if (b >= a) ++b;
  const auto [next_a, next_b] =
      protocol_->interact(population.states[a], population.states[b], rng);
  if (a >= population.sources) population.states[a] = next_a;
  if (b >= population.sources) population.states[b] = next_b;
}

void PopulationEngine::interact_faulty(Population& population,
                                       const FaultSession& session,
                                       Rng& rng) const {
  const std::uint64_t n = population.states.size();
  assert(n >= 2);
  const std::uint64_t a = rng.next_below(n);
  std::uint64_t b = rng.next_below(n - 1);
  if (b >= a) ++b;
  const auto [next_a, next_b] =
      protocol_->interact(population.states[a], population.states[b], rng);
  if (a >= population.sources && !session.is_zealot(a)) {
    population.states[a] = next_a;
  }
  if (b >= population.sources && !session.is_zealot(b)) {
    population.states[b] = next_b;
  }
}

RunResult PopulationEngine::run(Population& population, const StopRule& rule,
                                Rng& rng, Trajectory* trajectory) const {
  const std::uint64_t n = population.states.size();
  PopulationStepper stepper{
      *this, rng, population,
      Configuration{n, population.count_ones(*protocol_), population.correct,
                    population.sources}};
  return RunDriver(TimePolicy::interaction_rounds(n))
      .run(stepper, rule, trajectory);
}

RunResult PopulationEngine::run(Population& population, const StopRule& rule,
                                const EnvironmentModel& faults, Rng& rng,
                                Trajectory* trajectory) const {
  const std::uint64_t n = population.states.size();
  Configuration config{n, population.count_ones(*protocol_),
                       population.correct, population.sources};
  FaultSession session(faults, config);
  config = session.plant(config);
  // Pin the zealot slots to the zealot opinion's initial state; under the
  // canonical layout the recount below matches the planted ones-count.
  const std::uint32_t zealot_state =
      protocol_->initial_state(session.zealot_opinion());
  for (std::uint64_t i = session.zealot_begin(); i < session.zealot_end();
       ++i) {
    population.states[i] = zealot_state;
  }
  config.ones = population.count_ones(*protocol_);
  PopulationFaultyStepper stepper{*this, session, rng, population, config};
  return RunDriver(TimePolicy::interaction_rounds(n))
      .run(stepper, rule, session, trajectory);
}

}  // namespace bitspread
