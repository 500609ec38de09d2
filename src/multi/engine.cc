#include "multi/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "engine/run_loop.h"
#include "random/binomial.h"
#include "random/multinomial.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Exact adoption distribution by histogram enumeration at explicit opinion
// fractions (the faulty path passes the noisy fractions through here).
std::vector<double> adoption_from_fractions(
    const MultiOpinionProtocol& protocol, std::uint32_t own,
    const std::vector<double>& fractions, std::uint64_t n) {
  const auto m = static_cast<std::uint32_t>(fractions.size());
  const std::uint32_t ell = protocol.sample_size(n);
  assert(ell <= 12 && m <= 6 &&
         "exact enumeration is for the constant-l regime");

  std::vector<double> q(m, 0.0);
  std::vector<double> out(m);
  for_each_histogram(m, ell, [&](std::span<const std::uint32_t> histogram) {
    const double weight = histogram_probability(histogram, fractions);
    if (weight == 0.0) return;
    protocol.adoption_distribution(own, histogram, ell, n, out);
    for (std::uint32_t j = 0; j < m; ++j) q[j] += weight * out[j];
  });
  return q;
}

// m-ary symmetric channel: an observed opinion is replaced by a uniformly
// random OTHER opinion with probability epsilon, so opinion j is read with
// probability (1 - e) f_j + e (1 - f_j) / (m - 1).
std::vector<double> noisy_fractions(const MultiConfiguration& config,
                                    double epsilon) {
  const std::uint32_t m = config.opinion_count();
  std::vector<double> fractions(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    const double f = config.fraction(j);
    fractions[j] =
        m > 1 ? (1.0 - epsilon) * f + epsilon * (1.0 - f) / (m - 1.0) : f;
  }
  return fractions;
}

// The m-ary consensus stop evaluation both engines share (replaces the
// driver's binary evaluate_stop via the stepper evaluate() hook).
std::optional<StopReason> evaluate_multi(const StopRule& rule,
                                         const MultiConfiguration& config,
                                         const EnvironmentModel* model,
                                         std::uint64_t quorum_target) {
  if (model != nullptr) {
    if (config.counts[config.correct] >= quorum_target) {
      return StopReason::kCorrectConsensus;
    }
    if (rule.stop_on_any_consensus && config.is_consensus() &&
        !model->wrong_consensus_escapable()) {
      return StopReason::kWrongConsensus;
    }
    return std::nullopt;
  }
  if (config.is_correct_consensus()) return StopReason::kCorrectConsensus;
  if (rule.stop_on_any_consensus && config.is_consensus()) {
    return StopReason::kWrongConsensus;
  }
  return std::nullopt;
}

std::uint64_t quorum_target(const MultiConfiguration& config,
                            const EnvironmentModel& model) {
  const auto n = static_cast<double>(config.n());
  return static_cast<std::uint64_t>(
      std::ceil(model.convergence_quorum * n));
}

// Counts-level churn, m-ary form: each free agent (everything but the
// sources) crashes with probability delta and is replaced holding the
// canonical wrong opinion (correct + 1) mod m. Only opinion-changing
// replacements are drawn; same-opinion ones are invisible at this level.
std::uint64_t churn_counts(MultiConfiguration& config, double delta,
                           Rng& rng) {
  if (delta <= 0.0) return 0;
  const std::uint32_t m = config.opinion_count();
  const std::uint32_t wrong = (config.correct + 1) % m;
  std::uint64_t moved_total = 0;
  for (std::uint32_t j = 0; j < m; ++j) {
    if (j == wrong) continue;
    const std::uint64_t moved =
        binomial(rng, config.non_source_count(j), delta);
    config.counts[j] -= moved;
    config.counts[wrong] += moved;
    moved_total += moved;
  }
  return moved_total;
}

Configuration project(const MultiConfiguration& config) noexcept {
  return Configuration{config.n(), config.counts[config.correct],
                       Opinion::kOne, config.sources};
}

// Fault-free aggregate stepper: one multinomial draw per current opinion.
struct MultiAggregateStepper {
  const MultiAggregateEngine& engine;
  Rng& rng;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    state = engine.step(state, rng);
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state, nullptr, 0);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Faulty aggregate stepper: the adoption distributions are computed at the
// noisy fractions and mixed with the uniform spontaneous channel; churn at
// round boundaries.
struct MultiAggregateFaultyStepper {
  const MultiAggregateEngine& engine;
  const EnvironmentModel& model;
  Rng& rng;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t target = 0;
  std::uint64_t samples = 0;
  std::uint64_t churn_events = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    const std::uint32_t m = state.opinion_count();
    const std::vector<double> fractions =
        noisy_fractions(state, model.observation_noise);
    const double eta = model.spontaneous_rate;

    MultiConfiguration next = state;
    next.counts.assign(m, 0);
    next.counts[state.correct] = state.sources;
    const telemetry::ScopedTimer draw_timer(telemetry::Phase::kSampleDraw);
    for (std::uint32_t own = 0; own < m; ++own) {
      const std::uint64_t movers = state.non_source_count(own);
      if (movers == 0) continue;
      std::vector<double> q = adoption_from_fractions(
          engine.protocol(), own, fractions, state.n());
      if (eta > 0.0) {
        for (std::uint32_t j = 0; j < m; ++j) {
          q[j] = (1.0 - eta) * q[j] + eta / static_cast<double>(m);
        }
      }
      const std::vector<std::uint64_t> landed = multinomial(rng, movers, q);
      for (std::uint32_t j = 0; j < m; ++j) next.counts[j] += landed[j];
    }
    state = std::move(next);
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  void end_round(std::uint64_t /*round*/) {
    churn_events += churn_counts(state, model.churn_rate, rng);
    projection.ones = state.counts[state.correct];
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state, &model, target);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Fault-free agent stepper.
struct MultiAgentStepper {
  const MultiAgentEngine& engine;
  Rng& rng;
  MultiAgentEngine::Population& population;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    engine.step(population, rng);
    state = population.config();
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state, nullptr, 0);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

// Faulty agent stepper: per-observation m-ary noise and the spontaneous
// override happen inside step_faulty; churn replaces free agents at round
// boundaries with the canonical wrong opinion.
struct MultiAgentFaultyStepper {
  const MultiAgentEngine& engine;
  const EnvironmentModel& model;
  Rng& rng;
  MultiAgentEngine::Population& population;
  MultiConfiguration state;
  Configuration projection;
  std::uint64_t target = 0;
  std::uint64_t samples = 0;
  std::uint64_t churn_events = 0;

  Configuration& config() noexcept { return projection; }
  void step(std::uint64_t /*tick*/) {
    engine.step_faulty(population, model, rng);
    state = population.config();
    projection.ones = state.counts[state.correct];
    samples += (state.n() - state.sources) *
               engine.protocol().sample_size(state.n());
  }
  void end_round(std::uint64_t /*round*/) {
    if (model.churn_rate <= 0.0) return;
    const std::uint32_t m = population.opinion_count;
    const std::uint32_t wrong = (population.correct + 1) % m;
    for (std::uint64_t i = population.sources;
         i < population.opinions.size(); ++i) {
      if (!rng.bernoulli(model.churn_rate)) continue;
      if (population.opinions[i] != wrong) ++churn_events;
      population.opinions[i] = wrong;
    }
    state = population.config();
    projection.ones = state.counts[state.correct];
  }
  std::optional<StopReason> evaluate(const StopRule& rule) const {
    return evaluate_multi(rule, state, &model, target);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
};

MultiRunResult to_multi(RunResult&& run, MultiConfiguration&& state) {
  MultiRunResult result;
  result.reason = run.reason;
  result.rounds = run.ticks;
  result.final_config = std::move(state);
  result.telemetry = run.telemetry;
  return result;
}

}  // namespace

std::vector<double> MultiAggregateEngine::adoption_distribution(
    std::uint32_t own, const MultiConfiguration& config) const {
  const std::uint32_t m = config.opinion_count();
  std::vector<double> fractions(m);
  for (std::uint32_t j = 0; j < m; ++j) fractions[j] = config.fraction(j);
  return adoption_from_fractions(*protocol_, own, fractions, config.n());
}

MultiConfiguration MultiAggregateEngine::step(const MultiConfiguration& config,
                                              Rng& rng) const {
  assert(config.valid());
  const std::uint32_t m = config.opinion_count();
  MultiConfiguration next = config;
  next.counts.assign(m, 0);
  next.counts[config.correct] = config.sources;

  const telemetry::ScopedTimer draw_timer(telemetry::Phase::kSampleDraw);
  for (std::uint32_t own = 0; own < m; ++own) {
    const std::uint64_t movers = config.non_source_count(own);
    if (movers == 0) continue;
    const std::vector<double> q = adoption_distribution(own, config);
    const std::vector<std::uint64_t> landed = multinomial(rng, movers, q);
    for (std::uint32_t j = 0; j < m; ++j) next.counts[j] += landed[j];
  }
  return next;
}

MultiRunResult MultiAggregateEngine::run(MultiConfiguration config,
                                         const StopRule& rule, Rng& rng,
                                         Trajectory* trajectory) const {
  assert(config.valid());
  MultiAggregateStepper stepper{*this, rng, std::move(config),
                                Configuration{}};
  stepper.projection = project(stepper.state);
  const RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  return to_multi(RunResult(run), std::move(stepper.state));
}

MultiRunResult MultiAggregateEngine::run(MultiConfiguration config,
                                         const StopRule& rule,
                                         const EnvironmentModel& faults,
                                         Rng& rng,
                                         Trajectory* trajectory) const {
  assert(config.valid());
  const EnvironmentModel model = faults.normalized();
  MultiAggregateFaultyStepper stepper{*this, model, rng, std::move(config),
                                      Configuration{},
                                      0};
  stepper.projection = project(stepper.state);
  stepper.target = quorum_target(stepper.state, model);
  RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  run.telemetry.fault_churned = stepper.churn_events;
  return to_multi(std::move(run), std::move(stepper.state));
}

MultiConfiguration MultiAgentEngine::Population::config() const {
  MultiConfiguration result;
  result.counts.assign(opinion_count, 0);
  for (const std::uint32_t opinion : opinions) ++result.counts[opinion];
  result.correct = correct;
  result.sources = sources;
  return result;
}

MultiAgentEngine::Population MultiAgentEngine::make_population(
    const MultiConfiguration& config) const {
  assert(config.valid());
  Population population;
  population.correct = config.correct;
  population.sources = config.sources;
  population.opinion_count = config.opinion_count();
  population.opinions.reserve(config.n());
  for (std::uint64_t i = 0; i < config.sources; ++i) {
    population.opinions.push_back(config.correct);
  }
  for (std::uint32_t j = 0; j < config.opinion_count(); ++j) {
    for (std::uint64_t i = 0; i < config.non_source_count(j); ++i) {
      population.opinions.push_back(j);
    }
  }
  return population;
}

void MultiAgentEngine::step(Population& population, Rng& rng) const {
  const std::uint64_t n = population.opinions.size();
  const std::uint32_t m = population.opinion_count;
  const std::uint32_t ell = protocol_->sample_size(n);
  const std::vector<std::uint32_t> snapshot(population.opinions);

  std::vector<std::uint32_t> histogram(m);
  std::vector<double> distribution(m);
  for (std::uint64_t i = population.sources; i < n; ++i) {
    std::fill(histogram.begin(), histogram.end(), 0u);
    for (std::uint32_t s = 0; s < ell; ++s) {
      ++histogram[snapshot[rng.next_below(n)]];
    }
    protocol_->adoption_distribution(population.opinions[i], histogram, ell,
                                     n, distribution);
    // Inverse-CDF draw over the m opinions.
    double u = rng.next_double();
    std::uint32_t next = m - 1;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (u < distribution[j]) {
        next = j;
        break;
      }
      u -= distribution[j];
    }
    population.opinions[i] = next;
  }
}

void MultiAgentEngine::step_faulty(Population& population,
                                   const EnvironmentModel& model,
                                   Rng& rng) const {
  const std::uint64_t n = population.opinions.size();
  const std::uint32_t m = population.opinion_count;
  const std::uint32_t ell = protocol_->sample_size(n);
  const std::vector<std::uint32_t> snapshot(population.opinions);

  std::vector<std::uint32_t> histogram(m);
  std::vector<double> distribution(m);
  for (std::uint64_t i = population.sources; i < n; ++i) {
    std::fill(histogram.begin(), histogram.end(), 0u);
    for (std::uint32_t s = 0; s < ell; ++s) {
      std::uint32_t observed = snapshot[rng.next_below(n)];
      if (model.observation_noise > 0.0 && m > 1 &&
          rng.bernoulli(model.observation_noise)) {
        // Uniformly random OTHER opinion: draw from [0, m-2] and skip own.
        const auto k =
            static_cast<std::uint32_t>(rng.next_below(m - 1));
        observed = k >= observed ? k + 1 : k;
      }
      ++histogram[observed];
    }
    protocol_->adoption_distribution(population.opinions[i], histogram, ell,
                                     n, distribution);
    double u = rng.next_double();
    std::uint32_t next = m - 1;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (u < distribution[j]) {
        next = j;
        break;
      }
      u -= distribution[j];
    }
    if (model.spontaneous_rate > 0.0 &&
        rng.bernoulli(model.spontaneous_rate)) {
      next = static_cast<std::uint32_t>(rng.next_below(m));
    }
    population.opinions[i] = next;
  }
}

MultiRunResult MultiAgentEngine::run(MultiConfiguration config,
                                     const StopRule& rule, Rng& rng,
                                     Trajectory* trajectory) const {
  assert(config.valid());
  Population population = make_population(config);
  MultiAgentStepper stepper{*this, rng, population, population.config(),
                            Configuration{}};
  stepper.projection = project(stepper.state);
  const RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  return to_multi(RunResult(run), std::move(stepper.state));
}

MultiRunResult MultiAgentEngine::run(MultiConfiguration config,
                                     const StopRule& rule,
                                     const EnvironmentModel& faults, Rng& rng,
                                     Trajectory* trajectory) const {
  assert(config.valid());
  const EnvironmentModel model = faults.normalized();
  Population population = make_population(config);
  MultiAgentFaultyStepper stepper{*this,         model, rng, population,
                                  population.config(), Configuration{}, 0};
  stepper.projection = project(stepper.state);
  stepper.target = quorum_target(stepper.state, model);
  RunResult run =
      RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
  run.telemetry.fault_churned = stepper.churn_events;
  return to_multi(std::move(run), std::move(stepper.state));
}

}  // namespace bitspread
