// escape_replicates: the Theorem 1 trap. Minority with l = 3 at n = 20 from
// X0 = 8 needs ~71k parallel rounds to absorb, so a replicate is tens of
// milliseconds of ~360 ns aggregate rounds: adoption probabilities, two
// binomial draws and the RunDriver loop, with no kernel, topology or
// per-round dispatch. The sequential setting runs beside it on the
// birth-death reduction. Replicates fan out over parallel_for.
#include <algorithm>
#include <cmath>
#include <vector>

#include "arith.h"
#include "engine/aggregate.h"
#include "engine/sequential.h"
#include "markov/absorption.h"
#include "markov/birth_death.h"
#include "markov/dense_chain.h"
#include "protocols/minority.h"
#include "random/binomial.h"
#include "random/seeding.h"
#include "sim/parallel.h"
#include "stats/summary.h"
#include "workload.h"

namespace perfbench {
namespace {

using bitspread::AggregateParallelEngine;
using bitspread::Configuration;
using bitspread::JsonValue;
using bitspread::Opinion;
using bitspread::Rng;
using bitspread::RunningStats;
using bitspread::RunResult;
using bitspread::SeedSequence;
using bitspread::SequentialEngine;
using bitspread::StopRule;

constexpr std::uint64_t kN = 20;
constexpr std::uint64_t kX0 = 8;
// Stream cells: replicate streams are keyed (pass * 2 + engine, replicate);
// warm-up and layer replays use cells far above any pass count.
constexpr std::uint64_t kWarmupCell = 1'000'000'000;
constexpr std::uint64_t kReplayCell = kWarmupCell + 1;

struct PassRecord {
  bool traced = false;
  double aggregate_s = 0.0;  // Aggregate fan-out wall time.
  double sequential_s = 0.0;
  double pass_s = 0.0;  // Both fan-outs, the verdict and the report.
  std::uint64_t rounds = 0;       // Aggregate rounds simulated.
  std::uint64_t activations = 0;  // Sequential activations simulated.
  double normalized_s = 0.0;      // pass_s at the exact expected work.
};

class EscapeReplicates final : public Workload {
 public:
  explicit EscapeReplicates(const Settings& settings)
      : Workload(settings),
        seeds_(settings.seed),
        aggregate_reps_(settings.smoke ? 32 : 128),
        sequential_reps_(settings.smoke ? 64 : 384) {}

  const char* name() const override { return "escape_replicates"; }

  void setup(Tracer* tracer) override {
    const SpanScope span(tracer, "setup");
    {
      const SpanScope solve(tracer, "markov.solve", span.id());
      solve_reference();
    }
    aggregate_rule_.max_rounds =
        64 * static_cast<std::uint64_t>(std::ceil(exact_rounds_));
    sequential_rule_.max_rounds =
        64 * static_cast<std::uint64_t>(std::ceil(exact_activations_ / kN));
    const SpanScope warm(tracer, "warmup", span.id());
    // Spawns the pool's workers and runs each through both engines.
    const std::uint64_t steps = settings_.smoke ? 5'000 : 100'000;
    bitspread::parallel_for(
        static_cast<int>(settings_.threads),
        [&](int worker) {
          Rng rng = seeds_.stream(kWarmupCell, static_cast<std::uint64_t>(worker));
          consume(walk(aggregate_, steps, rng).size());
          consume(walk(sequential_, steps, rng).size());
        },
        settings_.threads);
  }

  void pass(Tracer* tracer) override {
    const auto pass_start = Clock::now();
    const SpanScope span(tracer, "pass");
    PassRecord record;
    record.traced = tracer != nullptr;
    const std::uint64_t cell = 2 * pass_index_++;

    std::vector<RunResult> aggregate_runs(aggregate_reps_);
    {
      const SpanScope fanout(tracer, "fanout", span.id());
      const auto start = Clock::now();
      bitspread::parallel_for(
          aggregate_reps_,
          [&](int rep) {
            const SpanScope replicate(tracer, "replicate", fanout.id());
            Rng rng = seeds_.stream(cell, static_cast<std::uint64_t>(rep));
            aggregate_runs[static_cast<std::size_t>(rep)] =
                aggregate_.run(start_config(), aggregate_rule_, rng);
          },
          settings_.threads);
      record.aggregate_s = seconds_since(start);
    }
    std::vector<RunResult> sequential_runs(sequential_reps_);
    {
      const SpanScope fanout(tracer, "fanout", span.id());
      const auto start = Clock::now();
      bitspread::parallel_for(
          sequential_reps_,
          [&](int rep) {
            const SpanScope replicate(tracer, "replicate", fanout.id());
            Rng rng = seeds_.stream(cell + 1, static_cast<std::uint64_t>(rep));
            sequential_runs[static_cast<std::size_t>(rep)] =
                sequential_.run(start_config(), sequential_rule_, rng);
          },
          settings_.threads);
      record.sequential_s = seconds_since(start);
    }

    JsonValue verdicts = JsonValue::object();
    {
      const SpanScope verdict(tracer, "verdict", span.id());
      RunningStats pass_rounds;
      RunningStats pass_activations;
      for (const RunResult& run : aggregate_runs) {
        record.rounds += run.rounds();
        if (!run.converged()) {
          ++censored_;
          continue;
        }
        pass_rounds.add(static_cast<double>(run.rounds()));
      }
      for (const RunResult& run : sequential_runs) {
        record.activations += run.activations();
        if (!run.converged()) {
          ++censored_;
          continue;
        }
        pass_activations.add(static_cast<double>(run.activations()));
      }
      aggregate_stats_.merge(pass_rounds);
      sequential_stats_.merge(pass_activations);
      replicates_ += aggregate_runs.size() + sequential_runs.size();
      verdicts.set("aggregate", verdict_json(pass_rounds, exact_rounds_));
      verdicts.set("sequential",
                   verdict_json(pass_activations, exact_activations_));
    }
    write_pass_report(std::move(verdicts), tracer, span.id());

    record.pass_s = seconds_since(pass_start);
    // Scale each engine's share to the exact expected work, so the seed's
    // luck in absorption times does not move wall_s.
    const double expected_rounds = aggregate_reps_ * exact_rounds_;
    const double expected_activations = sequential_reps_ * exact_activations_;
    record.normalized_s =
        record.pass_s - record.aggregate_s - record.sequential_s +
        record.aggregate_s * expected_rounds /
            static_cast<double>(std::max<std::uint64_t>(record.rounds, 1)) +
        record.sequential_s * expected_activations /
            static_cast<double>(std::max<std::uint64_t>(record.activations, 1));
    passes_.push_back(record);
  }

  int probe_passes() const override { return 1; }

  // Rates are totals over the passes (work over fan-out wall time), not
  // medians of per-pass rates: a pass's rate carries the luck of its
  // slowest replicates, and a run holds only a handful of passes.
  double headline(bool traced) const override {
    return total_rate(traced, &PassRecord::rounds, &PassRecord::aggregate_s);
  }

  void end_to_end(Metrics& out) const override {
    const double rounds_per_s = headline(false);
    out.push_back({"wall_s",
                   median_of(false, [](const PassRecord& p) {
                     return p.normalized_s;
                   }),
                   "s"});
    out.push_back({"rounds_per_s", rounds_per_s, "1/s"});
    out.push_back({"activations_per_s",
                   total_rate(false, &PassRecord::activations,
                              &PassRecord::sequential_s),
                   "1/s"});
    // Every aggregate round advances all n agents.
    out.push_back({"agent_steps_per_s", rounds_per_s * kN, "1/s"});
  }

  void layer_metrics(const Tracer& tracer, std::size_t from,
                     Metrics& out) override {
    const int repeats = 5;
    const std::uint64_t replay = settings_.smoke ? 4'096 : 65'536;
    Rng rng = seeds_.stream(kReplayCell);
    const std::vector<Configuration> visited = walk(aggregate_, replay, rng);
    const std::vector<Configuration> visited_seq =
        walk(sequential_, replay, rng);
    const auto replay_steps = [&] {
      std::uint64_t acc = 0;
      for (const Configuration& c : visited) acc += aggregate_.step(c, rng).ones;
      consume(acc);
    };

    // Calls far below 1 us are timed as batched replays over the states
    // the escape actually visits, never as per-call spans.
    const double step_ns = median_batch_ns(repeats, replay_steps) /
                           static_cast<double>(visited.size());
    out.push_back({"aggregate.step_ns", step_ns, "ns"});

    out.push_back(
        {"protocols.adoption_ns",
         median_batch_ns(repeats,
                         [&] {
                           double acc = 0.0;
                           for (std::size_t i = 0; i < visited.size(); ++i) {
                             acc += protocol_.aggregate_adoption(
                                 (i & 1) != 0 ? Opinion::kOne : Opinion::kZero,
                                 visited[i].fraction_ones(), kN);
                           }
                           consume(static_cast<std::uint64_t>(acc));
                         }) /
             static_cast<double>(visited.size()),
         "ns"});

    // The two draws of each visited round: Bin(non-source ones, P1) and
    // Bin(non-source zeros, P0).
    std::vector<std::pair<std::uint64_t, double>> draws;
    draws.reserve(2 * visited.size());
    for (const Configuration& c : visited) {
      const double p = c.fraction_ones();
      draws.emplace_back(c.non_source_ones(),
                         protocol_.aggregate_adoption(Opinion::kOne, p, kN));
      draws.emplace_back(c.non_source_zeros(),
                         protocol_.aggregate_adoption(Opinion::kZero, p, kN));
    }
    out.push_back({"random.binomial_ns",
                   median_batch_ns(repeats,
                                   [&] {
                                     std::uint64_t acc = 0;
                                     for (const auto& [m, p] : draws) {
                                       acc += bitspread::binomial(rng, m, p);
                                     }
                                     consume(acc);
                                   }) /
                       static_cast<double>(draws.size()),
                   "ns"});

    out.push_back(
        {"sequential.activation_ns",
         median_batch_ns(repeats,
                         [&] {
                           std::uint64_t acc = 0;
                           for (const Configuration& c : visited_seq) {
                             acc += sequential_.step(c, rng).ones;
                           }
                           consume(acc);
                         }) /
             static_cast<double>(visited_seq.size()),
         "ns"});

    // run() per round against step() per call on the same states, one
    // thread, interleaved so host drift hits both sides alike.
    const int runs = settings_.smoke ? 2 : 16;
    double run_ns = 0.0;
    double replay_ns = 0.0;
    std::uint64_t run_rounds = 0;
    for (int i = 0; i < runs; ++i) {
      Rng run_rng = seeds_.stream(kReplayCell, 1, static_cast<std::uint64_t>(i));
      auto start = Clock::now();
      run_rounds +=
          aggregate_.run(start_config(), aggregate_rule_, run_rng).rounds();
      run_ns += seconds_since(start) * 1e9;
      start = Clock::now();
      replay_steps();
      replay_ns += seconds_since(start) * 1e9;
    }
    out.push_back({"run_loop.ns_per_round",
                   run_loop_ns_per_round(run_ns, run_rounds, replay_ns,
                                         runs * visited.size()),
                   "ns"});

    const std::vector<Span> spans = tracer.spans();
    out.push_back({"replicates.utilization",
                   fanout_utilization(spans, span_ids(spans, "fanout", from),
                                      settings_.threads),
                   "ratio"});

    std::vector<double> solves;
    for (int i = 0; i < 9; ++i) {
      const auto start = Clock::now();
      solve_reference();
      solves.push_back(seconds_since(start) * 1e3);
    }
    out.push_back({"markov.solve_ms", percentile(solves, 0.5), "ms"});
  }

  void check(Outcome& outcome) const override {
    outcome.attempted += replicates_;
    if (censored_ > 0) {
      outcome.fail("escape_replicates: " + std::to_string(censored_) +
                       " replicate(s) censored before absorption",
                   censored_);
    }
    if (!mean_within(aggregate_stats_.mean(), aggregate_stats_.stderr_mean(),
                     aggregate_stats_.count(), exact_rounds_)) {
      outcome.fail("escape_replicates: aggregate mean " +
                       std::to_string(aggregate_stats_.mean()) +
                       " rounds is not within 5 SE of the exact " +
                       std::to_string(exact_rounds_),
                   aggregate_stats_.count());
    }
    if (!mean_within(sequential_stats_.mean(), sequential_stats_.stderr_mean(),
                     sequential_stats_.count(), exact_activations_)) {
      outcome.fail("escape_replicates: sequential mean " +
                       std::to_string(sequential_stats_.mean()) +
                       " activations is not within 5 SE of the exact " +
                       std::to_string(exact_activations_),
                   sequential_stats_.count());
    }
  }

  JsonValue describe() const override {
    JsonValue out = JsonValue::object();
    out.set("n", kN);
    out.set("x0", kX0);
    out.set("ell", 3);
    out.set("aggregate_replicates_per_pass", aggregate_reps_);
    out.set("sequential_replicates_per_pass", sequential_reps_);
    out.set("passes", static_cast<std::uint64_t>(passes_.size()));
    out.set("aggregate", verdict_json(aggregate_stats_, exact_rounds_));
    out.set("sequential", verdict_json(sequential_stats_, exact_activations_));
    out.set("censored", censored_);
    JsonValue rates = JsonValue::array();
    for (const PassRecord& p : passes_) {
      JsonValue row = JsonValue::object();
      row.set("traced", p.traced);
      row.set("rounds_per_s", static_cast<double>(p.rounds) / p.aggregate_s);
      row.set("activations_per_s",
              static_cast<double>(p.activations) / p.sequential_s);
      row.set("normalized_s", p.normalized_s);
      rates.push_back(std::move(row));
    }
    out.set("pass_rates", std::move(rates));
    return out;
  }

 private:
  static Configuration start_config() noexcept {
    return Configuration{kN, kX0, Opinion::kOne};
  }

  // Exact references: expected rounds of the dense parallel chain and
  // expected activations of the birth-death chain, from X0.
  void solve_reference() {
    const bitspread::DenseParallelChain chain(protocol_, kN, Opinion::kOne);
    exact_rounds_ = bitspread::expected_convergence_rounds(
        chain)[kX0 - chain.min_state()];
    const bitspread::BirthDeathChain birth_death(protocol_, kN, Opinion::kOne);
    exact_activations_ = birth_death.expected_absorption_activations()
        [kX0 - birth_death.min_state()];
  }

  // The states a chain visits from X0, restarting at absorption.
  template <typename Engine>
  std::vector<Configuration> walk(const Engine& engine, std::uint64_t steps,
                                  Rng& rng) const {
    std::vector<Configuration> states;
    states.reserve(steps);
    Configuration c = start_config();
    for (std::uint64_t i = 0; i < steps; ++i) {
      states.push_back(c);
      c = engine.step(c, rng);
      if (c.is_consensus()) c = start_config();
    }
    return states;
  }

  template <typename Fn>
  static double median_batch_ns(int repeats, Fn&& batch) {
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
      const auto start = Clock::now();
      batch();
      times.push_back(seconds_since(start) * 1e9);
    }
    return percentile(times, 0.5);
  }

  template <typename Fn>
  double median_of(bool traced, Fn&& value) const {
    std::vector<double> values;
    for (const PassRecord& p : passes_) {
      if (p.traced == traced) values.push_back(value(p));
    }
    return percentile(values, 0.5);
  }

  double total_rate(bool traced, std::uint64_t PassRecord::*work,
                    double PassRecord::*seconds) const {
    double total_work = 0.0;
    double total_s = 0.0;
    for (const PassRecord& p : passes_) {
      if (p.traced != traced) continue;
      total_work += static_cast<double>(p.*work);
      total_s += p.*seconds;
    }
    return total_work / total_s;
  }

  static JsonValue verdict_json(const RunningStats& stats, double exact) {
    JsonValue out = JsonValue::object();
    out.set("count", stats.count());
    out.set("mean", stats.mean());
    out.set("stderr", stats.stderr_mean());
    out.set("exact", exact);
    out.set("z", stats.stderr_mean() > 0.0
                     ? (stats.mean() - exact) / stats.stderr_mean()
                     : 0.0);
    out.set("within_5_se", mean_within(stats.mean(), stats.stderr_mean(),
                                       stats.count(), exact));
    return out;
  }

  const bitspread::MinorityDynamics protocol_{3};
  const AggregateParallelEngine aggregate_{protocol_};
  const SequentialEngine sequential_{protocol_};
  const SeedSequence seeds_;
  const int aggregate_reps_;
  const int sequential_reps_;

  double exact_rounds_ = 0.0;
  double exact_activations_ = 0.0;
  StopRule aggregate_rule_;
  StopRule sequential_rule_;

  std::uint64_t pass_index_ = 0;
  std::uint64_t replicates_ = 0;
  std::uint64_t censored_ = 0;
  RunningStats aggregate_stats_;   // Rounds of converged replicates.
  RunningStats sequential_stats_;  // Activations of converged replicates.
  std::vector<PassRecord> passes_;
};

}  // namespace

std::unique_ptr<Workload> make_escape_replicates(const Settings& settings) {
  return std::make_unique<EscapeReplicates>(settings);
}

}  // namespace perfbench
