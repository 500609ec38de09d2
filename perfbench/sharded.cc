// The sharded-engine workloads: Minority l = 3 from X0 = n/2 (it stays near
// n/2) on ShardedAgentEngine with kernel kAuto and the benchmark's thread
// count. Three sizes and graphs put the work in different layers:
//
//   kernel_large   complete graph, n = 2^22: the bitslice kernel does almost
//                  all of the work; per-round dispatch is noise.
//   graph_regular  random 8-regular graph, n = 2^17: the same engine takes
//                  the legacy per-agent loop through the CSR Topology, and
//                  set-up pays the generator. Every traced run measures its
//                  layers; it is not an end-to-end workload of
//                  BENCHMARK.json, because its run-to-run spread on a shared
//                  host reached 30-39% at both 2^17 and 2^20.
//   dispatch_small complete graph, n = 2^16 (16 blocks): WorkerPool fan-out
//                  is a large share of each ~100 us round.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bias.h"
#include "arith.h"
#include "engine/kernel/kernel.h"
#include "engine/sharded.h"
#include "protocols/minority.h"
#include "random/seeding.h"
#include "topology/topology.h"
#include "workload.h"

namespace perfbench {
namespace {

using bitspread::Configuration;
using bitspread::JsonValue;
using bitspread::Opinion;
using bitspread::SeedSequence;
using bitspread::ShardedAgentEngine;
using bitspread::ShardedEngineOptions;
using bitspread::Topology;
namespace kernel = bitspread::kernel;

constexpr std::uint32_t kEll = 3;
constexpr std::uint32_t kGraphDegree = 8;

struct Spec {
  const char* name;
  int log2_n;
  bool graph;         // Random regular graph instead of the complete graph.
  int pass_rounds;    // Rounds per pass, each timed on its own.
  int replay_rounds;  // Trailing rounds of a pass replayed at one thread.
  int warmup_rounds;
  int layer_rounds;   // Rounds per side in the 1-thread / k-thread probes.
};

Spec spec_for(const std::string& name, bool smoke) {
  if (name == "kernel_large") {
    return smoke ? Spec{"kernel_large", 14, false, 8, 2, 2, 4}
                 : Spec{"kernel_large", 22, false, 32, 2, 8, 16};
  }
  if (name == "graph_regular") {
    return smoke ? Spec{"graph_regular", 12, true, 8, 2, 2, 4}
                 : Spec{"graph_regular", 17, true, 256, 4, 16, 32};
  }
  return smoke ? Spec{"dispatch_small", 12, false, 64, 8, 16, 32}
               : Spec{"dispatch_small", 16, false, 1024, 16, 256, 512};
}

struct PassRecord {
  bool traced = false;
  double pass_s = 0.0;  // Rounds, replay, verdict and report.
  std::size_t first_round = 0;  // Index into round_s_.
  bool replay_identical = true;
};

class ShardedWorkload final : public Workload {
 public:
  ShardedWorkload(const Spec& spec, const Settings& settings)
      : Workload(settings),
        spec_(spec),
        n_(std::uint64_t{1} << spec.log2_n),
        seeds_(settings.seed) {}

  const char* name() const override { return spec_.name; }

  void setup(Tracer* tracer) override {
    const SpanScope span(tracer, "setup");
    population_.reset();
    topology_.reset();
    if (spec_.graph) {
      const SpanScope generate(tracer, "topology.generate", span.id());
      topology_ = std::make_unique<Topology>(
          Topology::random_regular(n_, kGraphDegree, settings_.seed));
    }
    options_.threads = settings_.threads;
    options_.kernel = kernel::Backend::kAuto;
    options_.topology = topology_.get();
    const ShardedAgentEngine engine(protocol_, options_);
    {
      const SpanScope build(tracer, "population.build", span.id());
      population_.emplace(
          engine.make_population(Configuration{n_, n_ / 2, Opinion::kOne}));
    }
    const auto dispatch = engine.step_dispatch(*population_);
    backend_ = dispatch.backend;
    reason_ = dispatch.reason;
    round_ = 0;
    const SpanScope warm(tracer, "warmup", span.id());
    for (int i = 0; i < spec_.warmup_rounds; ++i) {
      engine.step(*population_, round_++, seeds_);
    }
  }

  void pass(Tracer* tracer) override {
    const auto pass_start = Clock::now();
    const SpanScope span(tracer, "pass");
    const ShardedAgentEngine engine(protocol_, options_);
    auto& population = *population_;
    PassRecord record;
    record.traced = tracer != nullptr;
    record.first_round = round_s_.size();

    std::vector<std::uint64_t> replay_plane;
    std::uint64_t replay_round = 0;
    std::uint64_t replay_ones = 0;
    moves_.clear();
    for (int i = 0; i < spec_.pass_rounds; ++i) {
      if (i == spec_.pass_rounds - spec_.replay_rounds) {
        replay_plane = population.plane_words();
        replay_round = round_;
        replay_ones = population.count_ones();
      }
      const std::uint64_t before = population.count_ones();
      const SpanScope round(tracer, "round", span.id());
      const auto start = Clock::now();
      engine.step(population, round_++, seeds_);
      round_s_.push_back(seconds_since(start));
      moves_.emplace_back(before, population.count_ones());
    }

    {
      const SpanScope replay(tracer, "replay", span.id());
      ShardedEngineOptions single = options_;
      single.threads = 1;
      const ShardedAgentEngine reference(protocol_, single);
      auto copy = reference.make_population(
          Configuration{n_, replay_ones, Opinion::kOne});
      record.replay_identical = copy.restore_plane(replay_plane, {});
      for (std::uint64_t r = replay_round; r < round_; ++r) {
        reference.step(copy, r, seeds_);
      }
      record.replay_identical = record.replay_identical &&
                                copy.plane_words() == population.plane_words() &&
                                copy.count_ones() == population.count_ones();
    }

    JsonValue verdicts = JsonValue::object();
    {
      const SpanScope verdict(tracer, "verdict", span.id());
      ResidualCheck pass_residual;
      if (!spec_.graph) {
        const bitspread::BiasFunction bias(protocol_, n_);
        const double n = static_cast<double>(n_);
        for (const auto& [x, y] : moves_) {
          // Prop. 5 with the source term: E[X'] = x + n F(x/n) + (1 - P1),
          // Var[X'] = (x - 1) P1 (1 - P1) + (n - x) P0 (1 - P0).
          const double p = static_cast<double>(x) / n;
          const double p1 = protocol_.aggregate_adoption(Opinion::kOne, p, n_);
          const double p0 = protocol_.aggregate_adoption(Opinion::kZero, p, n_);
          const double mean = static_cast<double>(x) + n * bias(p) + (1.0 - p1);
          const double variance =
              (static_cast<double>(x) - 1.0) * p1 * (1.0 - p1) +
              (n - static_cast<double>(x)) * p0 * (1.0 - p0);
          pass_residual.add(static_cast<double>(y), mean, variance);
        }
        residual_.merge(pass_residual);
        verdicts.set("residual_z", pass_residual.z());
        verdicts.set("residual_mean_square", pass_residual.mean_square());
        verdicts.set("residual_max_abs", pass_residual.max_abs());
      }
      const std::vector<double> times(round_s_.begin() + record.first_round,
                                      round_s_.end());
      const TimingSummary summary = summarize(times);
      verdicts.set("rounds", summary.count);
      verdicts.set("round_p50_s", summary.median);
      verdicts.set("round_tail_percentile", summary.tail_percentile);
      verdicts.set("round_tail_s", summary.tail);
      verdicts.set("replay_identical", record.replay_identical);
    }
    write_pass_report(std::move(verdicts), tracer, span.id());
    record.pass_s = seconds_since(pass_start);
    passes_.push_back(record);
  }

  int probe_passes() const override {
    // Enough rounds for a supported p99 on the small workload; two passes
    // elsewhere.
    return spec_.pass_rounds >= 1024 ? 1 : 2;
  }

  double headline(bool traced) const override {
    return static_cast<double>(n_) / percentile(round_times(traced), 0.5);
  }

  void end_to_end(Metrics& out) const override {
    // rounds_per_s: the median over passes of each pass's rounds over its
    // summed round time. Unlike agent_steps_per_s it keeps the stalls that
    // hit a typical pass; the median drops the rare pass a host stall
    // swamps.
    std::vector<double> pass_s;
    std::vector<double> pass_rates;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      if (passes_[i].traced) continue;
      pass_s.push_back(passes_[i].pass_s);
      double stepping_s = 0.0;
      for (std::size_t r = passes_[i].first_round;
           r < passes_[i].first_round + spec_.pass_rounds; ++r) {
        stepping_s += round_s_[r];
      }
      pass_rates.push_back(spec_.pass_rounds / stepping_s);
    }
    const double rounds_per_s = percentile(pass_rates, 0.5);
    out.push_back({"wall_s", percentile(pass_s, 0.5), "s"});
    out.push_back({"rounds_per_s", rounds_per_s, "1/s"});
    // One activation per agent per parallel round.
    out.push_back({"activations_per_s", rounds_per_s * static_cast<double>(n_),
                   "1/s"});
    out.push_back({"agent_steps_per_s", headline(false), "1/s"});
  }

  void layer_metrics(const Tracer& tracer, std::size_t from,
                     Metrics& out) override {
    const std::vector<Span> spans = tracer.spans();
    out.push_back({std::string("sharded.round_p99_us.") + spec_.name,
                   percentile(span_durations_ns(spans, "round", from), 0.99) /
                       1e3,
                   "us"});
    auto& population = *population_;
    const double n = static_cast<double>(n_);
    const ShardedAgentEngine engine(protocol_, options_);
    ShardedEngineOptions single_options = options_;
    single_options.threads = 1;
    const ShardedAgentEngine single(protocol_, single_options);

    if (spec_.name == std::string("kernel_large")) {
      out.push_back({"kernel.steps_per_s_1t",
                     n / median_round_s(single, spec_.layer_rounds), "1/s"});
      out.push_back({"kernel.computed_bytes_per_step",
                     kernel_computed_bytes_per_step(kEll), "B"});
      // run() per round against step() per round, both at k threads, as
      // the median over adjacent (run, step) sample pairs: pairing cancels
      // host drift, and the median ignores a pair with a stalled round.
      constexpr std::uint64_t kRoundsPerSample = 2;
      bitspread::StopRule rule;
      rule.max_rounds = kRoundsPerSample;
      auto copy = population;
      std::vector<double> per_round_ns;
      for (int i = 0; i < spec_.layer_rounds; ++i) {
        auto start = Clock::now();
        engine.run_population(copy, rule, seeds_.derive(round_, i));
        const double run_ns = seconds_since(start) * 1e9;
        start = Clock::now();
        for (std::uint64_t r = 0; r < kRoundsPerSample; ++r) {
          engine.step(population, round_++, seeds_);
        }
        per_round_ns.push_back(run_loop_ns_per_round(
            run_ns, kRoundsPerSample, seconds_since(start) * 1e9,
            kRoundsPerSample));
      }
      out.push_back({"run_loop.ns_per_round.kernel_large",
                     percentile(per_round_ns, 0.5), "ns"});
    } else if (spec_.name == std::string("dispatch_small")) {
      const double one = median_round_s(single, spec_.layer_rounds);
      const double many = median_round_s(engine, spec_.layer_rounds);
      out.push_back({"worker_pool.speedup", one / many, "ratio"});
      out.push_back({"worker_pool.overhead_us",
                     (many - one / static_cast<double>(settings_.threads)) * 1e6,
                     "us"});
    } else {
      out.push_back({"sharded.legacy_steps_per_s_1t",
                     n / median_round_s(single, spec_.layer_rounds), "1/s"});
      const std::vector<double> generate =
          span_durations_ns(spans, "topology.generate", from);
      out.push_back({"topology.generate_s",
                     generate.empty() ? 0.0 : generate.back() * 1e-9, "s"});
      out.push_back({"topology.sample_ns", sample_ns(), "ns"});
    }
  }

  void check(Outcome& outcome) const override {
    const std::uint64_t rounds = round_s_.size();
    outcome.attempted += rounds;
    const bool kernel_expected = !spec_.graph;
    const std::string backend = kernel::backend_name(backend_);
    if (kernel_expected && backend_ == kernel::Backend::kLegacy) {
      outcome.fail(std::string(spec_.name) +
                       ": step_dispatch reports the legacy loop (" + reason_ +
                       "), expected a bitslice backend",
                   rounds);
      return;
    }
    if (!kernel_expected &&
        (backend_ != kernel::Backend::kLegacy || reason_.empty() ||
         reason_ == "eligible")) {
      outcome.fail(std::string(spec_.name) + ": step_dispatch reports " +
                       backend + " (" + reason_ +
                       "), expected the legacy loop with a reason",
                   rounds);
      return;
    }
    for (const PassRecord& p : passes_) {
      if (!p.replay_identical) {
        outcome.fail(std::string(spec_.name) +
                         ": k-thread plane differs from the 1-thread replay",
                     static_cast<std::uint64_t>(spec_.pass_rounds));
      }
    }
    if (!spec_.graph && !residual_.ok()) {
      outcome.fail(std::string(spec_.name) + ": residual against n F_n(x/n) " +
                       "out of bounds (z " + std::to_string(residual_.z()) +
                       ", mean square " +
                       std::to_string(residual_.mean_square()) + ", max |r| " +
                       std::to_string(residual_.max_abs()) + ")",
                   rounds);
    }
  }

  JsonValue describe() const override {
    JsonValue out = JsonValue::object();
    out.set("n", n_);
    out.set("ell", kEll);
    out.set("graph", spec_.graph ? topology_->describe() : "complete");
    out.set("threads", settings_.threads);
    out.set("backend", kernel::backend_name(backend_));
    out.set("dispatch_reason", reason_);
    out.set("passes", static_cast<std::uint64_t>(passes_.size()));
    const TimingSummary rounds = summarize(round_times(false));
    out.set("untraced_rounds", static_cast<std::uint64_t>(rounds.count));
    out.set("round_p50_s", rounds.median);
    out.set("round_tail_percentile", rounds.tail_percentile);
    out.set("round_tail_s", rounds.tail);
    if (!spec_.graph) {
      out.set("residual_count", residual_.count());
      out.set("residual_z", residual_.z());
      out.set("residual_mean_square", residual_.mean_square());
      out.set("residual_max_abs", residual_.max_abs());
    }
    return out;
  }

 private:
  std::vector<double> round_times(bool traced) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      if (passes_[i].traced != traced) continue;
      const std::size_t end = i + 1 < passes_.size()
                                  ? passes_[i + 1].first_round
                                  : round_s_.size();
      out.insert(out.end(), round_s_.begin() + passes_[i].first_round,
                 round_s_.begin() + end);
    }
    return out;
  }

  // Median round time of `rounds` rounds of the live population on `engine`.
  double median_round_s(const ShardedAgentEngine& engine, int rounds) {
    std::vector<double> times;
    for (int i = 0; i < rounds; ++i) {
      const auto start = Clock::now();
      engine.step(*population_, round_++, seeds_);
      times.push_back(seconds_since(start));
    }
    return percentile(times, 0.5);
  }

  // One neighbor probe through the CSR sampling seam, batched over agents
  // in engine order (median of three batches).
  double sample_ns() const {
    const std::uint64_t calls = settings_.smoke ? 4'096 : 1'048'576;
    bitspread::Rng rng = seeds_.stream(round_, 1);
    std::vector<double> times;
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::uint64_t acc = 0;
      const auto start = Clock::now();
      for (std::uint64_t i = 0; i < calls; ++i) {
        topology_->sample_neighbors(i % n_, kEll, rng,
                                    [&](std::uint64_t j) { acc += j; });
      }
      times.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(calls * kEll));
      consume(acc);
    }
    return percentile(times, 0.5);
  }

  const Spec spec_;
  const std::uint64_t n_;
  const SeedSequence seeds_;
  const bitspread::MinorityDynamics protocol_{kEll};
  ShardedEngineOptions options_;
  std::unique_ptr<Topology> topology_;  // Referenced by options_.
  std::optional<ShardedAgentEngine::Population> population_;
  kernel::Backend backend_ = kernel::Backend::kLegacy;
  std::string reason_;
  std::uint64_t round_ = 0;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> moves_;  // (X, X').
  std::vector<double> round_s_;  // Every measured round, in order.
  ResidualCheck residual_;
  std::vector<PassRecord> passes_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded(const std::string& name,
                                       const Settings& settings) {
  return std::make_unique<ShardedWorkload>(spec_for(name, settings.smoke),
                                           settings);
}

}  // namespace perfbench
