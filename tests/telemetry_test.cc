// Telemetry subsystem tests: exact metrics under pool concurrency, the JSON
// model and bench-report schema, phase probes, pool utilization counters,
// and — the load-bearing guarantee — bit-identical run payloads whether
// telemetry records or not. The golden digest is asserted both with no sink
// installed (RunDriver's probe-free loop) and with sinks installed (its
// probed loop), so passing proves the runtime probe gate cannot perturb a
// simulation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "engine/sequential.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "obs/progress.h"
#include "profile/counters.h"
#include "protocols/minority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "sim/parallel.h"
#include "telemetry/json.h"
#include "telemetry/jsonl.h"
#include "telemetry/metrics.h"
#include "telemetry/reporter.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CounterIncrementsAndReads) {
  MetricsRegistry registry;
  auto counter = registry.counter("unit.count");
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);

  // Same name, same counter.
  auto again = registry.counter("unit.count");
  again.increment(8);
  EXPECT_EQ(counter.value(), 50u);

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.count("unit.count"), 1u);
  EXPECT_EQ(snapshot.counters.at("unit.count"), 50u);
}

TEST(Metrics, GaugeHoldsLastValue) {
  MetricsRegistry registry;
  auto gauge = registry.gauge("unit.level");
  gauge.set(1.5);
  gauge.set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("unit.level"), -3.25);
}

TEST(Metrics, HistogramBucketsAreExact) {
  MetricsRegistry registry;
  auto hist = registry.histogram("unit.latency", {1.0, 10.0, 100.0});
  // <=1 | <=10 | <=100 | overflow
  hist.observe(0.5);
  hist.observe(1.0);  // Upper bounds are inclusive.
  hist.observe(7.0);
  hist.observe(99.0);
  hist.observe(1000.0);
  const auto snapshot = registry.snapshot();
  const auto& h = snapshot.histograms.at("unit.latency");
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);  // Overflow bucket.
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 7.0 + 99.0 + 1000.0);
}

TEST(Metrics, ConcurrentIncrementsUnderSharedPoolAreExact) {
  // The designed concurrency contract: every pool worker lands on its own
  // thread-local shard, so counts are EXACT (no torn buckets, no lost
  // updates) even though increments are lock-free.
  constexpr int kItems = 20'000;
  MetricsRegistry registry;
  auto counter = registry.counter("pool.items");
  auto hist = registry.histogram("pool.value", {0.25, 0.5, 0.75});
  parallel_for(
      kItems,
      [&](int i) {
        counter.increment();
        hist.observe(static_cast<double>(i % 100) / 100.0);
      },
      /*max_threads=*/8);
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kItems));
  const auto snapshot = registry.snapshot();
  const auto& h = snapshot.histograms.at("pool.value");
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kItems));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : h.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kItems));
  // i%100 in [0,100): 26 values <= 0.25, 25 in (0.25,0.5], 25 in (0.5,0.75],
  // 24 above — times kItems/100 passes.
  EXPECT_EQ(h.counts[0], static_cast<std::uint64_t>(kItems / 100 * 26));
  EXPECT_EQ(h.counts[3], static_cast<std::uint64_t>(kItems / 100 * 24));
}

TEST(Metrics, ExitedThreadsKeepTheirContributions) {
  MetricsRegistry registry;
  auto counter = registry.counter("exit.count");
  std::thread worker([&] {
    for (int i = 0; i < 1000; ++i) counter.increment();
  });
  worker.join();
  EXPECT_EQ(counter.value(), 1000u);
  EXPECT_EQ(registry.snapshot().counters.at("exit.count"), 1000u);
}

TEST(Metrics, ResetZeroesEverything) {
  MetricsRegistry registry;
  auto counter = registry.counter("reset.count");
  auto gauge = registry.gauge("reset.level");
  auto hist = registry.histogram("reset.hist", {1.0});
  counter.increment(7);
  gauge.set(2.0);
  hist.observe(0.5);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.histograms.at("reset.hist").count, 0u);
  // And the slots are still usable after a reset.
  counter.increment();
  EXPECT_EQ(counter.value(), 1u);
}

// ---------------------------------------------------------------------------
// JSON model + bench report schema

TEST(Json, SeedsRoundTripExactly) {
  JsonValue obj = JsonValue::object();
  obj.set("seed", JsonValue(std::uint64_t{0xFFFFFFFFFFFFFFFFull}));
  obj.set("negative", JsonValue(-42));
  obj.set("pi", JsonValue(3.141592653589793));
  obj.set("text", JsonValue("a \"quoted\" string\n"));
  obj.set("flag", JsonValue(true));
  const std::string text = obj.dump();
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_EQ(parsed->find("seed")->as_uint(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_DOUBLE_EQ(parsed->find("pi")->as_double(), 3.141592653589793);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": 01}").has_value());
  EXPECT_TRUE(JsonValue::parse("{\"a\": [1, 2.5, \"x\"]}").has_value());
}

TEST(Reporter, BuildPassesSchemaValidation) {
  JsonReporter reporter("unit_bench");
  reporter.set_experiment("E0");
  reporter.set_seed(12345);
  reporter.set_quick(true);
  reporter.set_workload("n", JsonValue(1024));
  reporter.add_phase("simulate", 0.125, 3);
  reporter.set_extra("all_ok", JsonValue(true));
  const JsonValue report = reporter.build();
  EXPECT_TRUE(validate_bench_report(report).empty())
      << validate_bench_report(report).front();
  EXPECT_EQ(report.find("schema")->as_string(), kBenchSchema);
  EXPECT_EQ(report.find("seed")->as_uint(), 12345u);
  const JsonValue* build = report.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->find("telemetry"), nullptr);  // One build flavour.
}

TEST(Reporter, ValidatorRejectsNonReports) {
  EXPECT_FALSE(validate_bench_report(JsonValue::object()).empty());
  JsonValue wrong_schema = JsonReporter("x").build();
  wrong_schema.set("schema", JsonValue("not-a-bench-report"));
  EXPECT_FALSE(validate_bench_report(wrong_schema).empty());
}

TEST(Reporter, WrittenFileParsesAndValidates) {
  const std::string path = testing::TempDir() + "/BENCH_unit.json";
  JsonReporter reporter("unit_file");
  reporter.set_seed(7);
  MetricsRegistry registry;
  registry.counter("outcomes.total").increment(3);
  reporter.set_metrics(registry.snapshot());
  ASSERT_TRUE(reporter.write_file(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(validate_bench_report(*parsed).empty());
  const JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("outcomes.total")->as_uint(), 3u);
}

// ---------------------------------------------------------------------------
// Phase probes and pool counters

TEST(PhaseStats, ScopedTimerRecordsOnlyWithSink) {
  telemetry::PhaseStats stats;
  {  // No sink installed: nothing recorded.
    const telemetry::ScopedTimer timer(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 0u);

  {
    const telemetry::ObserverScope observe({.phases = &stats});
    const telemetry::ScopedTimer timer(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 1u);
  {  // Uninstalled again: back to silent.
    const telemetry::ScopedTimer timer(telemetry::Phase::kRoundStep);
  }
  EXPECT_EQ(stats.count(telemetry::Phase::kRoundStep), 1u);
}

TEST(ObserverScope, InnerScopeOverridesOnlyItsFieldsAndRestoresOuter) {
  telemetry::PhaseStats outer_phases, inner_phases;
  telemetry::TraceRecorder trace;
  profile::PmuPhaseStats pmu;
  const telemetry::ObserverSet outer{.phases = &outer_phases, .trace = &trace};
  {
    const telemetry::ObserverScope outer_scope(outer);
    {
      const telemetry::ObserverScope inner(
          {.phases = &inner_phases, .pmu = &pmu});
      EXPECT_TRUE((telemetry::observers.load() ==
                   telemetry::ObserverSet{
                       .phases = &inner_phases, .trace = &trace, .pmu = &pmu}));
    }
    EXPECT_TRUE(telemetry::observers.load() == outer);
  }
  EXPECT_TRUE(telemetry::observers.load() == telemetry::ObserverSet{});
}

TEST(PoolTelemetry, CountsItemsAndGenerationsExactly) {
  WorkerPool& pool = WorkerPool::shared();
  pool.reset_telemetry();
  constexpr int kItems = 64;
  std::atomic<int> executed{0};
  parallel_for(
      kItems, [&](int) { executed.fetch_add(1, std::memory_order_relaxed); },
      /*max_threads=*/4);
  ASSERT_EQ(executed.load(), kItems);
  const WorkerPoolTelemetry t = pool.telemetry();
  EXPECT_EQ(t.generations, 1u);
  EXPECT_EQ(t.items, static_cast<std::uint64_t>(kItems));
  EXPECT_GT(t.dispatch_ns, 0u);
  std::uint64_t worker_items = 0, worker_generations = 0;
  for (const auto& w : t.workers) {
    worker_items += w.items;
    worker_generations += w.generations;
  }
  EXPECT_EQ(worker_items, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(worker_generations, 4u);  // 4 participants, 1 generation.
  const double u = t.utilization();
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.5);  // Clock granularity slack.
}

// ---------------------------------------------------------------------------
// The determinism guarantee: telemetry on/off cannot change a run

// FNV-1a over the SEMANTIC payload of a run (reason, rounds/activations,
// final configuration, recovery segments) — deliberately excluding the
// RunTelemetry sidecar, which is measurement, not result.
class Digest {
 public:
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void fold_config(const Configuration& config) {
    fold(config.n);
    fold(config.ones);
    fold(static_cast<std::uint64_t>(to_int(config.correct)));
    fold(config.sources);
  }
  void fold_recoveries(const std::vector<RecoverySegment>& recoveries) {
    fold(recoveries.size());
    for (const RecoverySegment& seg : recoveries) {
      fold(seg.flip_round);
      fold(seg.recovered_round);
      fold(seg.recovered ? 1 : 0);
    }
  }
  void fold_result(const RunResult& result) {
    fold(static_cast<std::uint64_t>(result.reason));
    // ticks equals the old per-engine fold (rounds for parallel engines,
    // activations for sequential ones), so the golden digest is unchanged.
    fold(result.ticks);
    fold_config(result.final_config);
    fold_recoveries(result.recoveries);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// One fixed workload per engine (plus faulty variants covering the fault
// probes), all from the same master seed.
std::uint64_t all_engines_digest() {
  const MinorityDynamics minority(3);
  const VoterDynamics voter;
  StopRule rule;
  rule.max_rounds = 300;
  const Configuration init = init_half(2048, Opinion::kOne);
  EnvironmentModel faults;
  faults.observation_noise = 0.02;
  faults.churn_rate = 0.01;
  faults.zealot_fraction = 0.05;
  faults.source_flip_rounds = {60};
  faults.convergence_quorum = 0.9;

  Digest digest;
  {
    const AggregateParallelEngine engine(voter);
    Rng rng(101);
    digest.fold_result(engine.run(init, rule, rng));
    Rng faulty_rng(102);
    digest.fold_result(engine.run(init, rule, faults, faulty_rng));
  }
  {
    const UndecidedStateDynamics usd;
    const ShardedAgentEngine engine(usd, {.threads = 3});
    digest.fold_result(engine.run(init, rule, 103));
    digest.fold_result(engine.run(init, rule, faults, 104));
  }
  {
    const ShardedAgentEngine engine(minority, {.threads = 3});
    digest.fold_result(engine.run(init, rule, 105));
    digest.fold_result(engine.run(init, rule, faults, 106));
  }
  {
    const SequentialEngine engine(minority);
    StopRule short_rule;
    short_rule.max_rounds = 40;  // Sequential rounds cost n activations.
    const Configuration small = init_half(256, Opinion::kOne);
    Rng rng(107);
    digest.fold_result(engine.run(small, short_rule, rng));
    Rng faulty_rng(108);
    digest.fold_result(engine.run(small, short_rule, faults, faulty_rng));
  }
  return digest.value();
}

TEST(TelemetryDeterminism, RuntimeSinkDoesNotPerturbAnyEngine) {
  const std::uint64_t without_sink = all_engines_digest();
  telemetry::PhaseStats stats;
  const telemetry::ObserverScope observe({.phases = &stats});
  EXPECT_EQ(without_sink, all_engines_digest());
}

// The golden pin: asserted here with no observer set (the probe-free loop)
// and by FlightRecorderDoesNotPerturbAnyEngine with every observer set (the
// probed loop), so the probe gate provably cannot perturb a simulation. If
// an intentional engine change shifts the value, update it from the test's
// failure output — both tests must agree on it.
constexpr std::uint64_t kGoldenAllEnginesDigest = 14517512152819606537ull;

TEST(TelemetryDeterminism, GoldenPayloadDigestMatchesAcrossBuilds) {
  EXPECT_EQ(all_engines_digest(), kGoldenAllEnginesDigest)
      << "run payloads changed — update kGoldenAllEnginesDigest (probed and "
         "probe-free runs must both match it)";
}

// The flight recorder rides the same guarantee: with a TraceRecorder, a
// RoundStream and every other observer set, every engine still produces the
// golden payload — recording reads clocks and counters and writes ring
// slots, never an RNG stream.
TEST(TelemetryDeterminism, FlightRecorderDoesNotPerturbAnyEngine) {
  telemetry::TraceRecorder recorder;
  telemetry::RoundStream stream(testing::TempDir() + "/digest_rounds.jsonl");
  ASSERT_TRUE(stream.ok());
  telemetry::PhaseStats phases;
  profile::PmuPhaseStats pmu;
  obs::ProgressBoard board;
  const telemetry::ObserverScope observe({.phases = &phases, .trace = &recorder,
                                          .rounds = &stream, .pmu = &pmu,
                                          .progress = &board});
  EXPECT_EQ(all_engines_digest(), kGoldenAllEnginesDigest)
      << "flight recorder perturbed a run payload";
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_GT(stream.lines(), 0u);
  EXPECT_GT(pmu.samples(telemetry::Phase::kRoundStep), 0u);
  EXPECT_GT(board.runs_finished(), 0u);
}

TEST(TelemetryDeterminism, RunTelemetryRecordedMatchesBuildFlavor) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  StopRule rule;
  rule.max_rounds = 100;
  Rng rng(9);
  const RunResult result = engine.run(init_half(512, Opinion::kOne), rule, rng);
  EXPECT_EQ(result.telemetry.rounds, result.rounds());
  EXPECT_GT(result.telemetry.samples_drawn, 0u);
  EXPECT_GT(result.telemetry.wall_seconds, 0.0);
}

}  // namespace
}  // namespace bitspread
