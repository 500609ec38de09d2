#include "telemetry/reporter.h"

#include <fstream>
#include <iostream>

#include "sim/parallel.h"
#include "sim/table.h"

namespace bitspread {
namespace {

JsonValue build_stamp() {
  JsonValue build = JsonValue::object();
#ifdef NDEBUG
  build.set("type", "release");
#else
  build.set("type", "debug");
#endif
#if defined(__clang_version__)
  build.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__VERSION__)
  build.set("compiler", std::string("gcc ") + __VERSION__);
#else
  build.set("compiler", "unknown");
#endif
  build.set("standard", static_cast<std::int64_t>(__cplusplus));
  return build;
}

}  // namespace

JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot) {
  JsonValue out = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.set(name, value);
  }
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : snapshot.histograms) {
    JsonValue h = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (const double b : hist.bounds) bounds.push_back(b);
    JsonValue counts = JsonValue::array();
    for (const std::uint64_t c : hist.counts) counts.push_back(c);
    h.set("bounds", std::move(bounds));
    h.set("counts", std::move(counts));
    h.set("count", hist.count);
    h.set("sum", hist.sum);
    histograms.set(name, std::move(h));
  }
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

JsonReporter::JsonReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void JsonReporter::set_experiment(std::string experiment_id) {
  experiment_id_ = std::move(experiment_id);
}

void JsonReporter::set_seed(std::uint64_t seed) { seed_ = seed; }

void JsonReporter::set_quick(bool quick) { quick_ = quick; }

void JsonReporter::set_workload(const std::string& key, JsonValue value) {
  workload_.set(key, std::move(value));
}

void JsonReporter::add_phase(const std::string& name, double seconds,
                             std::uint64_t count) {
  JsonValue phase = JsonValue::object();
  phase.set("name", name);
  phase.set("seconds", seconds);
  phase.set("count", count);
  phases_.push_back(std::move(phase));
}

void JsonReporter::add_phase_stats(const telemetry::PhaseStats& stats) {
  for (int i = 0; i < telemetry::kPhaseCount; ++i) {
    const auto phase = static_cast<telemetry::Phase>(i);
    if (stats.count(phase) == 0) continue;
    add_phase(telemetry::phase_name(phase), stats.total_seconds(phase),
              stats.count(phase));
  }
}

void JsonReporter::set_metrics(const MetricsRegistry::Snapshot& snapshot) {
  metrics_ = metrics_to_json(snapshot);
}

void JsonReporter::add_table(const std::string& title, const Table& table) {
  JsonValue t = JsonValue::object();
  t.set("title", title);
  JsonValue columns = JsonValue::array();
  for (const auto& header : table.headers()) columns.push_back(header);
  t.set("columns", std::move(columns));
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    JsonValue cells = JsonValue::array();
    for (const auto& cell : row) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  t.set("rows", std::move(rows));
  tables_.push_back(std::move(t));
}

void JsonReporter::set_extra(const std::string& key, JsonValue value) {
  extras_.set(key, std::move(value));
}

void JsonReporter::set_flight_recorder(
    const telemetry::TraceRecorder& recorder) {
  JsonValue fr = JsonValue::object();
  fr.set("capacity_per_lane", static_cast<std::uint64_t>(recorder.capacity()));
  fr.set("lanes", static_cast<std::uint64_t>(recorder.buffers()));
  fr.set("events_recorded", recorder.recorded());
  fr.set("events_stored", recorder.stored());
  fr.set("events_dropped", recorder.dropped());
  extras_.set("flight_recorder", std::move(fr));
}

JsonValue JsonReporter::build() const {
  JsonValue report = JsonValue::object();
  report.set("schema", kBenchSchema);
  report.set("bench", bench_name_);
  if (!experiment_id_.empty()) report.set("experiment", experiment_id_);
  report.set("seed", seed_);
  report.set("quick", quick_);
  report.set("build", build_stamp());
  // Affinity-aware: std::thread::hardware_concurrency() may return 0
  // ("unknown") or ignore container CPU limits, which used to stamp reports
  // from multi-core hosts as single-core and split the bench-history
  // provenance key. host_concurrency() resolves the usable-CPU count.
  report.set("hardware_concurrency",
             static_cast<std::uint64_t>(host_concurrency()));
  if (!workload_.members().empty()) {
    report.set("workload", workload_);
  }
  report.set("phases", phases_);
  if (metrics_.is_object()) report.set("metrics", metrics_);
  if (!tables_.items().empty()) report.set("tables", tables_);
  for (const auto& [key, value] : extras_.members()) {
    report.set(key, value);
  }
  return report;
}

bool JsonReporter::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write JSON report to " << path << "\n";
    return false;
  }
  out << build().dump();
  if (!out) {
    std::cerr << "error: short write on JSON report " << path << "\n";
    return false;
  }
  std::cerr << "JSON report written to " << path << "\n";
  return true;
}

std::vector<std::string> validate_bench_report(const JsonValue& report) {
  std::vector<std::string> errors;
  if (!report.is_object()) {
    errors.push_back("report is not a JSON object");
    return errors;
  }
  const auto require = [&](const char* key, auto&& check, const char* what) {
    const JsonValue* v = report.find(key);
    if (v == nullptr) {
      errors.push_back(std::string("missing field: ") + key);
    } else if (!check(*v)) {
      errors.push_back(std::string(key) + " is not " + what);
    }
  };
  require(
      "schema",
      [](const JsonValue& v) {
        return v.is_string() && v.as_string() == kBenchSchema;
      },
      kBenchSchema);
  require(
      "bench", [](const JsonValue& v) { return v.is_string(); }, "a string");
  require(
      "seed",
      [](const JsonValue& v) {
        return v.kind() == JsonValue::Kind::kUint ||
               v.kind() == JsonValue::Kind::kInt;
      },
      "an integer");
  require(
      "quick",
      [](const JsonValue& v) { return v.kind() == JsonValue::Kind::kBool; },
      "a bool");
  require(
      "hardware_concurrency",
      [](const JsonValue& v) { return v.is_number(); }, "a number");
  const JsonValue* build = report.find("build");
  if (build == nullptr || !build->is_object()) {
    errors.push_back("missing field: build");
  } else {
    for (const char* key : {"type", "compiler"}) {
      const JsonValue* v = build->find(key);
      if (v == nullptr || !v->is_string()) {
        errors.push_back(std::string("build.") + key + " is not a string");
      }
    }
  }
  const JsonValue* phases = report.find("phases");
  if (phases == nullptr || !phases->is_array()) {
    errors.push_back("missing field: phases");
  } else {
    for (std::size_t i = 0; i < phases->items().size(); ++i) {
      const JsonValue& phase = phases->items()[i];
      const bool ok = phase.is_object() && phase.find("name") != nullptr &&
                      phase.find("name")->is_string() &&
                      phase.find("seconds") != nullptr &&
                      phase.find("seconds")->is_number() &&
                      phase.find("count") != nullptr &&
                      phase.find("count")->is_number();
      if (!ok) {
        errors.push_back("phases[" + std::to_string(i) +
                         "] lacks name/seconds/count");
      }
    }
  }
  return errors;
}

}  // namespace bitspread
