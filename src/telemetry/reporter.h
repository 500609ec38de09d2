// JsonReporter: the unified machine-readable bench report.
//
// Every migrated bench emits one results/BENCH_<name>.json built through
// this class, so downstream tooling (CI overhead checks, perf-trajectory
// plots, paper-table regeneration) parses exactly one schema:
//
//   {
//     "schema": "bitspread-bench/1",
//     "bench": "<name>",
//     "experiment": "E2",            // optional
//     "seed": 42, "quick": false,
//     "build": { "type": ..., "compiler": ..., "standard": ... },
//     "hardware_concurrency": 16,
//     "workload": { ... },           // bench-defined knobs (optional)
//     "phases": [ {"name","seconds","count"}, ... ],
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {...} },   // optional
//     "tables": [ { "title", "columns", "rows" }, ... ],
//     ...bench-specific extras...
//   }
//
// validate_bench_report() is the single source of truth for what "valid"
// means; the schema test and CI both call it.
#ifndef BITSPREAD_TELEMETRY_REPORTER_H_
#define BITSPREAD_TELEMETRY_REPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {

class Table;

inline constexpr const char kBenchSchema[] = "bitspread-bench/1";

class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name);

  void set_experiment(std::string experiment_id);
  void set_seed(std::uint64_t seed);
  void set_quick(bool quick);

  // Bench-defined workload knobs, e.g. set_workload("n_max", 100000).
  void set_workload(const std::string& key, JsonValue value);

  // One wall-clock phase row; `count` is the number of timed events (1 for
  // a single timed region).
  void add_phase(const std::string& name, double seconds,
                 std::uint64_t count = 1);

  // Appends every recorded phase of a PhaseStats sink (skips empty phases).
  void add_phase_stats(const telemetry::PhaseStats& stats);

  // Embeds a metrics snapshot under "metrics".
  void set_metrics(const MetricsRegistry::Snapshot& snapshot);

  // Appends a console table under "tables" (columns + stringified rows),
  // preserving exactly what the human-readable output showed.
  void add_table(const std::string& title, const Table& table);

  // Bench-specific top-level extras (fit exponents, speedups, ...).
  void set_extra(const std::string& key, JsonValue value);

  // Embeds the flight recorder's capacity accounting under
  // "flight_recorder" (capacity, buffers, events recorded/stored/dropped),
  // so a report carries the provenance of any trace artifact written
  // alongside it.
  void set_flight_recorder(const telemetry::TraceRecorder& recorder);

  // Assembles the report (schema/build stamps included).
  JsonValue build() const;

  // Writes build().dump() to `path`; returns false (and reports on stderr)
  // on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string bench_name_;
  std::string experiment_id_;
  std::uint64_t seed_ = 0;
  bool quick_ = false;
  JsonValue workload_ = JsonValue::object();
  JsonValue phases_ = JsonValue::array();
  JsonValue metrics_;
  JsonValue tables_ = JsonValue::array();
  JsonValue extras_ = JsonValue::object();
};

// Returns the list of schema violations (empty = valid report).
std::vector<std::string> validate_bench_report(const JsonValue& report);

// Converts a metrics snapshot to its JSON form (also used by the examples'
// --metrics-out flag, without the bench wrapper).
JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot);

}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_REPORTER_H_
