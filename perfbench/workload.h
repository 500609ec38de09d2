// The benchmark's workloads. Each one owns its inputs (generated from the
// seed), runs fixed units of work ("passes") that end in verdicts, checks
// its outputs, and reports its end-to-end and per-layer metrics.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "trace.h"

namespace perfbench {

struct Settings {
  std::uint64_t seed = 1;
  unsigned threads = 1;  // min(usable CPUs, 4).
  bool smoke = false;    // Tiny sizes, for the self-tests.
  std::string out_dir;   // Reports and spans are written here.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Operations attempted and failed over a run. An operation is a replicate
// (escape_replicates) or a measured round (the sharded workloads).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // One line per failed check.

  void fail(std::string what, std::uint64_t operations) {
    failures.push_back(std::move(what));
    failed += operations;
  }
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps a computed value alive so batched replays are not optimized away.
void consume(std::uint64_t value) noexcept;

class Workload {
 public:
  explicit Workload(Settings settings) : settings_(std::move(settings)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  // One complete set-up: reference solves, graph, population, warm-up.
  // Untraced runs set up several times and measure the last one.
  virtual void setup(Tracer* tracer) = 0;
  // One fixed unit of work and its verdicts. `tracer` is non-null in traced
  // passes; the workload remembers which passes were traced.
  virtual void pass(Tracer* tracer) = 0;
  // Passes a traced run makes of this workload when another one is the
  // workload under test (enough for its per-layer metrics).
  virtual int probe_passes() const = 0;
  // The headline throughput over the traced or the untraced passes.
  virtual double headline(bool traced) const = 0;
  // End-to-end metrics over the untraced passes (setup_s and peak_rss_mib
  // are the driver's).
  virtual void end_to_end(Metrics& out) const = 0;
  // The per-layer metrics whose home is this workload; spans recorded at
  // index `from` or later belong to it.
  virtual void layer_metrics(const Tracer& tracer, std::size_t from,
                             Metrics& out) = 0;
  // Correctness over every pass so far.
  virtual void check(Outcome& outcome) const = 0;
  // Sizes and verdict details for the final report.
  virtual bitspread::JsonValue describe() const = 0;

  std::uint64_t last_report_bytes() const noexcept { return report_bytes_; }

 protected:
  // Writes one pass's verdict report (the telemetry JSON schema) to the
  // output directory, inside a "report" span.
  void write_pass_report(bitspread::JsonValue verdicts, Tracer* tracer,
                         std::uint64_t parent);

  Settings settings_;

 private:
  std::uint64_t report_bytes_ = 0;
};

std::unique_ptr<Workload> make_escape_replicates(const Settings& settings);
// "kernel_large", "graph_regular" or "dispatch_small".
std::unique_ptr<Workload> make_sharded(const std::string& name,
                                       const Settings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
