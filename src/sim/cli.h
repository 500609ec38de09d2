// Shared command-line handling for the bench/experiment binaries.
//
// Every bench accepts:
//   --quick          smaller grids / fewer replicates (also BITSPREAD_QUICK=1)
//   --seed=<u64>     master seed (also BITSPREAD_SEED)
//   --reps=<int>     replicate override
//   --json=<path>    override the destination of the unified JSON report
//
// Flight-recorder flags (benches and examples):
//   --trace-out=<path>     write a Chrome trace-event JSON timeline on exit
//   --stream-out=<path>    write a per-round JSONL stream (X_t, drift,
//                          per-phase nanoseconds)
//   --trace-buffer=<n>     ring capacity per recording thread (events)
//   --stream-stride=<n>    emit every n-th round to the stream
//
// Profiling flags (benches and examples; DESIGN.md §3.8):
//   --pmu-out=<path>       write per-phase hardware-counter totals (cycles,
//                          instructions, LLC/branch misses, IPC) as JSON;
//                          on no-PMU hosts the report carries
//                          pmu_available:false
//   --profile-out=<path>   run the SIGPROF sampling profiler and write
//                          folded stacks (flamegraph.pl / speedscope input);
//                          off unless requested
//   --profile-hz=<n>       sampling rate in CPU-time Hz (default 97)
//
// Checkpoint/resume flags (benches and examples; independent of telemetry):
//   --checkpoint-out=<base>  snapshot ring base path (<base>.<slot>.snap)
//   --checkpoint-every=<k>   snapshot every k parallel rounds (default 0:
//                            only on SIGINT/SIGTERM)
//   --checkpoint-ring=<r>    retained ring entries (default 2)
//   --resume=auto|<path>     resume from the newest valid ring entry (auto,
//                            with corrupt-entry fallback) or one exact file
//
// Introspection flag (benches and examples; DESIGN.md §3.9):
//   --listen=<addr:port>   start the in-process HTTP exporter serving
//                          /metrics (Prometheus), /healthz, /progress
//                          (JSON), and /stream (live per-round JSONL);
//                          port 0 binds an ephemeral port, reported on
//                          stderr as "[obs] listening on http://..."
//
// Example binaries additionally accept (parse_example_options):
//   --metrics-out <path>   dump the global metrics registry as JSON on exit
//   --trace                print a per-phase timing table on exit
//
// The former --csv=<path> table mirror (deprecated in the telemetry PR) has
// been removed; the unified JSON report carries the tables.
#ifndef BITSPREAD_SIM_CLI_H_
#define BITSPREAD_SIM_CLI_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "profile/counters.h"
#include "profile/sampling.h"
#include "sim/table.h"
#include "snapshot/checkpoint.h"
#include "telemetry/jsonl.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace bitspread {

struct ConvergenceMeasurement;
struct RunResult;

namespace obs {
class IntrospectionServer;
class StreamHub;
}  // namespace obs

// Flight-recorder and checkpoint flags shared by bench and example binaries.
struct FlightRecorderOptions {
  std::optional<std::string> trace_out;
  std::optional<std::string> stream_out;
  std::size_t trace_buffer = std::size_t{1} << 15;
  std::uint64_t stream_stride = 1;
  // Checkpoint/resume (snapshot/checkpoint.h): ring base path, cadence in
  // parallel rounds (0 = only on interrupt), retained entries, and the
  // resume source ("auto" or an explicit snapshot file).
  std::optional<std::string> checkpoint_out;
  std::uint64_t checkpoint_every = 0;
  std::uint32_t checkpoint_ring = 2;
  std::optional<std::string> resume;
  // Profiling (--pmu-out= / --profile-out= / --profile-hz=). 97 Hz default:
  // prime, so sampling does not alias round-period work.
  std::optional<std::string> pmu_out;
  std::optional<std::string> profile_out;
  int profile_hz = 97;
  // Introspection server (--listen=<addr:port>; obs/server.h). /metrics
  // phase rows additionally need a phase sink (--trace or bench_profile's).
  std::optional<std::string> listen;

  bool requested() const noexcept {
    return trace_out.has_value() || stream_out.has_value();
  }
  bool listen_requested() const noexcept { return listen.has_value(); }
  bool checkpoint_requested() const noexcept {
    return checkpoint_out.has_value() || resume.has_value();
  }
  bool profiling_requested() const noexcept {
    return pmu_out.has_value() || profile_out.has_value();
  }
  // Consumes the flag if it matches one of the recorder/checkpoint options.
  bool parse_flag(const std::string& arg);
};

class FlightRecorderScope;

struct BenchOptions {
  bool quick = false;
  std::uint64_t seed = 0;
  std::optional<int> replicates;
  std::optional<std::string> json_path;
  FlightRecorderOptions recorder;
  // Makes `recorder` take effect for as long as the options live (a bench's
  // whole main), so no bench can leave the flags unhonoured.
  std::unique_ptr<FlightRecorderScope> flight_recorder;

  int reps_or(int dflt) const noexcept { return replicates.value_or(dflt); }
};

// Parses the flags and opens the flight-recorder scope they ask for.
BenchOptions parse_bench_options(int argc, char** argv);

// Prints the table to stdout. (The BenchOptions parameter is kept so call
// sites read uniformly; the former CSV mirror is gone.)
void emit_table(const Table& table, const BenchOptions& options);

// Standard experiment banner.
void print_banner(const std::string& experiment_id, const std::string& title,
                  const BenchOptions& options);

// Accumulates run outcomes across an experiment so binaries report
// right-censoring EXPLICITLY (a silently truncated mean understates the
// truth) and can exit nonzero when nothing converged — which lets CI and
// scripts catch a stalled configuration instead of reading a green exit
// code off a table of censored rows.
//
// The counts live in a MetricsRegistry (counters "outcomes.total",
// "outcomes.converged", "outcomes.censored", "outcomes.degraded",
// "outcomes.wrong"), so a bench that shares its registry gets the ledger's
// tallies in its metrics snapshot for free. The default constructor owns a
// private registry; pass one to share. `degraded` follows the
// ConvergenceMeasurement convention: also counted inside `censored`.
class OutcomeLedger {
 public:
  OutcomeLedger();
  explicit OutcomeLedger(MetricsRegistry* registry);

  void add(const ConvergenceMeasurement& measurement);
  void add_run(const RunResult& result);

  int total() const { return read(total_); }
  int converged() const { return read(converged_); }
  int censored() const { return read(censored_); }
  int degraded() const { return read(degraded_); }
  int wrong() const { return read(wrong_); }

  // One-line summary, e.g.
  //   outcomes: 37/60 converged, 20 censored (3 degraded), 3 wrong outcome
  void report(std::ostream& out) const;

  // 0 if at least one run converged, 1 otherwise (EXIT_FAILURE semantics).
  int exit_status() const { return converged() > 0 ? 0 : 1; }

 private:
  static int read(const MetricsRegistry::Counter& counter) {
    return static_cast<int>(counter.value());
  }

  std::unique_ptr<MetricsRegistry> owned_;  // Null when sharing.
  MetricsRegistry::Counter total_;
  MetricsRegistry::Counter converged_;
  MetricsRegistry::Counter censored_;
  MetricsRegistry::Counter degraded_;
  MetricsRegistry::Counter wrong_;
};

struct ExampleOptions {
  std::optional<std::string> metrics_out;
  bool trace = false;
  FlightRecorderOptions recorder;
};

ExampleOptions parse_example_options(int argc, char** argv);

// RAII scope for the recorder flags: one ObserverScope sets the trace
// recorder, round stream, PMU sink and --listen board/hub the options ask
// for. The destructor stops the server, restores the observer set, writes
// the Chrome trace file, flushes the stream, and reports what was written
// (with the dropped-event count) on stderr. Construct before the run,
// destroy after — observer scopes must not race an engine.
//
// The scope also owns the checkpoint lifecycle (--checkpoint-out=/--resume=;
// independent of telemetry): the Checkpointer is created and a resume
// snapshot loaded BEFORE the stream opens, so a resumed run appends to its
// JSONL file (with restored line accounting) instead of truncating it. When
// any output or checkpointing is active, SIGINT/SIGTERM handlers are
// installed: the first signal makes every RunDriver stop at the next round
// boundary (writing a final snapshot when checkpointing), control unwinds,
// and this destructor flushes the stream and trace buffers — graceful
// shutdown never loses buffered rounds.
class FlightRecorderScope {
 public:
  explicit FlightRecorderScope(FlightRecorderOptions options);
  ~FlightRecorderScope();

  FlightRecorderScope(const FlightRecorderScope&) = delete;
  FlightRecorderScope& operator=(const FlightRecorderScope&) = delete;

  // Forwards a drift model x ↦ F_n(x) to the JSONL stream (no-op without
  // one). Call before the instrumented run.
  void set_bias(std::function<double(double)> bias);

  // The active recorder, or nullptr when none was requested/installed.
  telemetry::TraceRecorder* recorder() noexcept { return recorder_.get(); }
  // The active checkpointer, or nullptr when checkpointing is off.
  snapshot::Checkpointer* checkpointer() noexcept {
    return checkpointer_.get();
  }

  // True while the SIGPROF sampling profiler is running (--profile-out=).
  // Benches record this in their reports so `bench_history.py compare` can
  // reject overhead measurements taken with sampling interrupts firing.
  bool sampling_active() const noexcept {
    return profiler_ != nullptr && profiler_->running();
  }

  // True while the introspection server (--listen=) is up. Benches stamp
  // this as `exporter_active` (mirroring sampling_active) so
  // bench_history.py never gates throughput rows taken with a live
  // exporter attached.
  bool exporter_active() const noexcept { return server_ != nullptr; }

 private:
  FlightRecorderOptions options_;
  std::unique_ptr<snapshot::Checkpointer> checkpointer_;
  std::unique_ptr<telemetry::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::RoundStream> stream_;
  // Profiling (--pmu-out= / --profile-out=): the PMU sink lives here so the
  // destructor can render it once the observer set is restored; the
  // sampling profiler is started last and stopped first.
  profile::PmuPhaseStats pmu_stats_;
  std::unique_ptr<profile::SamplingProfiler> profiler_;
  // Introspection (--listen=): the progress board RunDrivers publish into,
  // the hub that tees the round stream to /stream subscribers, and the
  // HTTP server itself. The server only reads; it is stopped FIRST in the
  // destructor, before the observer set is restored. No phase sink is set
  // for --listen alone — /metrics carries phase rows exactly when the
  // binary opted into probes itself (--trace, bench_profile) — because an
  // always-on sink would activate per-round and per-word clock reads that
  // cost far more than the 5% exporter budget on fast engines.
  std::unique_ptr<obs::ProgressBoard> progress_board_;
  std::unique_ptr<obs::StreamHub> stream_hub_;
  std::unique_ptr<obs::IntrospectionServer> server_;
  std::optional<telemetry::ObserverScope> observers_;  // All of the above.
};

// RAII scope for an example binary's telemetry flags: --trace sets a
// PhaseStats sink for the scope's lifetime and prints the per-phase table on
// destruction; --metrics-out dumps the global registry as JSON; the
// flight-recorder flags (--trace-out= etc.) are handled by an embedded
// FlightRecorderScope.
class ExampleTelemetryScope {
 public:
  explicit ExampleTelemetryScope(ExampleOptions options);
  ~ExampleTelemetryScope();

  ExampleTelemetryScope(const ExampleTelemetryScope&) = delete;
  ExampleTelemetryScope& operator=(const ExampleTelemetryScope&) = delete;

 private:
  ExampleOptions options_;
  telemetry::PhaseStats stats_;
  FlightRecorderScope flight_recorder_;
  telemetry::ObserverScope observers_;  // Nests in flight_recorder_'s.
};

}  // namespace bitspread

#endif  // BITSPREAD_SIM_CLI_H_
