#include "sim/cli.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "engine/stopping.h"
#include "obs/progress.h"
#include "obs/server.h"
#include "sim/experiment.h"
#include "sim/seeds.h"
#include "telemetry/reporter.h"

namespace bitspread {

bool FlightRecorderOptions::parse_flag(const std::string& arg) {
  if (arg.rfind("--trace-out=", 0) == 0) {
    trace_out = arg.substr(12);
  } else if (arg.rfind("--stream-out=", 0) == 0) {
    stream_out = arg.substr(13);
  } else if (arg.rfind("--trace-buffer=", 0) == 0) {
    trace_buffer = static_cast<std::size_t>(
        std::strtoull(arg.c_str() + 15, nullptr, 0));
  } else if (arg.rfind("--stream-stride=", 0) == 0) {
    stream_stride = std::strtoull(arg.c_str() + 16, nullptr, 0);
  } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
    checkpoint_out = arg.substr(17);
  } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
    checkpoint_every = std::strtoull(arg.c_str() + 19, nullptr, 0);
  } else if (arg.rfind("--checkpoint-ring=", 0) == 0) {
    checkpoint_ring = static_cast<std::uint32_t>(
        std::strtoul(arg.c_str() + 18, nullptr, 0));
  } else if (arg.rfind("--resume=", 0) == 0) {
    resume = arg.substr(9);
  } else if (arg.rfind("--pmu-out=", 0) == 0) {
    pmu_out = arg.substr(10);
  } else if (arg.rfind("--profile-out=", 0) == 0) {
    profile_out = arg.substr(14);
  } else if (arg.rfind("--profile-hz=", 0) == 0) {
    profile_hz = std::atoi(arg.c_str() + 13);
  } else if (arg.rfind("--listen=", 0) == 0) {
    listen = arg.substr(9);
  } else {
    return false;
  }
  return true;
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  options.seed = master_seed_from_env();
  const char* quick_env = std::getenv("BITSPREAD_QUICK");
  if (quick_env != nullptr && std::strcmp(quick_env, "0") != 0) {
    options.quick = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
    } else if (arg.rfind("--reps=", 0) == 0) {
      options.replicates = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (options.recorder.parse_flag(arg)) {
      // Consumed by the flight recorder.
    } else if (arg.rfind("--csv=", 0) == 0) {
      std::cerr << "warning: --csv= has been removed; the unified --json "
                   "report carries the tables\n";
    } else {
      std::cerr << "warning: unknown option '" << arg << "' ignored\n";
    }
  }
  options.flight_recorder =
      std::make_unique<FlightRecorderScope>(options.recorder);
  return options;
}

void emit_table(const Table& table, const BenchOptions& options) {
  (void)options;
  table.print(std::cout);
}

void print_banner(const std::string& experiment_id, const std::string& title,
                  const BenchOptions& options) {
  std::cout << "=== " << experiment_id << ": " << title << " ===\n"
            << "seed=" << options.seed
            << (options.quick ? " (quick mode)" : "") << "\n\n";
}

namespace {

// Ledger counter names: stable registry keys, shared with the JSON schema.
constexpr const char kTotal[] = "outcomes.total";
constexpr const char kConverged[] = "outcomes.converged";
constexpr const char kCensored[] = "outcomes.censored";
constexpr const char kDegraded[] = "outcomes.degraded";
constexpr const char kWrong[] = "outcomes.wrong";

}  // namespace

OutcomeLedger::OutcomeLedger()
    : owned_(std::make_unique<MetricsRegistry>()),
      total_(owned_->counter(kTotal)),
      converged_(owned_->counter(kConverged)),
      censored_(owned_->counter(kCensored)),
      degraded_(owned_->counter(kDegraded)),
      wrong_(owned_->counter(kWrong)) {}

OutcomeLedger::OutcomeLedger(MetricsRegistry* registry)
    : total_(registry->counter(kTotal)),
      converged_(registry->counter(kConverged)),
      censored_(registry->counter(kCensored)),
      degraded_(registry->counter(kDegraded)),
      wrong_(registry->counter(kWrong)) {}

void OutcomeLedger::add(const ConvergenceMeasurement& measurement) {
  total_.increment(static_cast<std::uint64_t>(measurement.replicates));
  converged_.increment(static_cast<std::uint64_t>(measurement.converged));
  censored_.increment(static_cast<std::uint64_t>(measurement.censored));
  degraded_.increment(static_cast<std::uint64_t>(measurement.degraded));
  wrong_.increment(static_cast<std::uint64_t>(measurement.wrong_outcome));
}

void OutcomeLedger::add_run(const RunResult& result) {
  total_.increment();
  if (result.converged()) {
    converged_.increment();
  } else if (result.censored()) {
    censored_.increment();
    if (result.degraded()) degraded_.increment();
  } else {
    wrong_.increment();
  }
}

void OutcomeLedger::report(std::ostream& out) const {
  out << "outcomes: " << converged() << "/" << total() << " converged";
  if (censored() > 0) {
    out << ", " << censored() << " censored (round cap)";
    if (degraded() > 0) out << " (" << degraded() << " degraded)";
  }
  if (wrong() > 0) out << ", " << wrong() << " wrong outcome";
  out << "\n";
}

ExampleOptions parse_example_options(int argc, char** argv) {
  ExampleOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      options.metrics_out = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (options.recorder.parse_flag(arg)) {
      // Consumed by the flight recorder.
    } else if (arg.rfind("--", 0) == 0) {
      // Positional arguments stay the example's business.
      std::cerr << "warning: unknown option '" << arg << "' ignored\n";
    }
  }
  return options;
}

FlightRecorderScope::FlightRecorderScope(FlightRecorderOptions options)
    : options_(std::move(options)) {
  // Checkpointer first (independent of telemetry): a loaded resume decides
  // how the JSONL stream opens below.
  if (options_.checkpoint_requested()) {
    snapshot::CheckpointOptions checkpoint_options;
    checkpoint_options.path = options_.checkpoint_out.value_or("checkpoint");
    checkpoint_options.every = options_.checkpoint_every;
    checkpoint_options.ring = options_.checkpoint_ring;
    checkpointer_ =
        std::make_unique<snapshot::Checkpointer>(checkpoint_options);
    if (options_.resume && !checkpointer_->load_resume(*options_.resume)) {
      std::cerr << "[resume: " << checkpointer_->last_error()
                << "; starting fresh]\n";
    }
    checkpointer_->set_decorator([this](snapshot::RunSnapshot& snap) {
      if (stream_ != nullptr) {
        snap.stream_rounds_seen = stream_->rounds_seen();
        snap.stream_lines = stream_->lines();
      }
    });
    snapshot::install_checkpointer(checkpointer_.get());
  }
  // Graceful SIGINT/SIGTERM whenever any output could be lost: drivers stop
  // at the next round boundary and this scope's destructor flushes. A
  // --listen run joins in so its server shuts down cleanly on SIGTERM (the
  // CI introspection job scrapes a long run, then terminates it).
  if (options_.requested() || options_.profiling_requested() ||
      options_.listen_requested() || checkpointer_ != nullptr) {
    snapshot::install_interrupt_handlers();
  }
  // Introspection server (--listen=). The board is set before any run
  // starts so every RunDriver claims a progress slot; the hub feeds /stream
  // from the round sink.
  if (options_.listen_requested()) {
    progress_board_ = std::make_unique<obs::ProgressBoard>();
    stream_hub_ = std::make_unique<obs::StreamHub>();
    obs::ServerOptions server_options;
    server_options.listen = *options_.listen;
    server_options.hub = stream_hub_.get();
    server_ = std::make_unique<obs::IntrospectionServer>(server_options);
    if (!server_->ok()) {
      std::cerr << "[obs] " << server_->error() << "; exporter disabled\n";
      server_.reset();
      stream_hub_.reset();
      progress_board_.reset();
    }
  }
  if (options_.pmu_out) {
    // Touching the main thread's counter set here (not in the destructor)
    // surfaces a perf_event_open failure before the run, not after it.
    profile::thread_counters();
  }
  if (options_.profile_out) {
    // Sampling needs no installed sink and no PMU — SIGPROF + frame
    // pointers only. Started last so profiler samples cover the run, not
    // this scope's setup.
    profiler_ = std::make_unique<profile::SamplingProfiler>();
    if (!profiler_->start(options_.profile_hz)) {
      std::cerr << "note: sampling profiler not started: " << profiler_->why()
                << "\n";
      profiler_.reset();
    }
  }
  // Deliberately NO exporter-owned phase sink: an installed PhaseStats
  // activates every ScopedTimer and the per-word kernel sub-phase markers,
  // and on engines whose rounds are O(1) (aggregate: ~200ns/round) the
  // clock reads alone cost >30% — far past the 5% exporter budget
  // (DESIGN.md §3.9). /metrics carries phase rows exactly when the binary
  // opted into probes itself (an example's --trace, bench_profile's sink);
  // a bare --listen run reports phases_present=false instead of silently
  // slowing the simulation it is watching.
  if (options_.trace_out) {
    telemetry::TraceRecorder::Options trace_options;
    trace_options.capacity = options_.trace_buffer;
    recorder_ = std::make_unique<telemetry::TraceRecorder>(trace_options);
  }
  if (options_.stream_out) {
    telemetry::RoundStream::Options stream_options;
    stream_options.stride = options_.stream_stride;
    // A resumed run appends to the stream of the interrupted one, with the
    // counters seeded from the snapshot so accounting spans both segments.
    const snapshot::RunSnapshot* resume_snap =
        checkpointer_ != nullptr ? checkpointer_->pending_resume() : nullptr;
    stream_options.append = resume_snap != nullptr;
    stream_ = std::make_unique<telemetry::RoundStream>(*options_.stream_out,
                                                       stream_options);
    if (!stream_->ok()) {
      std::cerr << "[failed to open stream " << *options_.stream_out << "]\n";
      stream_.reset();
    } else if (resume_snap != nullptr) {
      stream_->restore_counts(resume_snap->stream_rounds_seen,
                              resume_snap->stream_lines);
    }
  }
  // One round sink: the hub (teeing to the file stream AND /stream
  // subscribers) when the server is up, the file stream alone otherwise.
  telemetry::RoundSink* rounds = stream_.get();
  if (stream_hub_ != nullptr) {
    stream_hub_->set_inner(stream_.get());
    rounds = stream_hub_.get();
  }
  observers_.emplace(telemetry::ObserverSet{
      .trace = recorder_.get(),
      .rounds = rounds,
      .pmu = options_.pmu_out ? &pmu_stats_ : nullptr,
      .progress = progress_board_.get()});
}

void FlightRecorderScope::set_bias(std::function<double(double)> bias) {
  if (stream_ != nullptr) stream_->set_bias(std::move(bias));
}

FlightRecorderScope::~FlightRecorderScope() {
  // The server goes down FIRST so no scrape races the observer teardown,
  // then every observer is restored at once, before any file is written.
  if (server_ != nullptr) {
    std::cerr << "[obs] exporter on http://" << server_->address() << ":"
              << server_->port() << " served " << server_->scrapes()
              << " scrape(s)]\n";
    server_.reset();
  }
  observers_.reset();
  if (profiler_ != nullptr) {
    profiler_->stop();
    if (profiler_->write_folded(*options_.profile_out)) {
      std::cerr << "[profile written to " << *options_.profile_out << ": "
                << profiler_->samples_taken() << " samples";
      if (profiler_->samples_dropped() > 0) {
        std::cerr << ", " << profiler_->samples_dropped()
                  << " dropped (buffer full)";
      }
      std::cerr << "]\n";
    }
  }
  if (options_.pmu_out) {
    const profile::PmuCounterSet& set = profile::thread_counters();
    std::ofstream out(*options_.pmu_out);
    if (out) {
      out << profile::pmu_stats_to_json(pmu_stats_, set.available(),
                                        set.unavailable_reason())
                 .dump();
      std::cerr << "[pmu counters written to " << *options_.pmu_out
                << (set.available() ? "" : " (no PMU: timing fallback)")
                << "]\n";
    } else {
      std::cerr << "[failed to write pmu counters to " << *options_.pmu_out
                << "]\n";
    }
  }
  if (recorder_ != nullptr) {
    if (recorder_->write_chrome_trace(*options_.trace_out)) {
      std::cerr << "[trace written to " << *options_.trace_out << ": "
                << recorder_->stored() << " events across "
                << recorder_->buffers() << " lanes";
      if (recorder_->dropped() > 0) {
        std::cerr << ", " << recorder_->dropped()
                  << " oldest dropped (raise --trace-buffer=)";
      }
      std::cerr << "]\n";
    } else {
      std::cerr << "[failed to write trace to " << *options_.trace_out
                << "]\n";
    }
  }
  if (stream_ != nullptr) {
    if (stream_->flush()) {
      std::cerr << "[stream written to " << *options_.stream_out << ": "
                << stream_->lines() << " lines from " << stream_->rounds_seen()
                << " rounds]\n";
    } else {
      std::cerr << "[failed to write stream to " << *options_.stream_out
                << "]\n";
    }
  }
  if (checkpointer_ != nullptr) {
    snapshot::install_checkpointer(nullptr);
    if (checkpointer_->written() > 0) {
      std::cerr << "[checkpoints: " << checkpointer_->written()
                << " written to " << checkpointer_->options().path
                << ".<slot>.snap (ring of "
                << checkpointer_->options().ring << ")]\n";
    }
  }
}

ExampleTelemetryScope::ExampleTelemetryScope(ExampleOptions options)
    : options_(std::move(options)),
      flight_recorder_(options_.recorder),
      observers_({.phases = options_.trace ? &stats_ : nullptr}) {}

ExampleTelemetryScope::~ExampleTelemetryScope() {
  if (options_.trace) {
    std::cerr << "\nphase trace (engine-side, wall time):\n";
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto phase = static_cast<telemetry::Phase>(i);
      if (stats_.count(phase) == 0) continue;
      std::cerr << "  " << std::left << std::setw(14)
                << telemetry::phase_name(phase) << std::right << std::fixed
                << std::setprecision(6) << stats_.total_seconds(phase)
                << " s across " << stats_.count(phase) << " events\n";
    }
  }
  if (options_.metrics_out) {
    std::ofstream out(*options_.metrics_out);
    if (out) {
      out << metrics_to_json(MetricsRegistry::global().snapshot()).dump();
      std::cerr << "[metrics written to " << *options_.metrics_out << "]\n";
    } else {
      std::cerr << "[failed to write metrics to " << *options_.metrics_out
                << "]\n";
    }
  }
}

}  // namespace bitspread
