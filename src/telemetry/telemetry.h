// The round-level phase sink, the flight-recorder hooks, and the RAII timer
// probe.
//
// One gate keeps the measurement layer out of the measured system, and it
// is decided at run time, once per run: RunDriver (engine/run_loop.h) checks
// at run start whether any probe sink is installed — a PhaseStats
// (install_phase_sink), a TraceRecorder, a RoundSink, or a PMU sink
// (profile/counters.h). If none is, it runs the probe-free instantiation of
// its loop, where every driver-side probe is `if constexpr`-eliminated.
// Probes inside engine steps stay live in both instantiations; unsinked,
// each costs two inlined pointer loads and never reads the clock.
//
// The gate cannot perturb simulation results: telemetry reads clocks and
// bumps counters, and NEVER touches an RNG stream — the probed and the
// probe-free runs must be bit-identical (tests/telemetry_test.cc pins the
// golden run payloads with and without sinks installed).
#ifndef BITSPREAD_TELEMETRY_TELEMETRY_H_
#define BITSPREAD_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace bitspread {
namespace telemetry {

// The instrumented phases of a simulation run. Every engine reports through
// the same vocabulary so bench reports are comparable across engines.
enum class Phase : int {
  kRoundStep = 0,  // One synchronous round (or n sequential activations).
  kSampleDraw,     // Observation sampling inside a round/block.
  kFaultApply,     // Fault-channel work: flips, churn, recovery bookkeeping.
  kStopCheck,      // Stop-rule / quorum evaluation.
  kPoolDispatch,   // WorkerPool fan-out latency (recorded by the pool).
  // Kernel sub-phases: the word-parallel step kernel (DESIGN.md §3.6) splits
  // each block step into gather (observation packing), fault (word-level
  // fault channels), decide (the boolean g-circuit), and commit (plane
  // writeback + popcount). Recorded by profile::KernelBlockProfiler; empty
  // in engines that run the legacy per-agent loop.
  kKernelGather,
  kKernelFault,
  kKernelDecide,
  kKernelCommit,
  kCount
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

// Short stable identifier ("round_step", ...) used in JSON reports.
const char* phase_name(Phase phase) noexcept;

inline std::uint64_t clock_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The runtime sink: per-phase nanosecond and event totals, safe for
// concurrent recording from pool workers (relaxed atomics; totals are read
// after the recorded region completes, which the pool's join ordering makes
// a happens-before).
class PhaseStats {
 public:
  void add(Phase phase, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    count_[i].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t total_ns(Phase phase) const noexcept {
    return ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t count(Phase phase) const noexcept {
    return count_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  double total_seconds(Phase phase) const noexcept {
    return static_cast<double>(total_ns(phase)) * 1e-9;
  }

  void reset() noexcept {
    for (auto& v : ns_) v.store(0, std::memory_order_relaxed);
    for (auto& v : count_) v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kPhaseCount> ns_{};
  std::array<std::atomic<std::uint64_t>, kPhaseCount> count_{};
};

class TraceRecorder;
class RoundSink;

namespace internal {
// The installed sinks. Read through the inline getters below (the probes
// sit on per-activation paths, where a call per load would be measurable);
// written only by the install_* functions.
inline std::atomic<PhaseStats*> g_phase_sink{nullptr};
inline std::atomic<TraceRecorder*> g_trace_recorder{nullptr};
inline std::atomic<RoundSink*> g_round_sink{nullptr};
}  // namespace internal

// Installs (or, with nullptr, removes) the process-wide probe sink. The
// caller owns the sink and must keep it alive until it is uninstalled.
// Installation must not race a running engine: RunDriver reads the sinks
// once at run start to pick its probed or probe-free loop.
void install_phase_sink(PhaseStats* sink) noexcept;

// The currently installed sink (nullptr when none).
inline PhaseStats* phase_sink() noexcept {
  return internal::g_phase_sink.load(std::memory_order_acquire);
}

// The flight recorder (trace.h): a per-thread bounded ring of timestamped
// span/counter/instant events, exported as Chrome trace-event JSON. An
// installed recorder is the only thing that makes the probes below emit
// events. The caller owns the recorder and must keep it alive (and
// quiescent: no engine running) until it is uninstalled.
void install_trace_recorder(TraceRecorder* recorder) noexcept;
inline TraceRecorder* trace_recorder() noexcept {
  return internal::g_trace_recorder.load(std::memory_order_acquire);
}

// Per-round stream sink: engines report (round, X_t, n) once per completed
// parallel round through record_round(); an installed RoundSink receives the
// series (jsonl.h turns it into a JSONL stream interleaving X_t, drift, and
// per-phase nanoseconds). Same ownership rules as the phase sink.
// on_round() may be called concurrently when replicates run on the pool —
// implementations must be thread-safe. It must never touch an RNG stream.
class RoundSink {
 public:
  virtual ~RoundSink() = default;
  virtual void on_round(std::uint64_t round, std::uint64_t ones,
                        std::uint64_t n) = 0;
};
void install_round_sink(RoundSink* sink) noexcept;
inline RoundSink* round_sink() noexcept {
  return internal::g_round_sink.load(std::memory_order_acquire);
}

// Round marker: feeds an installed TraceRecorder (counter event "X_t") and
// an installed RoundSink; two pointer loads when neither is installed.
// Defined in trace.cc.
void record_round(std::uint64_t round, std::uint64_t ones,
                  std::uint64_t n) noexcept;
// Instant marker (e.g. "source_flip") on the calling thread's trace lane.
// `name` must be a string literal (stored by pointer, not copied).
void record_mark(const char* name) noexcept;

// RAII probe: measures the lifetime of the object and adds it to the
// installed sink under `phase`; when a TraceRecorder is installed it also
// records the interval as a trace span. With neither installed it never
// reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase) noexcept
      : sink_(phase_sink()),
        traced_(trace_recorder() != nullptr),
        phase_(phase) {
    if (sink_ != nullptr || traced_) start_ns_ = clock_now_ns();
  }
  ~ScopedTimer() {
    if (sink_ != nullptr || traced_) record();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  // Out of line so unsinked probes on per-activation paths stay a branch.
  void record() const noexcept;

  PhaseStats* sink_;
  bool traced_;
  Phase phase_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace telemetry
}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_TELEMETRY_H_
