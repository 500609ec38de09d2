// The observer set (phase sink, flight recorder, round sink, PMU sink,
// progress board), the scope that installs it, and the one RAII probe.
//
// One gate keeps the measurement layer out of the measured system, and it
// is decided at run time, once per run: RunDriver (engine/run_loop.h) reads
// the observer set at run start. If no probe sink is set, it runs the
// probe-free instantiation of its loop, where every driver-side probe is
// compiled out. Probes inside engine steps stay live in both
// instantiations; unsinked, each costs three inlined pointer loads and
// never reads the clock.
//
// The gate cannot perturb simulation results: telemetry reads clocks and
// bumps counters, and NEVER touches an RNG stream — the probed and the
// probe-free runs must be bit-identical (tests/telemetry_test.cc pins the
// golden run payloads with and without observers installed).
#ifndef BITSPREAD_TELEMETRY_TELEMETRY_H_
#define BITSPREAD_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "profile/pmu.h"

namespace bitspread {

namespace profile {
class PmuPhaseStats;
}  // namespace profile
namespace obs {
class ProgressBoard;
}  // namespace obs

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

// Non-owning observer pointers: what an ObserverScope sets, and a snapshot
// of the process-wide set.
struct ObserverSet {
  PhaseStats* phases = nullptr;
  TraceRecorder* trace = nullptr;
  RoundSink* rounds = nullptr;
  profile::PmuPhaseStats* pmu = nullptr;
  obs::ProgressBoard* progress = nullptr;

  bool operator==(const ObserverSet&) const = default;

  // The progress board is not a probe: it watches probe-free runs too.
  bool probed() const noexcept {
    return phases != nullptr || trace != nullptr || rounds != nullptr ||
           pmu != nullptr;
  }
};

// The process-wide observer set, written only by ObserverScope. One atomic
// per field, not a published pointer to a scope's struct, so a scrape
// thread never reads the storage of a scope that has ended.
struct Observers {
  std::atomic<PhaseStats*> phases{nullptr};
  std::atomic<TraceRecorder*> trace{nullptr};
  std::atomic<RoundSink*> rounds{nullptr};
  std::atomic<profile::PmuPhaseStats*> pmu{nullptr};
  std::atomic<obs::ProgressBoard*> progress{nullptr};

  ObserverSet load() const noexcept {
    return {phases.load(std::memory_order_acquire),
            trace.load(std::memory_order_acquire),
            rounds.load(std::memory_order_acquire),
            pmu.load(std::memory_order_acquire),
            progress.load(std::memory_order_acquire)};
  }
};
inline Observers observers;

// `ObserverScope scope({.phases = &stats, .pmu = &pmu});` sets the non-null
// fields and restores the set it found on destruction, so scopes nest: an
// inner scope overrides only what it sets. The caller keeps every observer
// alive for the scope. Scopes must not race a running engine and must end
// in reverse order of construction. Defined in trace.cc: a change of
// `trace` invalidates the per-thread lane caches there.
class ObserverScope {
 public:
  explicit ObserverScope(const ObserverSet& set) noexcept;
  ~ObserverScope();
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

 private:
  ObserverSet previous_;
  bool sets_trace_;
};

// Per-round stream sink: engines report (round, X_t, n) once per completed
// parallel round through record_round(); an installed RoundSink receives the
// series (jsonl.h turns it into a JSONL stream interleaving X_t, drift, and
// per-phase nanoseconds). on_round() may be called concurrently when
// replicates run on the pool — implementations must be thread-safe. It must
// never touch an RNG stream.
class RoundSink {
 public:
  virtual ~RoundSink() = default;
  virtual void on_round(std::uint64_t round, std::uint64_t ones,
                        std::uint64_t n) = 0;
};

// Round marker: feeds an installed TraceRecorder (counter event "X_t") and
// an installed RoundSink; two pointer loads when neither is installed.
// Defined in trace.cc.
void record_round(std::uint64_t round, std::uint64_t ones,
                  std::uint64_t n) noexcept;
// Instant marker (e.g. "source_flip") on the calling thread's trace lane.
// `name` must be a string literal (stored by pointer, not copied).
void record_mark(const char* name) noexcept;

// The one RAII probe: records its lifetime under `phase` as nanoseconds in
// the phase sink, a span in the trace recorder and the calling thread's
// counter delta in the PMU sink, each only when that sink is set. With none
// set it never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase) noexcept
      : phases_(observers.phases.load(std::memory_order_acquire)),
        trace_(observers.trace.load(std::memory_order_acquire)),
        pmu_(observers.pmu.load(std::memory_order_acquire)),
        phase_(phase) {
    if (phases_ != nullptr || trace_ != nullptr || pmu_ != nullptr) start();
  }
  ~ScopedTimer() {
    if (phases_ != nullptr || trace_ != nullptr || pmu_ != nullptr) stop();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  // Out of line so unsinked probes on per-activation paths stay a branch.
  void start() noexcept;
  void stop() const noexcept;

  PhaseStats* phases_;
  TraceRecorder* trace_;
  profile::PmuPhaseStats* pmu_;
  Phase phase_;
  std::uint64_t start_ns_ = 0;
  // Engaged only under a PMU sink, so unsinked probes write no snapshot.
  std::optional<profile::CounterSnapshot> pmu_begin_;
};

}  // namespace telemetry
}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_TELEMETRY_H_
