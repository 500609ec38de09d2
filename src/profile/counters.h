// Per-phase hardware-counter attribution: the PMU sink and the kernel
// sub-phase markers.
//
// This is the third sink beside PhaseStats (nanoseconds) and the
// TraceRecorder (timelines): a PmuPhaseStats accumulates multiplex-scaled
// counter deltas per telemetry::Phase — including the kernel sub-phases
// gather/decide/fault/commit — so a profiled run can report IPC and
// LLC-miss-per-agent-step for exactly the regions the wall-clock probes
// already name.
//
// It is the `pmu` field of the observer set (telemetry/telemetry.h) and
// obeys the same runtime gate: telemetry::ScopedTimer adds a counter delta
// per phase only while an ObserverScope sets a PmuPhaseStats, and an
// unsinked probe never issues a read(2). A set PMU sink is one of the sinks
// RunDriver checks once at run start to choose its probed loop; with no
// sink at all, a KernelBlockProfiler costs two pointer loads per block plus
// a predicted branch per marker.
//
// Attribution is per-thread by construction: every probe reads the calling
// thread's counter set (profile::thread_counters()), so kernel blocks
// running on pool workers attribute to the worker that executed them, and
// the totals (relaxed-atomic adds, read quiescently) aggregate across
// threads exactly like PhaseStats. Probes never touch an RNG stream —
// profiled runs are bit-identical to unprofiled ones (pinned by
// tests/profile_test.cc and the kernel golden digests).
#ifndef BITSPREAD_PROFILE_COUNTERS_H_
#define BITSPREAD_PROFILE_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "profile/pmu.h"
#include "telemetry/telemetry.h"

namespace bitspread {

class JsonValue;

namespace profile {

// Counter totals per phase. Safe for concurrent recording (relaxed atomics;
// totals are read after the recorded region completes, same join-ordering
// contract as telemetry::PhaseStats).
class PmuPhaseStats {
 public:
  void add(telemetry::Phase phase, const CounterDelta& delta) noexcept {
    const auto p = static_cast<std::size_t>(phase);
    for (int i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<std::size_t>(i);
      if (!delta.valid[c]) continue;
      value_[p][c].fetch_add(delta.value[c], std::memory_order_relaxed);
      counted_[p][c].store(true, std::memory_order_relaxed);
    }
    wall_ns_[p].fetch_add(delta.wall_ns, std::memory_order_relaxed);
    samples_[p].fetch_add(1, std::memory_order_relaxed);
    if (delta.multiplexed) {
      multiplexed_[p].store(true, std::memory_order_relaxed);
    }
    if (delta.pmu) pmu_backed_.store(true, std::memory_order_relaxed);
  }

  std::uint64_t total(telemetry::Phase phase, Counter counter) const noexcept {
    return value_[static_cast<std::size_t>(phase)]
                 [static_cast<std::size_t>(counter)]
                     .load(std::memory_order_relaxed);
  }
  bool counted(telemetry::Phase phase, Counter counter) const noexcept {
    return counted_[static_cast<std::size_t>(phase)]
                   [static_cast<std::size_t>(counter)]
                       .load(std::memory_order_relaxed);
  }
  std::uint64_t samples(telemetry::Phase phase) const noexcept {
    return samples_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t wall_ns(telemetry::Phase phase) const noexcept {
    return wall_ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  bool multiplexed(telemetry::Phase phase) const noexcept {
    return multiplexed_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  // True once any recorded delta came from hardware counters (rungs 1–2).
  bool pmu_backed() const noexcept {
    return pmu_backed_.load(std::memory_order_relaxed);
  }

  // Instructions per cycle for one phase; 0 when either side is uncounted.
  double ipc(telemetry::Phase phase) const noexcept {
    const std::uint64_t cycles = total(phase, Counter::kCycles);
    if (cycles == 0 || !counted(phase, Counter::kInstructions)) return 0.0;
    return static_cast<double>(total(phase, Counter::kInstructions)) /
           static_cast<double>(cycles);
  }

  void reset() noexcept {
    for (auto& phase : value_) {
      for (auto& v : phase) v.store(0, std::memory_order_relaxed);
    }
    for (auto& phase : counted_) {
      for (auto& v : phase) v.store(false, std::memory_order_relaxed);
    }
    for (auto& v : wall_ns_) v.store(0, std::memory_order_relaxed);
    for (auto& v : samples_) v.store(0, std::memory_order_relaxed);
    for (auto& v : multiplexed_) v.store(false, std::memory_order_relaxed);
    pmu_backed_.store(false, std::memory_order_relaxed);
  }

 private:
  template <typename T>
  using PerPhase = std::array<T, telemetry::kPhaseCount>;
  PerPhase<std::array<std::atomic<std::uint64_t>, kCounterCount>> value_{};
  PerPhase<std::array<std::atomic<bool>, kCounterCount>> counted_{};
  PerPhase<std::atomic<std::uint64_t>> wall_ns_{};
  PerPhase<std::atomic<std::uint64_t>> samples_{};
  PerPhase<std::atomic<bool>> multiplexed_{};
  std::atomic<bool> pmu_backed_{false};
};

// JSON rendering of a sink's totals (the --pmu-out= payload and the
// "profiles" rows of bench_profile): one row per phase with samples,
// wall seconds, each counted counter, derived IPC, and multiplex/fallback
// stamps. Phases with zero samples are skipped.
JsonValue pmu_stats_to_json(const PmuPhaseStats& stats, bool pmu_available,
                            const char* unavailable_reason);

// Sub-phase marker for the kernel hot loop. The sink pointers are resolved
// ONCE per block (the word loop calls enter() several times per 64-agent
// word, so per-call atomic loads would be the dominant cost); when neither
// the wall-clock nor the PMU sink is set every call is a predicted no-op
// branch. PMU reads happen only when the PMU sink is set;
// wall-clock nanoseconds also feed the plain phase sink so `phases` rows
// carry the sub-phase split even on no-PMU hosts.
class KernelBlockProfiler {
 public:
  KernelBlockProfiler() noexcept
      : pmu_(telemetry::observers.pmu.load(std::memory_order_acquire)),
        phases_(telemetry::observers.phases.load(std::memory_order_acquire)) {
    active_ = pmu_ != nullptr || phases_ != nullptr;
    if (active_) {
      if (pmu_ != nullptr) {
        set_ = &thread_counters();
        set_->read(last_);
      }
      last_ns_ = telemetry::clock_now_ns();
    }
  }
  ~KernelBlockProfiler() { leave(); }
  KernelBlockProfiler(const KernelBlockProfiler&) = delete;
  KernelBlockProfiler& operator=(const KernelBlockProfiler&) = delete;

  // Closes the open sub-phase (if any) and opens `phase`.
  void enter(telemetry::Phase phase) noexcept {
    if (!active_) return;
    mark(true, phase);
  }
  // Closes the open sub-phase; subsequent work is unattributed until the
  // next enter().
  void leave() noexcept {
    if (!active_ || !open_) return;
    mark(false, telemetry::Phase::kCount);
  }

 private:
  // Out of line so the word loop carries only the branch per marker.
  void mark(bool opening, telemetry::Phase next) noexcept;

  PmuPhaseStats* pmu_;
  telemetry::PhaseStats* phases_;
  PmuCounterSet* set_ = nullptr;
  bool active_ = false;
  bool open_ = false;
  telemetry::Phase current_ = telemetry::Phase::kCount;
  std::uint64_t last_ns_ = 0;
  CounterSnapshot last_;
};

}  // namespace profile
}  // namespace bitspread

#endif  // BITSPREAD_PROFILE_COUNTERS_H_
