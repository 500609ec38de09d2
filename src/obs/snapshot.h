// MetricsSnapshot: one consistent, lock-brief copy of everything the
// process knows about itself — registry counters/gauges/histograms, the
// installed wall-clock phase sink, the installed PMU sink, and the progress
// board — without perturbing any write path.
//
// Consistency model (DESIGN.md §3.9): each source is internally consistent,
// not mutually atomic. The registry snapshot holds its shard lock only long
// enough to merge; phase and PMU totals are relaxed-atomic reads of
// monotone accumulators (a concurrent probe may land between two reads of
// the same phase — totals are still each a value the accumulator passed
// through); progress records are seqlock-consistent per slot. A scrape
// therefore never shows a torn counter, but two counters can straddle a
// probe that fired mid-capture. That is the standard Prometheus contract.
#ifndef BITSPREAD_OBS_SNAPSHOT_H_
#define BITSPREAD_OBS_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/progress.h"
#include "profile/pmu.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace obs {

struct MetricsSnapshot {
  // Registry counters/gauges/histograms (merged across thread shards).
  MetricsRegistry::Snapshot registry;

  // Wall-clock phase totals from the installed telemetry::PhaseStats sink.
  bool phases_present = false;
  std::array<std::uint64_t, telemetry::kPhaseCount> phase_ns{};
  std::array<std::uint64_t, telemetry::kPhaseCount> phase_events{};

  // Hardware-counter totals from the installed profile::PmuPhaseStats sink;
  // one row per phase with at least one sample.
  struct PmuRow {
    int phase = 0;  // telemetry::Phase index.
    std::uint64_t samples = 0;
    std::uint64_t wall_ns = 0;
    std::array<std::uint64_t, profile::kCounterCount> value{};
    std::array<bool, profile::kCounterCount> counted{};
    bool multiplexed = false;
  };
  bool pmu_present = false;
  bool pmu_backed = false;
  std::vector<PmuRow> pmu;

  // Progress board (live and recently finished runs).
  std::vector<ProgressRecord> runs;
  std::uint64_t runs_started = 0;
  std::uint64_t runs_finished = 0;

  std::uint64_t captured_ns = 0;  // Steady-clock ns at capture.
};

// Captures from `registry` plus whatever phase sink, PMU sink and board the
// process-wide observer set holds. Safe to call from any thread at any time.
MetricsSnapshot capture_metrics(
    MetricsRegistry& registry = MetricsRegistry::global());

}  // namespace obs
}  // namespace bitspread

#endif  // BITSPREAD_OBS_SNAPSHOT_H_
