#include "obs/snapshot.h"

#include "profile/counters.h"

namespace bitspread {
namespace obs {

MetricsSnapshot capture_metrics(MetricsRegistry& registry) {
  MetricsSnapshot snap;
  snap.captured_ns = telemetry::clock_now_ns();
  snap.registry = registry.snapshot();

  const telemetry::ObserverSet observed = telemetry::observers.load();
  if (const telemetry::PhaseStats* phases = observed.phases) {
    snap.phases_present = true;
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto phase = static_cast<telemetry::Phase>(i);
      snap.phase_ns[static_cast<std::size_t>(i)] = phases->total_ns(phase);
      snap.phase_events[static_cast<std::size_t>(i)] = phases->count(phase);
    }
  }

  if (const profile::PmuPhaseStats* pmu = observed.pmu) {
    snap.pmu_present = true;
    snap.pmu_backed = pmu->pmu_backed();
    for (int i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto phase = static_cast<telemetry::Phase>(i);
      if (pmu->samples(phase) == 0) continue;
      MetricsSnapshot::PmuRow row;
      row.phase = i;
      row.samples = pmu->samples(phase);
      row.wall_ns = pmu->wall_ns(phase);
      row.multiplexed = pmu->multiplexed(phase);
      for (int c = 0; c < profile::kCounterCount; ++c) {
        const auto counter = static_cast<profile::Counter>(c);
        row.counted[static_cast<std::size_t>(c)] = pmu->counted(phase, counter);
        row.value[static_cast<std::size_t>(c)] = pmu->total(phase, counter);
      }
      snap.pmu.push_back(row);
    }
  }

  if (const ProgressBoard* board = observed.progress) {
    snap.runs = board->read();
    snap.runs_started = board->runs_started();
    snap.runs_finished = board->runs_finished();
  }
  return snap;
}

}  // namespace obs
}  // namespace bitspread
