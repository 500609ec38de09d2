#include "engine/stopping.h"

namespace bitspread {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kCorrectConsensus:
      return "correct-consensus";
    case StopReason::kWrongConsensus:
      return "wrong-consensus";
    case StopReason::kRoundLimit:
      return "round-limit";
    case StopReason::kIntervalExit:
      return "interval-exit";
    case StopReason::kDegraded:
      return "degraded";
    case StopReason::kInterrupted:
      return "interrupted";
  }
  return "unknown";
}

std::string to_string(TimeUnit unit) {
  switch (unit) {
    case TimeUnit::kParallelRounds:
      return "parallel-rounds";
    case TimeUnit::kActivations:
      return "activations";
    case TimeUnit::kAlphaRounds:
      return "alpha-rounds";
  }
  return "unknown";
}

void fold_recovery_telemetry(RunTelemetry& telemetry,
                             const std::vector<RecoverySegment>& recoveries) {
  for (const RecoverySegment& segment : recoveries) {
    if (!segment.recovered) continue;
    ++telemetry.recovered_segments;
    telemetry.recovery_rounds_total += segment.recovery_rounds();
  }
}

}  // namespace bitspread
