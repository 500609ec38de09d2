#include "telemetry/telemetry.h"

namespace bitspread {
namespace telemetry {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kRoundStep:
      return "round_step";
    case Phase::kSampleDraw:
      return "sample_draw";
    case Phase::kFaultApply:
      return "fault_apply";
    case Phase::kStopCheck:
      return "stop_check";
    case Phase::kPoolDispatch:
      return "pool_dispatch";
    case Phase::kKernelGather:
      return "kernel_gather";
    case Phase::kKernelFault:
      return "kernel_fault";
    case Phase::kKernelDecide:
      return "kernel_decide";
    case Phase::kKernelCommit:
      return "kernel_commit";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

}  // namespace telemetry
}  // namespace bitspread
