// Stopping rules and the unified run result shared by all simulation engines.
#ifndef BITSPREAD_ENGINE_STOPPING_H_
#define BITSPREAD_ENGINE_STOPPING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "telemetry/run_telemetry.h"

namespace bitspread {

enum class StopReason {
  kCorrectConsensus,  // Reached X = n*z (converged; absorbing iff Prop. 3).
  kWrongConsensus,    // Reached the other consensus (only possible without a
                      // source, or for broken protocols).
  kRoundLimit,        // Hit the round cap: the measurement is right-censored.
  kIntervalExit,      // Left the watched interval (Theorem 6 crossing runs).
  kDegraded,          // Faulty run: at least one source flip occurred and the
                      // system never re-converged before the round cap. The
                      // recovery segment for the last flip is right-censored;
                      // RunResult keeps the flip round and final configuration
                      // so degraded runs are reported, never silently capped.
  kInterrupted,       // SIGINT/SIGTERM (or snapshot::request_interrupt()):
                      // the driver stopped at a round boundary after writing
                      // a final snapshot. Right-censored like kRoundLimit —
                      // the run resumes via --resume, it did not finish.
};

std::string to_string(StopReason reason);

// The unit RunResult::ticks is measured in. Every engine runs through the
// same RunDriver (engine/run_loop.h); the TimePolicy it is given decides how
// its native clock relates to parallel rounds, and the result carries that
// unit so callers convert without knowing which engine produced it.
enum class TimeUnit {
  kParallelRounds,  // One tick = one synchronous round (n updates at once).
  kActivations,     // One tick = one single-agent activation (or pairwise
                    // interaction); n ticks = one parallel round.
  kAlphaRounds,     // One tick = one alpha-synchronous round: alpha * n
                    // activations in expectation (engine/alpha_sync.h).
};

std::string to_string(TimeUnit unit);

struct StopRule {
  // Hard cap in PARALLEL rounds (converted by each engine's time policy:
  // n activations or one alpha-round per parallel round); every run
  // terminates.
  std::uint64_t max_rounds = 1'000'000;

  // When set, stop as soon as ones < interval_lo or ones > interval_hi. Used
  // to measure interval *crossing* times (Theorem 6) instead of convergence.
  // Hitting a boundary exactly does NOT stop: crossing runs must leave the
  // interval strictly (tests/engine_stopping_test.cc).
  std::optional<std::uint64_t> interval_lo;
  std::optional<std::uint64_t> interval_hi;

  // Stop on any consensus (not only the correct one). Default on: a wrong
  // consensus is absorbing for every Prop.-3-compliant source-less run, and
  // for source runs it cannot occur at all, so stopping is always sound.
  bool stop_on_any_consensus = true;
};

// One self-stabilization epoch of a faulty run: the stretch between a source
// flip (or the initial configuration, flip_round = 0 for the first segment)
// and the next re-convergence. An unrecovered final segment means the run
// ended degraded or censored; `recovered_round` is then meaningless.
struct RecoverySegment {
  std::uint64_t flip_round = 0;       // Round the epoch opened (0 = initial).
  std::uint64_t recovered_round = 0;  // Round the quorum was first met.
  bool recovered = false;

  // Rounds from flip to re-convergence (only meaningful when recovered).
  std::uint64_t recovery_rounds() const noexcept {
    return recovered_round - flip_round;
  }

  friend bool operator==(const RecoverySegment&,
                         const RecoverySegment&) = default;
};

// The one result type every engine returns. `ticks` counts elapsed time in
// the engine's native `unit`; the TimeUnit-aware accessors below convert, so
// callers never special-case parallel vs sequential vs alpha-synchronous
// engines (the old RunResult/SequentialRunResult split).
struct RunResult {
  StopReason reason = StopReason::kRoundLimit;
  TimeUnit unit = TimeUnit::kParallelRounds;
  std::uint64_t ticks = 0;  // Elapsed time in `unit` when stopped.
  double alpha = 1.0;       // Activation probability (kAlphaRounds only).
  Configuration final_config;

  // Per-epoch recovery bookkeeping of faulty runs (empty for fault-free
  // runs): segment 0 covers the initial configuration, then one segment per
  // source flip, in flip order. Rounds are in the engine's native round unit
  // (parallel rounds, or alpha-rounds for the alpha-synchronous engine).
  std::vector<RecoverySegment> recoveries;

  // Measurement-only sidecar (wall time, samples, fault counts). NOT part
  // of the semantic payload: byte-identity is asserted on everything above.
  RunTelemetry telemetry;

  // Whole native rounds elapsed: ticks for round-driven engines, completed
  // parallel rounds (ticks / n, floored) for activation-driven ones.
  std::uint64_t rounds() const noexcept {
    if (unit != TimeUnit::kActivations) return ticks;
    const std::uint64_t n = final_config.n;
    return n == 0 ? 0 : ticks / n;
  }

  // Elapsed activations: exact for activation-driven engines, the expected
  // n (or alpha * n) activations per round otherwise.
  std::uint64_t activations() const noexcept {
    if (unit == TimeUnit::kActivations) return ticks;
    if (unit == TimeUnit::kAlphaRounds) {
      return static_cast<std::uint64_t>(
          alpha * static_cast<double>(ticks) *
          static_cast<double>(final_config.n));
    }
    return ticks * final_config.n;
  }

  // Elapsed time in the paper's comparison unit (1 parallel round = n
  // activations; 1 alpha-round = alpha parallel rounds in expectation).
  double parallel_rounds() const noexcept {
    switch (unit) {
      case TimeUnit::kActivations:
        return final_config.n == 0
                   ? 0.0
                   : static_cast<double>(ticks) /
                         static_cast<double>(final_config.n);
      case TimeUnit::kAlphaRounds:
        return static_cast<double>(ticks) * alpha;
      case TimeUnit::kParallelRounds:
        break;
    }
    return static_cast<double>(ticks);
  }

  bool converged() const noexcept {
    return reason == StopReason::kCorrectConsensus;
  }
  // True when the run hit the cap: `ticks` is then a lower bound. A
  // degraded run is censored too — its last recovery segment never closed —
  // and so is an interrupted run awaiting resume.
  bool censored() const noexcept {
    return reason == StopReason::kRoundLimit ||
           reason == StopReason::kDegraded ||
           reason == StopReason::kInterrupted;
  }
  bool degraded() const noexcept { return reason == StopReason::kDegraded; }

  // Round of the last source flip (0 when the run never flipped).
  std::uint64_t last_flip_round() const noexcept {
    return recoveries.empty() ? 0 : recoveries.back().flip_round;
  }
};

// Evaluates the rule against a configuration; nullopt means keep running.
// Inline: RunDriver evaluates it on every tick.
inline std::optional<StopReason> evaluate_stop(
    const StopRule& rule, const Configuration& config) noexcept {
  if (rule.interval_lo && config.ones < *rule.interval_lo) {
    return StopReason::kIntervalExit;
  }
  if (rule.interval_hi && config.ones > *rule.interval_hi) {
    return StopReason::kIntervalExit;
  }
  if (config.is_correct_consensus()) return StopReason::kCorrectConsensus;
  if (rule.stop_on_any_consensus && config.is_consensus()) {
    return StopReason::kWrongConsensus;
  }
  return std::nullopt;
}

// Folds the closed recovery segments into `telemetry` (recovered_segments,
// recovery_rounds_total). The RunDriver calls this once per faulty run.
void fold_recovery_telemetry(RunTelemetry& telemetry,
                             const std::vector<RecoverySegment>& recoveries);

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_STOPPING_H_
