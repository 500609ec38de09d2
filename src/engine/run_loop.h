// The run-loop core: one driver for stopping, faults, telemetry, and tracing.
//
// Every engine used to hand-roll the same loop — evaluate the stop rule, cap
// at max_rounds, apply scheduled source flips, churn at round boundaries,
// record the trajectory and the flight-recorder round stream, time the
// phases, and classify censored/degraded endings. Eight copies drifted in
// what they supported (the alpha-synchronous, conflicting-sources, multi-
// opinion, and population engines had no faults and no telemetry at all).
// This header is the single copy: engines shrink to *steppers* and the
// RunDriver owns everything cross-cutting.
//
// A stepper is any type providing
//
//   Configuration& config();        // driver-visible state, kept current
//   void step(std::uint64_t tick);  // advance one tick of native time
//
// or, in place of step(), a member template
//
//   template <bool kProbed> void step(std::uint64_t tick);
//
// which the driver instantiates with its own probe decision (below), so a
// stepper's inner probes cost nothing on a probe-free run. Optional hooks
// the driver detects at compile time:
//
//   void sync_flip();               // mirror an applied source flip onto
//                                   // explicit population state
//   void end_round(std::uint64_t round);
//                                   // per-parallel-round fault work (churn)
//                                   // before the session observes the round
//   std::optional<StopReason> evaluate(const StopRule&) const;
//                                   // replace the default stop evaluation
//                                   // (multi-opinion consensus, watch runs)
//   std::uint64_t samples_drawn() const;  // telemetry: total observation
//                                         // samples (counted by the stepper,
//                                         // it knows its sampling law)
//   std::uint64_t churned() const;  // telemetry: churn events counted by
//                                   // the stepper (otherwise the session's
//                                   // counts-level tally is used)
//
// Probes. At run start the driver reads the observer set once. If no probe
// sink is set (phase, trace recorder, round sink, PMU), it runs
// drive<false>: the same loop body with every driver-side probe — one
// ScopedTimer per phase, the round stream — removed at compile time, and
// step<false>() for a stepper that templates its step on the decision.
//
// Round boundaries come from a countdown of the ticks left in the current
// round and a round counter, not from `tick % ticks_per_round` and
// `tick / ticks_per_round` on every tick.
//
// The driver NEVER draws randomness: steppers own their Rng or SeedSequence,
// so the per-(round, block) stream schedule of the sharded engine — and with
// it bit-identical thread/shard invariance — survives unchanged, and the
// telemetry probes (which never touch an RNG) stay outside the simulation
// payload.
//
// Time units. The TimePolicy maps the engine's native tick onto parallel
// rounds: StopRule::max_rounds is always in parallel rounds, flips and churn
// land on parallel-round boundaries, and trajectory/round-stream points are
// per parallel round — so rules and recordings are interchangeable across
// engines. `units_per_tick` scales ticks into the result's TimeUnit (the
// population engine steps one round of n interactions per tick but reports
// activations).
#ifndef BITSPREAD_ENGINE_RUN_LOOP_H_
#define BITSPREAD_ENGINE_RUN_LOOP_H_

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/configuration.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/session.h"
#include "obs/progress.h"
#include "snapshot/checkpoint.h"
#include "telemetry/telemetry.h"

namespace bitspread {

namespace internal {

// Steppers opt into checkpoint/restore by providing
//
//   static constexpr const char* kSnapshotTag;   // engine identity
//   void capture(snapshot::StepperState&) const; // serialize evolved state
//   bool restore(const snapshot::StepperState&); // rebuild it (false =
//                                                // inconsistent snapshot)
//
// Detection mirrors the other optional hooks: a stepper without them runs
// un-checkpointed and the driver never touches the checkpointer for it.
template <typename Stepper>
inline constexpr bool kCheckpointable =
    requires(const Stepper& frozen, Stepper& live,
             snapshot::StepperState& state) {
      { Stepper::kSnapshotTag } -> std::convertible_to<const char*>;
      frozen.capture(state);
      { live.restore(state) } -> std::convertible_to<bool>;
    };

// drive<false>'s stand-in for telemetry::ScopedTimer: an empty object, so
// the probe-free loop carries no probe code at all.
struct NoProbe {
  explicit NoProbe(telemetry::Phase /*phase*/) noexcept {}
};

// The phase probe of a loop that decided `kProbed` at run start: drivers and
// step<kProbed>() steppers time their phases through it.
template <bool kProbed>
using PhaseProbe =
    std::conditional_t<kProbed, telemetry::ScopedTimer, NoProbe>;

}  // namespace internal

// How an engine's native tick relates to parallel rounds and to the time
// unit its RunResult reports.
struct TimePolicy {
  TimeUnit unit = TimeUnit::kParallelRounds;
  // Ticks per parallel round: boundaries (flips, churn, recording) land at
  // multiples of ticks_per_round, and the cap is max_rounds *
  // ticks_per_round.
  std::uint64_t ticks_per_round = 1;
  // RunResult::ticks = elapsed driver ticks * units_per_tick.
  std::uint64_t units_per_tick = 1;
  // Activation probability, forwarded to RunResult (kAlphaRounds only).
  double alpha = 1.0;

  // One tick = one synchronous parallel round.
  static TimePolicy parallel() noexcept;
  // One tick = one activation; n ticks = one parallel round.
  static TimePolicy activations(std::uint64_t n) noexcept;
  // One tick = one scheduler round of n interactions, reported in
  // activations.
  static TimePolicy interaction_rounds(std::uint64_t n) noexcept;
  // One tick = one alpha-synchronous round (alpha parallel rounds).
  static TimePolicy alpha_rounds(double alpha) noexcept;

  std::string describe() const;
};

// The shared run loop. Stateless apart from its policy: one driver value can
// serve any number of runs.
class RunDriver {
 public:
  explicit RunDriver(const TimePolicy& policy) noexcept : policy_(policy) {}

  const TimePolicy& policy() const noexcept { return policy_; }

  // Fault-free run: default (or stepper-provided) stop evaluation, no
  // FaultSession lifecycle.
  template <typename Stepper>
  RunResult run(Stepper& stepper, const StopRule& rule,
                Trajectory* trajectory = nullptr) const {
    return start(stepper, rule, nullptr, trajectory);
  }

  // Faulty run: the driver owns the FaultSession lifecycle — source flips on
  // round boundaries (mirrored into the stepper via sync_flip), per-round
  // observation closing RecoverySegments, fault-aware stop evaluation, and
  // degraded classification at the cap. The session must be constructed on
  // the stepper's planted initial configuration.
  template <typename Stepper>
  RunResult run(Stepper& stepper, const StopRule& rule, FaultSession& session,
                Trajectory* trajectory = nullptr) const {
    return start(stepper, rule, &session, trajectory);
  }

 private:
  // The probe gate, decided once per run: observer scopes must not race a
  // running engine, so the set read here holds for the whole run.
  template <typename Stepper>
  RunResult start(Stepper& stepper, const StopRule& rule,
                  FaultSession* session, Trajectory* trajectory) const {
    return telemetry::observers.load().probed()
               ? drive<true>(stepper, rule, session, trajectory)
               : drive<false>(stepper, rule, session, trajectory);
  }

  // Assembles the full RunSnapshot at a parallel-round boundary. Capture
  // never mutates run state — a run with checkpointing enabled produces the
  // same payload as one without (the golden digests pin this).
  template <typename Stepper>
  static snapshot::RunSnapshot make_snapshot(Stepper& stepper,
                                             const FaultSession* session,
                                             const Trajectory* trajectory,
                                             std::uint64_t run_ordinal,
                                             std::uint64_t tick,
                                             std::uint64_t round) {
    snapshot::RunSnapshot snap;
    snap.engine_tag = Stepper::kSnapshotTag;
    snap.run_ordinal = run_ordinal;
    snap.tick = tick;
    snap.round = round;
    snap.config = stepper.config();
    stepper.capture(snap.stepper);
    if (session != nullptr) {
      snap.has_faults = true;
      snap.faults.next_flip = session->next_flip();
      snap.faults.churned = session->churned();
      snap.faults.recoveries = session->recoveries();
    }
    if (trajectory != nullptr) {
      snap.has_trajectory = true;
      snap.trajectory.assign(trajectory->points().begin(),
                             trajectory->points().end());
    }
    return snap;
  }

  template <bool kProbed, typename Stepper>
  RunResult drive(Stepper& stepper, const StopRule& rule,
                  FaultSession* session, Trajectory* trajectory) const {
    using telemetry::Phase;
    using Probe = internal::PhaseProbe<kProbed>;
    RunResult result;
    result.unit = policy_.unit;
    result.alpha = policy_.alpha;
    const std::uint64_t start_ns = telemetry::clock_now_ns();
    const std::uint64_t tpr =
        policy_.ticks_per_round == 0 ? 1 : policy_.ticks_per_round;
    const std::uint64_t max_ticks = rule.max_rounds * tpr;

    // Checkpoint/resume engages only for checkpointable steppers with an
    // installed checkpointer; everything else compiles the plain loop.
    [[maybe_unused]] snapshot::Checkpointer* checkpointer = nullptr;
    [[maybe_unused]] std::uint64_t run_ordinal = 0;
    std::uint64_t tick = 0;
    bool resumed = false;
    if constexpr (internal::kCheckpointable<Stepper>) {
      checkpointer = snapshot::active_checkpointer();
      if (checkpointer != nullptr) {
        run_ordinal = checkpointer->claim_run();
        if (const snapshot::RunSnapshot* snap =
                checkpointer->take_resume(run_ordinal, Stepper::kSnapshotTag)) {
          const Configuration before = stepper.config();
          stepper.config() = snap->config;
          if (stepper.restore(snap->stepper)) {
            tick = snap->tick;
            resumed = true;
            if (session != nullptr && snap->has_faults) {
              session->restore_progress(
                  static_cast<std::size_t>(snap->faults.next_flip),
                  snap->faults.churned, snap->faults.recoveries);
            }
            if (trajectory != nullptr && snap->has_trajectory) {
              trajectory->restore(snap->trajectory);
            }
          } else {
            // An internally inconsistent snapshot (wrong seed, wrong shape):
            // fall back to a fresh run rather than diverging silently.
            stepper.config() = before;
          }
        }
      }
    }

    if (!resumed) {
      const Configuration& config = stepper.config();
      if (trajectory != nullptr) trajectory->record(0, config.ones);
      if constexpr (kProbed) telemetry::record_round(0, config.ones, config.n);
      if (session != nullptr) session->observe(0, config);
    }

    // Live-progress publisher (obs/progress.h). With no board (no --listen)
    // this is a null check per round boundary and nothing else; with one, it
    // publishes a seqlock record at an adaptive stride the introspection
    // server reads.
    const char* progress_tag = "engine";
    if constexpr (requires {
                    { Stepper::kSnapshotTag } -> std::convertible_to<
                        const char*>;
                  }) {
      progress_tag = Stepper::kSnapshotTag;
    }
    // The parallel round `tick` lies in, and the ticks left before the next
    // boundary: `left == tpr` exactly at a boundary.
    std::uint64_t round = tick / tpr;
    std::uint64_t left = tpr - tick % tpr;
    obs::RunProgressScope progress(progress_tag, rule.max_rounds,
                                   stepper.config().n, session != nullptr);
    progress.on_round(round, stepper.config().ones, stepper.config().n,
                      session);

    while (true) {
      const bool boundary = left == tpr;
      // Graceful interrupt: only at a parallel-round boundary, and BEFORE
      // the flip check — a flip scheduled for this round is not yet applied,
      // so the resumed process replays it identically. Breaking here (for
      // every stepper, checkpointable or not) lets the caller's recorder and
      // stream scopes unwind and flush instead of dying mid-run.
      if (boundary && snapshot::interrupt_requested()) {
        if constexpr (internal::kCheckpointable<Stepper>) {
          if (checkpointer != nullptr) {
            checkpointer->write(make_snapshot(stepper, session, trajectory,
                                              run_ordinal, tick, round));
          }
        }
        result.reason = StopReason::kInterrupted;
        break;
      }
      // Source flips land on entry to a parallel round.
      if (session != nullptr && boundary && session->flip_due(round)) {
        const Probe probe(Phase::kFaultApply);
        session->apply_flip(round, stepper.config());
        if constexpr (requires { stepper.sync_flip(); }) {
          stepper.sync_flip();
        }
      }
      {
        const Probe probe(Phase::kStopCheck);
        std::optional<StopReason> reason;
        if constexpr (requires { stepper.evaluate(rule); }) {
          reason = stepper.evaluate(rule);
        } else {
          reason = session != nullptr
                       ? session->evaluate(rule, stepper.config())
                       : evaluate_stop(rule, stepper.config());
        }
        if (reason) {
          result.reason = *reason;
          break;
        }
      }
      if (tick >= max_ticks) {
        result.reason = session != nullptr ? session->censored_reason()
                                           : StopReason::kRoundLimit;
        break;
      }
      {
        // The probe's PMU delta counts the driver thread: exact for
        // single-threaded steppers; under pool fan-out the workers' kernel
        // sub-phase probes carry the worker-side attribution.
        const Probe probe(Phase::kRoundStep);
        if constexpr (requires { stepper.template step<kProbed>(tick); }) {
          stepper.template step<kProbed>(tick);
        } else {
          stepper.step(tick);
        }
      }
      ++tick;
      if (--left == 0) {
        left = tpr;
        ++round;
        if (session != nullptr) {
          const Probe probe(Phase::kFaultApply);
          if constexpr (requires { stepper.end_round(round); }) {
            stepper.end_round(round);
          }
          session->observe(round, stepper.config());
        } else if constexpr (requires { stepper.end_round(round); }) {
          stepper.end_round(round);
        }
        const Configuration& config = stepper.config();
        if (trajectory != nullptr) trajectory->record(round, config.ones);
        if constexpr (kProbed) {
          telemetry::record_round(round, config.ones, config.n);
        }
        progress.on_round(round, config.ones, config.n, session);
        // Periodic checkpoint, after the round is fully recorded so the
        // snapshot's trajectory and stream offsets include it.
        if constexpr (internal::kCheckpointable<Stepper>) {
          if (checkpointer != nullptr && checkpointer->due(round)) {
            checkpointer->write(make_snapshot(stepper, session, trajectory,
                                              run_ordinal, tick, round));
          }
        }
      }
    }

    const Configuration& config = stepper.config();
    // A run cut mid-round is recorded at that round's end: ceil(tick / tpr).
    const std::uint64_t last_round = left == tpr ? round : round + 1;
    if (trajectory != nullptr) {
      trajectory->force_record(last_round, config.ones);
    }
    progress.finish(last_round, config.ones, config.n, session);
    result.ticks = tick * policy_.units_per_tick;
    result.final_config = config;
    if (session != nullptr) result.recoveries = session->take_recoveries();
    result.telemetry.wall_seconds =
        static_cast<double>(telemetry::clock_now_ns() - start_ns) * 1e-9;
    result.telemetry.rounds = round;
    if constexpr (requires { stepper.samples_drawn(); }) {
      result.telemetry.samples_drawn = stepper.samples_drawn();
    }
    if (session != nullptr) {
      result.telemetry.fault_flips = session->flips_applied();
      result.telemetry.fault_zealots = session->zealots();
      if constexpr (requires { stepper.churned(); }) {
        result.telemetry.fault_churned = stepper.churned();
      } else {
        result.telemetry.fault_churned = session->churned();
      }
      fold_recovery_telemetry(result.telemetry, result.recoveries);
    }
    return result;
  }

  TimePolicy policy_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_RUN_LOOP_H_
