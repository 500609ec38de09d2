// The aggregate parallel engine: exact simulation in O(l) work per round.
//
// For any memory-less protocol, conditioned on X_t = x every non-source agent
// with opinion b independently adopts 1 with probability P_b(x/n) (Eq. 4), so
//   X_{t+1} = [z sources] + Binomial(#non-source ones, P_1)
//                         + Binomial(#non-source zeros, P_0)
// *exactly*. One round therefore costs two exact binomial draws plus the
// P_b computation — independent of n. A fault-free run() plans each visited
// state once (P_b and both binomials' set-up, engine/plan_table.h), so a
// repeat state costs only the two draws. This is the engine behind every
// large-population experiment in the repository; it is distribution-identical
// to the per-agent engine (tested, and cross-checked against the exact dense
// Markov chain for small n).
#ifndef BITSPREAD_ENGINE_AGGREGATE_H_
#define BITSPREAD_ENGINE_AGGREGATE_H_

#include <cassert>

#include "core/configuration.h"
#include "core/protocol.h"
#include "engine/stopping.h"
#include "engine/trajectory.h"
#include "faults/environment.h"
#include "random/rng.h"
#include "topology/topology.h"

namespace bitspread {

class AggregateParallelEngine {
 public:
  // The binomial reduction above is exact ONLY under uniform PULL: on a
  // structured graph the adoption probability depends on each agent's
  // neighborhood composition, not just X_t. The engine therefore accepts a
  // topology handle for interface symmetry with the per-agent engines but
  // requires it to be the complete graph (null = complete).
  explicit AggregateParallelEngine(const MemorylessProtocol& protocol,
                                   const Topology* topology = nullptr) noexcept
      : protocol_(&protocol), topology_(topology) {
    assert(topology == nullptr || topology->is_complete());
  }

  // One exact parallel round. `config` must be valid. Uncached: it builds
  // the round's plan and draws with the same code run() uses, so a loop of
  // step() and run() visit the same states on the same seed.
  Configuration step(const Configuration& config, Rng& rng) const;

  // Runs until the stop rule fires. If `trajectory` is non-null, X_t is
  // recorded (round 0 and the final round always; intermediate rounds per the
  // trajectory's stride).
  RunResult run(Configuration config, const StopRule& rule, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  // Faulty run under an EnvironmentModel, still exact: observation and
  // spontaneous noise enter through the closed-form adoption probability
  // (NoisyObservationProtocol), zealots are pinned counts excluded from the
  // binomial updates, churn is two extra binomial draws per round, and
  // source flips re-target the stop rule mid-run. Per-flip recovery times
  // land in RunResult::recoveries; a run that never re-converges after its
  // last flip is reported as StopReason::kDegraded.
  RunResult run(Configuration config, const StopRule& rule,
                const EnvironmentModel& faults, Rng& rng,
                Trajectory* trajectory = nullptr) const;

  const MemorylessProtocol& protocol() const noexcept { return *protocol_; }

  // Always a complete graph (or null); see the constructor note.
  const Topology* topology() const noexcept { return topology_; }

 private:
  const MemorylessProtocol* protocol_;
  const Topology* topology_ = nullptr;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_AGGREGATE_H_
