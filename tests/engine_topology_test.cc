// The topology seam end-to-end: a complete-graph handle is BIT-identical to
// the pre-topology engines (null handle), kernel dispatch keeps engaging on
// complete graphs and reports why it falls back on structured ones, sharded
// ring runs stay bit-identical across thread/shard counts, the sharded
// engine's fast path and per-agent update path agree in law on a ring, a
// faulty ring run
// checkpoint/restores digest-identically while a mismatched graph is
// refused, and — the cross-validation tentpole — ring-voter consensus times
// match the backward coalescing-random-walk dual (the E1 dual of
// tests/engine_cross_validation_test.cc, extended off the complete graph).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/init.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "faults/environment.h"
#include "naive_agent_oracle.h"
#include "protocols/minority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "random/rng.h"
#include "snapshot/checkpoint.h"
#include "snapshot/format.h"
#include "snapshot/state.h"
#include "stats/ks.h"
#include "topology/topology.h"

namespace bitspread {
namespace {

class ScopedCheckpointer {
 public:
  explicit ScopedCheckpointer(snapshot::Checkpointer* checkpointer) {
    snapshot::install_checkpointer(checkpointer);
  }
  ~ScopedCheckpointer() {
    snapshot::install_checkpointer(nullptr);
    snapshot::clear_interrupt();
  }
};

std::string fresh_ring_base(const std::string& name) {
  const std::string base = testing::TempDir() + "bitspread_topo_" + name;
  for (std::uint32_t slot = 0; slot < 256; ++slot) {
    std::remove((base + "." + std::to_string(slot) + ".snap").c_str());
  }
  return base;
}

std::string ring_file_for_round(const snapshot::Checkpointer& ring,
                                std::uint64_t round) {
  for (std::uint32_t slot = 0; slot < ring.options().ring; ++slot) {
    const std::string path = ring.ring_entry_path(slot);
    const auto file = snapshot::SnapshotFile::load(path);
    if (!file) continue;
    snapshot::RunSnapshot snap;
    if (snapshot::RunSnapshot::decode(*file, snap) && snap.round == round) {
      return path;
    }
  }
  return {};
}

// All-wrong start: the lone stubborn source is the only correct agent.
Configuration all_wrong(std::uint64_t n) {
  return Configuration{n, 1, Opinion::kOne, 1};
}

StopRule capped(std::uint64_t max_rounds) {
  StopRule rule;
  rule.max_rounds = max_rounds;
  return rule;
}

// --- Bit-identity of the complete-graph handle ---------------------------

// The per-agent update path (a stateful protocol): the explicit complete
// handle replays the null handle's draws, with and without replacement.
void expect_complete_handle_bit_identical(ShardedAgentEngine::Sampling sampling,
                                          std::uint64_t seed) {
  const UndecidedStateDynamics usd;
  const Topology complete = Topology::complete(1000);
  const ShardedAgentEngine null_handle(usd, {.sampling = sampling});
  const ShardedAgentEngine explicit_handle(
      usd, {.sampling = sampling, .topology = &complete});
  const Configuration init = init_fraction_ones(1000, Opinion::kOne, 0.5);
  EXPECT_EQ(snapshot::payload_digest(null_handle.run(init, capped(50), seed)),
            snapshot::payload_digest(
                explicit_handle.run(init, capped(50), seed)));
}

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnAgentEngine) {
  expect_complete_handle_bit_identical(
      ShardedAgentEngine::Sampling::kWithReplacement, 7);
}

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnAgentEngineDistinct) {
  expect_complete_handle_bit_identical(
      ShardedAgentEngine::Sampling::kWithoutReplacement, 8);
}

TEST(TopologySeam, CompleteHandleIsBitIdenticalOnShardedEngine) {
  const MinorityDynamics minority(3);
  const Topology complete = Topology::complete(1 << 13);
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  // Both the legacy per-agent loop and the kAuto bitslice path must be
  // unaffected by an explicit complete handle.
  for (const kernel::Backend backend :
       {kernel::Backend::kLegacy, kernel::Backend::kAuto}) {
    const ShardedAgentEngine null_handle(minority,
                                         {.threads = 2, .kernel = backend});
    const ShardedAgentEngine explicit_handle(
        minority,
        {.threads = 2, .kernel = backend, .topology = &complete});
    EXPECT_EQ(
        snapshot::payload_digest(null_handle.run(init, capped(40), 99)),
        snapshot::payload_digest(explicit_handle.run(init, capped(40), 99)))
        << "backend " << static_cast<int>(backend);
  }
}

// --- Kernel dispatch eligibility -----------------------------------------

TEST(TopologySeam, KernelStillEngagesOnCompleteGraph) {
  const MinorityDynamics minority(3);
  const Topology complete = Topology::complete(1 << 12);
  const ShardedAgentEngine engine(minority,
                                  {.threads = 1, .topology = &complete});
  auto population =
      engine.make_population(init_fraction_ones(1 << 12, Opinion::kOne, 0.5));
  const ShardedAgentEngine::KernelDispatch dispatch =
      engine.step_dispatch(population);
  EXPECT_NE(dispatch.backend, kernel::Backend::kLegacy);
  EXPECT_STREQ(dispatch.reason, "eligible");
}

TEST(TopologySeam, StructuredTopologyDispatchesLegacyAndSaysWhy) {
  const MinorityDynamics minority(3);
  const Topology ring = Topology::ring(1 << 12);
  const ShardedAgentEngine engine(minority,
                                  {.threads = 1, .topology = &ring});
  auto population =
      engine.make_population(init_fraction_ones(1 << 12, Opinion::kOne, 0.5));
  const ShardedAgentEngine::KernelDispatch dispatch =
      engine.step_dispatch(population);
  EXPECT_EQ(dispatch.backend, kernel::Backend::kLegacy);
  EXPECT_NE(std::strstr(dispatch.reason, "topology"), nullptr)
      << "reason was: " << dispatch.reason;
  EXPECT_EQ(engine.step_backend(population), kernel::Backend::kLegacy);
}

// --- Sharded determinism and cross-engine law on a ring ------------------

TEST(TopologySeam, ShardedRingRunIsBitIdenticalAcrossThreadsAndShards) {
  const MinorityDynamics minority(3);
  const Topology ring = Topology::ring(1 << 13);
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  const ShardedAgentEngine reference(
      minority, {.threads = 1, .shards = 1, .topology = &ring});
  const std::uint64_t golden =
      snapshot::payload_digest(reference.run(init, capped(60), 1234));
  for (const auto& [threads, shards] :
       std::vector<std::pair<unsigned, std::uint32_t>>{{2, 1}, {4, 3}, {3, 7}}) {
    const ShardedAgentEngine engine(
        minority, {.threads = threads, .shards = shards, .topology = &ring});
    EXPECT_EQ(snapshot::payload_digest(engine.run(init, capped(60), 1234)),
              golden)
        << "threads=" << threads << " shards=" << shards;
  }
}

TEST(TopologySeam, ShardedMatchesAgentEngineInLawOnRing) {
  // Same ring, same protocol, two update paths of the sharded engine (the
  // g-table fast path and the per-agent stateful update): the
  // consensus-time laws must agree (KS).
  const VoterDynamics voter(1);
  const OpaqueStateful stateful(voter);
  const std::uint64_t n = 32;
  const Topology ring = Topology::ring(n);
  const ShardedAgentEngine agent(stateful, {.topology = &ring});
  const ShardedAgentEngine sharded(voter, {.threads = 2, .topology = &ring});
  const StopRule rule = capped(1000000);

  const int kTrials = 150;
  std::vector<double> agent_times, sharded_times;
  for (int i = 0; i < kTrials; ++i) {
    const RunResult a = agent.run(all_wrong(n), rule, 50000 + i);
    const RunResult b = sharded.run(all_wrong(n), rule, 60000 + i);
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    agent_times.push_back(static_cast<double>(a.rounds()));
    sharded_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(agent_times, sharded_times);
  EXPECT_GT(ks_p_value(d, agent_times.size(), sharded_times.size()), 1e-3)
      << "KS=" << d;
}

// --- Checkpoint/restore with a structured topology -----------------------

TEST(TopologySeam, FaultyRingRunResumesDigestIdentically) {
  const MinorityDynamics minority(3);
  const Topology ring = Topology::ring(1 << 13);
  const ShardedAgentEngine engine(minority,
                                  {.threads = 2, .topology = &ring});
  const Configuration init =
      init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  EnvironmentModel faults;
  faults.observation_noise = 0.01;
  faults.churn_rate = 0.001;
  const auto run = [&] { return engine.run(init, capped(80), faults, 31); };

  const std::uint64_t golden = snapshot::payload_digest(run());

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("faultring");
  options.every = 10;
  options.ring = 64;
  snapshot::Checkpointer writer(options);
  {
    const ScopedCheckpointer installed(&writer);
    EXPECT_EQ(snapshot::payload_digest(run()), golden)
        << "checkpointing perturbed the run";
  }
  EXPECT_GT(writer.written(), 0u);

  const std::string entry = ring_file_for_round(writer, 40);
  ASSERT_FALSE(entry.empty());
  snapshot::Checkpointer resumer(options);
  ASSERT_TRUE(resumer.load_resume(entry));
  const ScopedCheckpointer installed(&resumer);
  EXPECT_EQ(snapshot::payload_digest(run()), golden)
      << "resume from round 40 diverged";
  EXPECT_EQ(resumer.resumed_runs(), 1u);
}

TEST(TopologySeam, MismatchedTopologySnapshotIsRefused) {
  // A snapshot of a ring run must not resume a torus run: restore() refuses
  // on the TOPO digest, and the torus run falls back to a fresh — still
  // correct — run.
  const MinorityDynamics minority(3);
  const std::uint64_t n = 1 << 12;  // 64^2, a valid 2-d torus size.
  const Topology ring = Topology::ring(n);
  const Topology torus = Topology::torus(64, 2);
  const ShardedAgentEngine on_ring(minority,
                                   {.threads = 1, .topology = &ring});
  const ShardedAgentEngine on_torus(minority,
                                    {.threads = 1, .topology = &torus});
  const Configuration init = init_fraction_ones(n, Opinion::kOne, 0.5);
  const std::uint64_t torus_golden =
      snapshot::payload_digest(on_torus.run(init, capped(120), 77));

  snapshot::CheckpointOptions options;
  options.path = fresh_ring_base("mismatch");
  options.every = 10;
  options.ring = 64;
  snapshot::Checkpointer writer(options);
  {
    const ScopedCheckpointer installed(&writer);
    on_ring.run(init, capped(60), 77);
  }
  EXPECT_GT(writer.written(), 0u);

  // take_resume() claims the snapshot (the tag matches), but restore()
  // must refuse it on the TOPO digest: had the ring plane been accepted,
  // the torus run would continue from it for 60 more rounds and its
  // payload digest would diverge from the fresh torus golden.
  snapshot::Checkpointer resumer(options);
  ASSERT_TRUE(resumer.load_resume("auto"));
  const ScopedCheckpointer installed(&resumer);
  EXPECT_EQ(snapshot::payload_digest(on_torus.run(init, capped(120), 77)),
            torus_golden)
      << "a mismatched-topology snapshot leaked into the run";
}

// --- The coalescing-random-walk dual on the ring -------------------------

// Backward dual of the ring voter (ell = 1) with a stubborn source at node
// 0: one walker per initially-wrong agent; each round every walker moves to
// a uniform neighbor (walkers sharing a node share the move — they have
// coalesced), then walkers standing on the source are absorbed. The round
// when the last walker dies is distributed exactly as the consensus time
// from the all-wrong start.
std::uint64_t ring_dual_coalescence_time(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> walkers;
  walkers.reserve(n - 1);
  for (std::uint64_t i = 1; i < n; ++i) walkers.push_back(i);
  std::uint64_t round = 0;
  while (!walkers.empty()) {
    ++round;
    for (std::uint64_t& w : walkers) {
      w = rng.next_below(2) == 0 ? (w + n - 1) % n : (w + 1) % n;
    }
    std::sort(walkers.begin(), walkers.end());
    walkers.erase(std::unique(walkers.begin(), walkers.end()), walkers.end());
    if (!walkers.empty() && walkers.front() == 0) {
      walkers.erase(walkers.begin());  // Absorbed at the source.
    }
  }
  return round;
}

TEST(TopologySeam, RingVoterConsensusMatchesCoalescingDual) {
  // E1 extended to the ring: the sharded engine's ring-voter consensus time
  // from the all-wrong start equals (in law) the dual's last-coalescence
  // time. This cross-validates the CSR sampling seam against an
  // independently-coded process — an error in row construction or in the
  // per-agent draw law shifts the Theta(n^2) consensus time and fails the
  // KS comparison.
  const VoterDynamics voter(1);
  const std::uint64_t n = 32;
  const Topology ring = Topology::ring(n);
  const ShardedAgentEngine engine(voter, {.topology = &ring});
  const StopRule rule = capped(1000000);

  const int kTrials = 250;
  std::vector<double> engine_times, dual_times;
  for (int i = 0; i < kTrials; ++i) {
    Rng dual_rng(80000 + i);
    const RunResult result = engine.run(all_wrong(n), rule, 70000 + i);
    ASSERT_TRUE(result.converged());
    engine_times.push_back(static_cast<double>(result.rounds()));
    dual_times.push_back(
        static_cast<double>(ring_dual_coalescence_time(n, dual_rng)));
  }
  const double d = ks_statistic(engine_times, dual_times);
  EXPECT_GT(ks_p_value(d, engine_times.size(), dual_times.size()), 1e-3)
      << "KS=" << d;
}

}  // namespace
}  // namespace bitspread
