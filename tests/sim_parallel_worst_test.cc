// The parallel replication harness and the exact worst-initial-state search.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/init.h"
#include "engine/aggregate.h"
#include "markov/absorption.h"
#include "markov/worst_case.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "sim/parallel.h"

namespace bitspread {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(500);
  parallel_for(500, [&](int i) { visits[static_cast<std::size_t>(i)]++; }, 4);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroAndNegativeCountsAreNoops) {
  int calls = 0;
  parallel_for(0, [&](int) { ++calls; });
  parallel_for(-3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](int i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The pool's handoff protocol (DESIGN.md §3.1): back-to-back generations
// of tiny items with thread counts that change every generation, so helpers
// that sit one out exist and wake late. A helper that paired a stale
// participant count with a newer generation's payload would run an item
// twice, skip one, or release the caller early and miscount.
TEST(WorkerPoolHandoff, BackToBackGenerationsRunEveryItemOnce) {
  WorkerPool& pool = WorkerPool::shared();
  pool.reset_telemetry();
  // A lost or doubled completion count leaves run() waiting forever; the
  // watchdog turns that hang into a prompt failure (the loop takes ~1 s).
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watchdog_mu);
    if (!watchdog_cv.wait_for(lock, std::chrono::seconds(120),
                              [&] { return finished; })) {
      std::fprintf(stderr, "WorkerPoolHandoff: run() never returned\n");
      std::abort();
    }
  });
  constexpr unsigned kThreads[] = {4, 2, 3, 1, 16};
  constexpr int kGenerations = 100000;
  constexpr int kMaxItems = 24;
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kGenerations) * kMaxItems);
  std::uint64_t items = 0, generations = 0, participations = 0;
  int returned_early = 0;  // run() came back before its items were done.
  for (int g = 0; g < kGenerations; ++g) {
    const unsigned threads = kThreads[g % 5];
    const int count = 1 + g % kMaxItems;
    std::atomic<int>* row =
        hits.data() + static_cast<std::size_t>(g) * kMaxItems;
    pool.run(
        count, [row](int i) { row[i].fetch_add(1, std::memory_order_relaxed); },
        threads);
    int done = 0;
    for (int i = 0; i < count; ++i) done += row[i].load();
    if (done != count) ++returned_early;
    const unsigned planned = planned_workers(count, threads);
    if (planned > 1) {  // planned == 1 runs inline and is not counted.
      items += static_cast<std::uint64_t>(count);
      ++generations;
      participations += planned;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(watchdog_mu);
    finished = true;
  }
  watchdog_cv.notify_one();
  watchdog.join();
  int wrong = 0;
  for (int g = 0; g < kGenerations; ++g) {
    const int count = 1 + g % kMaxItems;
    for (int i = 0; i < kMaxItems; ++i) {
      const int got =
          hits[static_cast<std::size_t>(g) * kMaxItems + i].load();
      if (got != (i < count ? 1 : 0)) ++wrong;
    }
  }
  EXPECT_EQ(returned_early, 0);
  EXPECT_EQ(wrong, 0);
  const WorkerPoolTelemetry t = pool.telemetry();
  EXPECT_EQ(t.generations, generations);
  EXPECT_EQ(t.items, items);
  std::uint64_t slot_items = 0, slot_generations = 0;
  for (const auto& w : t.workers) {
    slot_items += w.items;
    slot_generations += w.generations;
  }
  EXPECT_EQ(slot_items, items);
  EXPECT_EQ(slot_generations, participations);  // Caller slot included.
  EXPECT_EQ(t.workers.size(), 1 + pool.worker_count());
  EXPECT_EQ(pool.worker_count(), 15u);  // 16 threads = caller + 15 helpers.
}

TEST(WorkerPoolHandoff, ConcurrentCallersAreSerialized) {
  WorkerPool& pool = WorkerPool::shared();
  pool.reset_telemetry();
  constexpr int kRuns = 2000;
  constexpr int kItems = 8;
  std::vector<std::atomic<int>> hits(2 * kRuns * kItems);
  const auto caller = [&](int which) {
    for (int r = 0; r < kRuns; ++r) {
      std::atomic<int>* row =
          hits.data() + (static_cast<std::size_t>(which) * kRuns + r) * kItems;
      pool.run(
          kItems,
          [row](int i) { row[i].fetch_add(1, std::memory_order_relaxed); },
          3);
    }
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  const WorkerPoolTelemetry t = pool.telemetry();
  EXPECT_EQ(t.generations, 2u * kRuns);
  EXPECT_EQ(t.items, 2u * kRuns * kItems);
}

TEST(WorkerPoolHandoff, NestedCallFromCallerThreadRunsInline) {
  // The calling thread steps items too; a nested parallel_for from one of
  // those items must run inline on it, not re-enter run() and deadlock.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> nested_on_caller{0};
  std::atomic<int> wrong{0};
  for (int attempt = 0; attempt < 100 && nested_on_caller.load() == 0;
       ++attempt) {
    parallel_for(
        16,
        [&](int) {
          if (std::this_thread::get_id() != caller) {
            // Slow helpers leave items for the caller to claim.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return;
          }
          std::vector<int> order;
          parallel_for(
              4,
              [&](int i) {
                if (std::this_thread::get_id() != caller) ++wrong;
                order.push_back(i);
              },
              4);
          if (order != std::vector<int>{0, 1, 2, 3}) ++wrong;
          ++nested_on_caller;
        },
        4);
  }
  EXPECT_GT(nested_on_caller.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(WorkerPoolHandoff, ItemExceptionIsRethrownAfterJoin) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   64,
                   [&](int i) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (i == 5) throw std::runtime_error("item 5");
                   },
                   4),
               std::runtime_error);
  EXPECT_GE(ran.load(), 6);
  // The pool stays usable after a failed generation.
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; }, 4);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelMeasure, IdenticalToSerialMeasurement) {
  // Per-replicate seed streams make the measurement schedule-independent:
  // the parallel harness must reproduce the serial one bit-for-bit.
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  const SeedSequence seeds(99);
  StopRule rule;
  rule.max_rounds = 100000;
  const Configuration init = init_half(64, Opinion::kOne);
  const auto runner = [&](Rng& rng) { return engine.run(init, rule, rng); };

  const ConvergenceMeasurement serial =
      measure_convergence(runner, seeds, 7, 40);
  const ConvergenceMeasurement parallel =
      measure_convergence_parallel(runner, seeds, 7, 40, 4);

  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.censored, parallel.censored);
  EXPECT_EQ(serial.round_samples, parallel.round_samples);
  EXPECT_DOUBLE_EQ(serial.rounds.mean(), parallel.rounds.mean());
  EXPECT_DOUBLE_EQ(serial.rounds_lower_bound.mean(),
                   parallel.rounds_lower_bound.mean());
}

TEST(WorstInitialState, MinorityLandscapeIsFlatTrapDominated) {
  // For minority(l=3) with z = 1 every transient start funnels into the
  // stable mixed state, so expected times are nearly identical everywhere:
  // the worst start beats the mid start by well under 1% — the escape from
  // the trap dominates, not the approach. (Contrast Voter below.)
  const MinorityDynamics minority(3);
  const DenseParallelChain chain(minority, 24, Opinion::kOne);
  const WorstInitialState worst = worst_initial_state(chain);
  const auto times = expected_convergence_rounds(chain);
  const double mid = times[12 - chain.min_state()];
  EXPECT_GT(worst.expected_rounds, 0.0);
  EXPECT_LT(worst.expected_rounds / mid, 1.01);
}

TEST(WorstInitialState, VoterWorstStartIsAllWrong) {
  // Voter has no trap: the farther from consensus, the longer — the worst
  // start is the all-wrong configuration x = 1.
  const VoterDynamics voter;
  const DenseParallelChain chain(voter, 20, Opinion::kOne);
  const WorstInitialState worst = worst_initial_state(chain);
  EXPECT_EQ(worst.state, 1u);
}

TEST(WorstInitialState, ConsensusIsNeverWorst) {
  const MinorityDynamics minority(3);
  const DenseParallelChain chain(minority, 16, Opinion::kZero);
  const WorstInitialState worst = worst_initial_state(chain);
  EXPECT_NE(worst.state, chain.correct_consensus_state());
}

}  // namespace
}  // namespace bitspread
