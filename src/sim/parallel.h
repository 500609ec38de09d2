// Thread-parallel replication and the shared worker pool.
//
// Because every replicate draws its randomness from its own derived stream
// (SeedSequence), results are IDENTICAL whether replicates run serially or
// across threads, in any interleaving — so parallelism is a pure wall-clock
// optimization with no reproducibility cost (tested). The sharded agent
// engine (engine/sharded.h) pushes the same guarantee down into a single
// run, and shares the pool below so per-round dispatch does not pay thread
// creation.
#ifndef BITSPREAD_SIM_PARALLEL_H_
#define BITSPREAD_SIM_PARALLEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/telemetry.h"

namespace bitspread {

// Pool utilization counters. Totals accumulate since process start or the
// last reset_telemetry(); read them between run() calls — the pool's join
// gives the happens-before that makes the numbers exact.
struct WorkerPoolTelemetry {
  std::uint64_t generations = 0;  // Dispatched fan-outs (inline runs excluded).
  std::uint64_t items = 0;        // Work items run by the participants.
  std::uint64_t dispatch_ns = 0;  // run() wall time, dispatch through join.
  std::uint64_t wake_ns = 0;      // Sum of per-helper dispatch->wake latency.
  // Sum over generations of dispatch wall time x participants (caller
  // included): the worker-time the dispatched generations paid for.
  std::uint64_t participant_ns = 0;

  struct Worker {
    std::uint64_t busy_ns = 0;      // Time inside the item loop.
    std::uint64_t items = 0;
    std::uint64_t generations = 0;  // Generations this slot took part in.
  };
  // Slot 0 is the calling thread of run(), which steps items too; slot
  // 1 + h is pool helper h.
  std::vector<Worker> workers;

  // Busy time across participants divided by participant_ns (0 when
  // nothing was dispatched).
  double utilization() const noexcept;
};

// A persistent pool of helper threads with generation-based dispatch.
// Threads are created once (lazily, growing on demand up to kMaxWorkers - 1)
// and parked between runs, so fine-grained work — e.g. one simulation round
// — can be fanned out every few microseconds without spawn/join cost.
// The calling thread claims items from the same cursor as the helpers, so
// a run on k threads wakes k - 1 helpers (DESIGN.md §3.1).
//
// Scheduling never influences results anywhere in the library (work items
// own derived RNG streams), so the pool is a pure wall-clock device.
class WorkerPool {
 public:
  // Process-wide pool used by parallel_for and the sharded engine.
  static WorkerPool& shared();

  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) for i in [0, count), blocking until all items finish.
  // `threads` caps the number of participating threads, the caller
  // included (0 = hardware concurrency); oversubscription beyond the
  // hardware is honored up to kMaxWorkers, which lets determinism tests
  // exercise real interleaving even on small machines. Calls from inside a
  // pool item (on a helper or on the calling thread) run inline and
  // serially (no deadlock on nesting); concurrent callers are serialized.
  // fn must be safe to call concurrently for distinct i.
  void run(int count, const std::function<void(int)>& fn,
           unsigned threads = 0);

  // Helper threads currently parked in the pool (grows on demand; for
  // tests).
  unsigned worker_count() const;

  // Pool utilization since process start / the last reset. Call between
  // run() calls; inline-serial and nested executions are not counted.
  WorkerPoolTelemetry telemetry() const;
  void reset_telemetry();

  // Upper bound on participating threads (caller + helpers); requests
  // beyond it are clamped.
  static constexpr unsigned kMaxWorkers = 64;

 private:
  WorkerPool() = default;

  void ensure_helpers(unsigned target);
  void helper_main(unsigned helper, std::uint64_t seen);
  // Claims items from next_ until the cursor passes count_ and records the
  // busy span in stats slot `slot`.
  void drain(unsigned slot, std::uint64_t woke_ns);

  // One cache line per slot: each slot is written only by its thread, so
  // recording is uncontended; totals are summed when read.
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> wake_ns{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> generations{0};
  };
  // Fixed-capacity so recording never allocates or locks; slots beyond the
  // spawned helpers stay zero.
  std::array<WorkerStats, kMaxWorkers> worker_stats_;
  // Written only by the dispatching thread, under run_mu_.
  std::atomic<std::uint64_t> generations_total_{0};
  std::atomic<std::uint64_t> dispatch_ns_{0};
  std::atomic<std::uint64_t> participant_ns_{0};

  // Per-generation payload: written by the caller before it publishes the
  // generation word, read by helpers after they acquire it.
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  std::uint64_t gen_start_ns_ = 0;

  // The generation word: (sequence << 8) | helpers taking part.
  // Helpers wait on it; the participant count travels in the same word so
  // a helper that wakes late can never pair one generation's count with
  // another's payload.
  alignas(64) std::atomic<std::uint64_t> word_{0};
  alignas(64) std::atomic<int> next_{0};        // Item cursor.
  alignas(64) std::atomic<unsigned> pending_{0};  // Helpers not yet done.
  std::atomic<bool> stop_{false};
  // First exception an item threw this generation; set by the participant
  // that wins failed_, read by the caller after the join.
  std::atomic<bool> failed_{false};
  std::exception_ptr failure_;
  std::atomic<unsigned> spawned_{0};  // helpers_.size(), readable unlocked.

  std::mutex run_mu_;  // Serializes run() callers; guards helpers_.
  std::vector<std::thread> helpers_;
};

// Runs fn(i) for i in [0, count) across up to max_threads threads
// (0 = hardware concurrency) on the shared pool. fn must be safe to call
// concurrently for distinct i.
void parallel_for(int count, const std::function<void(int)>& fn,
                  unsigned max_threads = 0);

// CPUs actually usable by this process: the scheduling-affinity mask when
// the OS exposes one (containers and cpusets shrink it), otherwise the
// online-CPU count, otherwise std::thread::hardware_concurrency(). Always
// >= 1. std::thread::hardware_concurrency() alone may return 0 ("unknown"),
// which bench reports used to record as a 1-core host — use this instead
// anywhere a human or the bench-history gate will read the number.
unsigned host_concurrency() noexcept;

// The worker count a WorkerPool::run(count, fn, threads) call would actually
// use after clamping (0 = host concurrency, capped by kMaxWorkers and by
// count). Lets bench rows report the thread count that really ran instead
// of the requested one.
unsigned planned_workers(int count, unsigned threads) noexcept;

// Drop-in parallel variant of measure_convergence: same inputs, identical
// output (per-replicate seed streams make the result schedule-independent).
ConvergenceMeasurement measure_convergence_parallel(
    const std::function<RunResult(Rng&)>& single_run,
    const SeedSequence& seeds, std::uint64_t cell, int replicates,
    unsigned max_threads = 0);

}  // namespace bitspread

#endif  // BITSPREAD_SIM_PARALLEL_H_
