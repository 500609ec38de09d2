#include "sim/parallel.h"

#include <algorithm>
#include <exception>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "telemetry/trace.h"

namespace bitspread {
namespace {

// Set while a thread is executing pool items (a helper, or the caller
// inside run()); nested run() calls from such a thread fall back to inline
// serial execution instead of deadlocking on the pool they occupy.
thread_local bool t_inside_pool_worker = false;

// Low bits of the generation word carry the helper count (< kMaxWorkers).
constexpr unsigned kHelperBits = 8;
constexpr std::uint64_t kHelperMask = (std::uint64_t{1} << kHelperBits) - 1;
static_assert(WorkerPool::kMaxWorkers <= kHelperMask);

}  // namespace

double WorkerPoolTelemetry::utilization() const noexcept {
  if (participant_ns == 0) return 0.0;
  std::uint64_t busy = 0;
  for (const Worker& worker : workers) busy += worker.busy_ns;
  return static_cast<double>(busy) / static_cast<double>(participant_ns);
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  word_.fetch_add(std::uint64_t{1} << kHelperBits, std::memory_order_release);
  word_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

unsigned WorkerPool::worker_count() const {
  return spawned_.load(std::memory_order_acquire);
}

WorkerPoolTelemetry WorkerPool::telemetry() const {
  WorkerPoolTelemetry out;
  out.generations = generations_total_.load(std::memory_order_relaxed);
  out.dispatch_ns = dispatch_ns_.load(std::memory_order_relaxed);
  out.participant_ns = participant_ns_.load(std::memory_order_relaxed);
  const unsigned slots = 1 + worker_count();
  out.workers.resize(slots);
  for (unsigned i = 0; i < slots; ++i) {
    const WorkerStats& stats = worker_stats_[i];
    out.workers[i].busy_ns = stats.busy_ns.load(std::memory_order_relaxed);
    out.workers[i].items = stats.items.load(std::memory_order_relaxed);
    out.workers[i].generations =
        stats.generations.load(std::memory_order_relaxed);
    out.items += out.workers[i].items;
    out.wake_ns += stats.wake_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void WorkerPool::reset_telemetry() {
  generations_total_.store(0, std::memory_order_relaxed);
  dispatch_ns_.store(0, std::memory_order_relaxed);
  participant_ns_.store(0, std::memory_order_relaxed);
  for (WorkerStats& stats : worker_stats_) {
    stats.busy_ns.store(0, std::memory_order_relaxed);
    stats.wake_ns.store(0, std::memory_order_relaxed);
    stats.items.store(0, std::memory_order_relaxed);
    stats.generations.store(0, std::memory_order_relaxed);
  }
}

void WorkerPool::ensure_helpers(unsigned target) {
  // Called under run_mu_, between generations: a new helper starts from
  // the current word and so waits for the generation about to be published.
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  while (helpers_.size() < target) {
    const unsigned helper = static_cast<unsigned>(helpers_.size());
    helpers_.emplace_back([this, helper, word] { helper_main(helper, word); });
  }
  spawned_.store(static_cast<unsigned>(helpers_.size()),
                 std::memory_order_release);
}

void WorkerPool::helper_main(unsigned helper, std::uint64_t seen) {
  while (true) {
    // std::atomic::wait spins briefly, then parks in a futex.
    word_.wait(seen, std::memory_order_acquire);
    seen = word_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (helper >= (seen & kHelperMask)) continue;  // Sitting this one out.
    // The acquire load of `seen` made this generation's payload visible.
    const std::uint64_t woke_ns = telemetry::clock_now_ns();
    worker_stats_[1 + helper].wake_ns.fetch_add(woke_ns - gen_start_ns_,
                                                std::memory_order_relaxed);
    drain(1 + helper, woke_ns);
    // Release: this helper's items and stats happen-before the caller's
    // return from run().
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void WorkerPool::drain(unsigned slot, std::uint64_t woke_ns) {
  const std::function<void(int)>& fn = *fn_;
  const int count = count_;
  std::uint64_t items = 0;
  t_inside_pool_worker = true;
  try {
    for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      ++items;
    }
  } catch (...) {
    // The first failure is rethrown by run() after the join; this thread
    // stops claiming items, the others finish theirs.
    bool expected = false;
    if (failed_.compare_exchange_strong(expected, true,
                                        std::memory_order_relaxed)) {
      failure_ = std::current_exception();
    }
  }
  t_inside_pool_worker = false;
  const std::uint64_t busy_end_ns = telemetry::clock_now_ns();
  // Reuses the clock reads already taken for busy_ns accounting: an
  // installed flight recorder costs the pool no extra clock traffic.
  if (telemetry::TraceRecorder* recorder =
          telemetry::observers.trace.load(std::memory_order_acquire)) {
    recorder->span("worker_busy", woke_ns, busy_end_ns);
  }
  WorkerStats& stats = worker_stats_[slot];
  stats.busy_ns.fetch_add(busy_end_ns - woke_ns, std::memory_order_relaxed);
  stats.items.fetch_add(items, std::memory_order_relaxed);
  stats.generations.fetch_add(1, std::memory_order_relaxed);
}

unsigned host_concurrency() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int usable = CPU_COUNT(&set);
    if (usable > 0) return static_cast<unsigned>(usable);
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) return static_cast<unsigned>(online);
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned planned_workers(int count, unsigned threads) noexcept {
  if (count <= 0) return 0;
  const unsigned target = threads == 0 ? host_concurrency() : threads;
  return std::max(1u, std::min({target, WorkerPool::kMaxWorkers,
                                static_cast<unsigned>(count)}));
}

void WorkerPool::run(int count, const std::function<void(int)>& fn,
                     unsigned threads) {
  if (count <= 0) return;
  const unsigned target = planned_workers(count, threads);
  if (target == 1 || t_inside_pool_worker) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  const telemetry::ScopedTimer dispatch_timer(
      telemetry::Phase::kPoolDispatch);
  const unsigned helpers = target - 1;
  ensure_helpers(helpers);
  // The previous generation's helpers are all done (pending_ reached 0),
  // so nobody reads the payload while it is rewritten.
  fn_ = &fn;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  pending_.store(helpers, std::memory_order_relaxed);
  gen_start_ns_ = telemetry::clock_now_ns();
  const std::uint64_t sequence =
      (word_.load(std::memory_order_relaxed) >> kHelperBits) + 1;
  word_.store((sequence << kHelperBits) | helpers, std::memory_order_release);
  word_.notify_all();

  drain(0, telemetry::clock_now_ns());
  for (unsigned left = pending_.load(std::memory_order_acquire); left != 0;
       left = pending_.load(std::memory_order_acquire)) {
    pending_.wait(left, std::memory_order_acquire);
  }
  fn_ = nullptr;
  const std::uint64_t wall_ns = telemetry::clock_now_ns() - gen_start_ns_;
  generations_total_.fetch_add(1, std::memory_order_relaxed);
  dispatch_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
  participant_ns_.fetch_add(wall_ns * target, std::memory_order_relaxed);
  if (failed_.load(std::memory_order_relaxed)) {
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(failure_, nullptr));
  }
}

void parallel_for(int count, const std::function<void(int)>& fn,
                  unsigned max_threads) {
  WorkerPool::shared().run(count, fn, max_threads);
}

ConvergenceMeasurement measure_convergence_parallel(
    const std::function<RunResult(Rng&)>& single_run,
    const SeedSequence& seeds, std::uint64_t cell, int replicates,
    unsigned max_threads) {
  // Collect per-replicate results, then fold in replicate order so the
  // aggregate (including round_samples ordering) matches the serial path
  // exactly.
  std::vector<RunResult> results(static_cast<std::size_t>(replicates));
  parallel_for(
      replicates,
      [&](int rep) {
        Rng rng = seeds.stream(cell, static_cast<std::uint64_t>(rep));
        results[static_cast<std::size_t>(rep)] = single_run(rng);
      },
      max_threads);

  ConvergenceMeasurement out;
  out.replicates = replicates;
  for (const RunResult& result : results) {
    const double rounds = result.parallel_rounds();
    out.rounds_lower_bound.add(rounds);
    if (result.reason == StopReason::kCorrectConsensus) {
      ++out.converged;
      out.rounds.add(rounds);
      out.round_samples.push_back(rounds);
    } else if (result.reason == StopReason::kRoundLimit ||
               result.reason == StopReason::kDegraded) {
      ++out.censored;
      if (result.reason == StopReason::kDegraded) ++out.degraded;
    } else {
      ++out.wrong_outcome;
    }
  }
  return out;
}

}  // namespace bitspread
