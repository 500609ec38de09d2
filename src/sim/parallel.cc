#include "sim/parallel.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "telemetry/trace.h"

namespace bitspread {
namespace {

// Set while a thread is executing pool work; nested run() calls from such a
// thread fall back to inline serial execution instead of deadlocking on the
// pool they are already occupying.
thread_local bool t_inside_pool_worker = false;

}  // namespace

double WorkerPoolTelemetry::utilization() const noexcept {
  if (dispatch_ns == 0 || workers.empty()) return 0.0;
  std::uint64_t busy = 0;
  for (const Worker& worker : workers) busy += worker.busy_ns;
  // Each dispatched generation paid for `active` workers, but summing
  // per-generation active counts would need per-generation records; the
  // spawned worker count is the stable upper bound the pool actually holds.
  const double paid = static_cast<double>(dispatch_ns) *
                      static_cast<double>(workers.size());
  return paid > 0.0 ? static_cast<double>(busy) / paid : 0.0;
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

unsigned WorkerPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(workers_.size());
}

WorkerPoolTelemetry WorkerPool::telemetry() const {
  WorkerPoolTelemetry out;
  out.generations = generations_total_.load(std::memory_order_relaxed);
  out.dispatch_ns = dispatch_ns_.load(std::memory_order_relaxed);
  const unsigned spawned = worker_count();
  out.workers.resize(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
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
  for (WorkerStats& stats : worker_stats_) {
    stats.busy_ns.store(0, std::memory_order_relaxed);
    stats.wake_ns.store(0, std::memory_order_relaxed);
    stats.items.store(0, std::memory_order_relaxed);
    stats.generations.store(0, std::memory_order_relaxed);
  }
}

void WorkerPool::ensure_workers(unsigned target) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < target) {
    const unsigned slot = static_cast<unsigned>(workers_.size());
    workers_.emplace_back(
        [this, slot, spawn_gen = generation_] { worker_main(slot, spawn_gen); });
  }
}

void WorkerPool::worker_main(unsigned slot, std::uint64_t spawn_generation) {
  std::uint64_t seen = spawn_generation;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (slot >= active_) continue;  // Not participating this generation.
    const std::function<void(int)>* fn = fn_;
    const int count = count_;
    const std::uint64_t gen_start_ns = gen_start_ns_;  // Read under mu_.
    lock.unlock();
    const std::uint64_t woke_ns = telemetry::clock_now_ns();
    std::uint64_t my_items = 0;
    t_inside_pool_worker = true;
    while (true) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      (*fn)(i);
      ++my_items;
    }
    t_inside_pool_worker = false;
    const std::uint64_t busy_end_ns = telemetry::clock_now_ns();
    // Reuses the two clock reads already taken for busy_ns accounting: an
    // installed flight recorder costs the pool no extra clock traffic.
    if (telemetry::TraceRecorder* recorder =
            telemetry::observers.trace.load(std::memory_order_acquire)) {
      recorder->span("worker_busy", woke_ns, busy_end_ns);
    }
    WorkerStats& stats = worker_stats_[slot];
    stats.busy_ns.fetch_add(busy_end_ns - woke_ns,
                            std::memory_order_relaxed);
    stats.wake_ns.fetch_add(woke_ns - gen_start_ns, std::memory_order_relaxed);
    stats.items.fetch_add(my_items, std::memory_order_relaxed);
    stats.generations.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_all();
  }
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
  ensure_workers(target);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    active_ = target;
    pending_ = target;
    ++generation_;
    gen_start_ns_ = telemetry::clock_now_ns();
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  fn_ = nullptr;
  lock.unlock();
  generations_total_.fetch_add(1, std::memory_order_relaxed);
  dispatch_ns_.fetch_add(telemetry::clock_now_ns() - gen_start_ns_,
                         std::memory_order_relaxed);
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
