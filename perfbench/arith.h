// The benchmark's own arithmetic, kept free of timing and I/O so that
// arith_test.cc can pin every formula the reported metrics rest on.
#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// A timing distribution as the benchmark reports it: the median, and the
// highest of the p90 / p99 / p99.9 percentiles that still has at least
// kTailSupport samples beyond it (the median when even p90 has fewer).
// Percentiles interpolate between order statistics (type 7, the stats
// layer's quantile()).
struct TimingSummary {
  std::size_t count = 0;
  double median = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;  // 50, 90, 99 or 99.9.
};
inline constexpr std::size_t kTailSupport = 10;

// q in [0, 1]; NaN for an empty sample.
double percentile(const std::vector<double>& samples, double q);
// The highest supported percentile (see TimingSummary) for `count` samples.
double supported_tail_percentile(std::size_t count) noexcept;
TimingSummary summarize(const std::vector<double>& samples);

// failed / attempted. The base must be positive: a run that attempted
// nothing has no failure rate, and the caller reports that as an error.
double failed_frac(std::uint64_t failed, std::uint64_t attempted);

// RunDriver overhead per round: run() time per round minus step() time per
// step. Either side may come from a different number of calls; the result
// may be negative when the difference is inside the noise.
double run_loop_ns_per_round(double run_ns, std::uint64_t run_rounds,
                             double step_ns, std::uint64_t step_calls);

// One recorded span. `parent` is the id of the enclosing span (0 = root);
// a span's id is its index in the recording plus one.
struct Span {
  const char* name = "";
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals (children that run
// concurrently on several threads are not double-subtracted).
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

// Busy time of the children of the `parents` fan-out spans divided by
// (workers * summed fan-out duration): the share of the paid-for worker
// time the fan-outs used.
double fanout_utilization(const std::vector<Span>& spans,
                          const std::vector<std::uint64_t>& parents,
                          unsigned workers);

// Bytes one bitslice agent-step moves, computed from the plane layout (not
// measured): the own bit read from the round-t plane and the new bit
// written to the round-t+1 plane (1/8 byte each), plus one 64-bit word
// gathered from the round-t plane per sampled neighbor.
double kernel_computed_bytes_per_step(std::uint32_t ell) noexcept;

// Standardized residuals r = (X' - E[X' | x]) / sd[X' | x] of the observed
// one-round moves, accumulated over a run. Under a correct engine they are
// martingale differences with unit variance, so the scaled sum is ~N(0, 1)
// and the mean square is ~1 with standard error sqrt(2 / count).
class ResidualCheck {
 public:
  // Gates: |sum / sqrt(count)| <= kMaxZ, every |r| <= kMaxAbs, and
  // |mean square - 1| <= kMaxZ * sqrt(2 / count).
  static constexpr double kMaxZ = 5.0;
  static constexpr double kMaxAbs = 7.0;

  // Returns false (and records nothing) for a non-positive variance.
  bool add(double observed, double mean, double variance) noexcept;
  void merge(const ResidualCheck& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t outliers() const noexcept { return outliers_; }
  double z() const noexcept;
  double mean_square() const noexcept;
  double max_abs() const noexcept { return max_abs_; }
  bool ok() const noexcept;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t outliers_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double max_abs_ = 0.0;
};

// The mean within kMaxZ standard errors of the exact value, with at least
// two samples (a single sample has no standard error).
bool mean_within(double mean, double stderr_mean, std::uint64_t count,
                 double exact, double max_z = 5.0) noexcept;

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
