#include "arith.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "stats/quantiles.h"

namespace perfbench {

double percentile(const std::vector<double>& samples, double q) {
  return bitspread::quantile(std::span<const double>(samples), q);
}

double supported_tail_percentile(std::size_t count) noexcept {
  // count * (1 - q) samples lie beyond the q-quantile. Integer form of
  // count * (1 - q) >= kTailSupport for q = 0.999, 0.99, 0.9.
  if (count >= kTailSupport * 1000) return 99.9;
  if (count >= kTailSupport * 100) return 99.0;
  if (count >= kTailSupport * 10) return 90.0;
  return 50.0;
}

TimingSummary summarize(const std::vector<double>& samples) {
  TimingSummary out;
  out.count = samples.size();
  out.median = percentile(samples, 0.5);
  out.tail_percentile = supported_tail_percentile(samples.size());
  out.tail = percentile(samples, out.tail_percentile / 100.0);
  return out;
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) {
    throw std::invalid_argument("failed_frac: nothing was attempted");
  }
  return static_cast<double>(std::min(failed, attempted)) /
         static_cast<double>(attempted);
}

double run_loop_ns_per_round(double run_ns, std::uint64_t run_rounds,
                             double step_ns, std::uint64_t step_calls) {
  if (run_rounds == 0 || step_calls == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return run_ns / static_cast<double>(run_rounds) -
         step_ns / static_cast<double>(step_calls);
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children grouped by parent index, each group swept once in start order.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0 || span.parent > spans.size()) continue;
    children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t begin = spans[i].start_ns;
    const std::uint64_t end = std::max(spans[i].end_ns, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = begin;  // Everything before cursor is counted.
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, end);
      if (hi <= lo) continue;
      covered += hi - lo;
      cursor = hi;
    }
    out[i] = (end - begin) - covered;
  }
  return out;
}

double fanout_utilization(const std::vector<Span>& spans,
                          const std::vector<std::uint64_t>& parents,
                          unsigned workers) {
  std::vector<char> is_parent(spans.size() + 1, 0);
  double wall = 0.0;
  for (const std::uint64_t id : parents) {
    if (id == 0 || id > spans.size() || is_parent[id]) continue;
    is_parent[id] = 1;
    wall += static_cast<double>(spans[id - 1].end_ns - spans[id - 1].start_ns);
  }
  if (workers == 0 || wall <= 0.0) return 0.0;
  double busy = 0.0;
  for (const Span& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size() &&
        is_parent[span.parent]) {
      busy += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return busy / (static_cast<double>(workers) * wall);
}

double kernel_computed_bytes_per_step(std::uint32_t ell) noexcept {
  return 2.0 / 8.0 + 8.0 * static_cast<double>(ell);
}

bool ResidualCheck::add(double observed, double mean,
                        double variance) noexcept {
  if (!(variance > 0.0)) return false;
  const double r = (observed - mean) / std::sqrt(variance);
  ++count_;
  sum_ += r;
  sum_sq_ += r * r;
  max_abs_ = std::max(max_abs_, std::fabs(r));
  if (std::fabs(r) > kMaxAbs) ++outliers_;
  return true;
}

void ResidualCheck::merge(const ResidualCheck& other) noexcept {
  count_ += other.count_;
  outliers_ += other.outliers_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  max_abs_ = std::max(max_abs_, other.max_abs_);
}

double ResidualCheck::z() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / std::sqrt(static_cast<double>(count_));
}

double ResidualCheck::mean_square() const noexcept {
  return count_ == 0 ? 0.0 : sum_sq_ / static_cast<double>(count_);
}

bool ResidualCheck::ok() const noexcept {
  if (count_ == 0) return false;
  const double var_tolerance =
      kMaxZ * std::sqrt(2.0 / static_cast<double>(count_));
  return std::fabs(z()) <= kMaxZ && outliers_ == 0 &&
         std::fabs(mean_square() - 1.0) <= var_tolerance;
}

bool mean_within(double mean, double stderr_mean, std::uint64_t count,
                 double exact, double max_z) noexcept {
  if (count < 2 || !(stderr_mean > 0.0)) return false;
  return std::fabs(mean - exact) <= max_z * stderr_mean;
}

}  // namespace perfbench
