#include "random/binomial.h"

#include <algorithm>
#include <cmath>

#include "random/log_gamma.h"

namespace bitspread {
namespace binomial_detail {

// BINV: sequential CDF inversion with the pmf recurrence
//   pmf(x+1) = pmf(x) * (n-x)/(x+1) * p/(1-p).
// Requires n*p small enough that q^n does not underflow; callers guarantee
// n*p <= kInversionThreshold, so q^n >= exp(-~10.5) comfortably.
std::uint64_t binv(Rng& rng, std::uint64_t n, double p) noexcept {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  while (true) {  // Restart on the (astronomically rare) u ~ 1 tail overrun.
    double r = std::exp(static_cast<double>(n) * std::log1p(-p));  // q^n
    double u = rng.next_double();
    std::uint64_t x = 0;
    bool done = false;
    while (x <= n) {
      if (u <= r) {
        done = true;
        break;
      }
      u -= r;
      ++x;
      r *= a / static_cast<double>(x) - s;
      if (r <= 0.0) break;  // Numerical tail exhausted.
    }
    if (done) return std::min(x, n);
  }
}

namespace {
// Stirling-series correction f_c(k) = ln(k!) - [ (k+1/2)ln(k+1) - (k+1) +
// 0.5 ln(2 pi) ] used by BTRS, following Hoermann (1993).
double stirling_correction(double k) noexcept {
  static constexpr double kTable[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}
}  // namespace

// BTRS (Hoermann 1993, "The generation of binomial random variates",
// algorithm as used in practice e.g. by TensorFlow): transformed rejection
// with squeeze; exact for p in (0, 0.5], n*p >= 10.
std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) noexcept {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double stddev = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);

  while (true) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_correction(m) + stirling_correction(nd - m) -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace binomial_detail

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < binomial_detail::kInversionThreshold) {
    return binomial_detail::binv(rng, n, p);
  }
  return binomial_detail::btrs(rng, n, p);
}

double binomial_log_pmf(double n, double k, double p) noexcept {
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0) +
         k * std::log(p) + (n - k) * std::log1p(-p);
}

std::vector<double> binomial_pmf(std::uint64_t n, double p) {
  std::vector<double> pmf(n + 1, 0.0);
  if (p <= 0.0) {
    pmf[0] = 1.0;
    return pmf;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return pmf;
  }
  // Start from the mode in log-space to avoid underflow at either tail, then
  // extend with the multiplicative recurrence in both directions.
  const double nd = static_cast<double>(n);
  const auto mode = static_cast<std::uint64_t>(
      std::min(nd, std::floor((nd + 1.0) * p)));
  pmf[mode] = std::exp(binomial_log_pmf(nd, static_cast<double>(mode), p));
  const double ratio = p / (1.0 - p);
  for (std::uint64_t k = mode; k < n; ++k) {
    pmf[k + 1] = pmf[k] * ratio * (nd - static_cast<double>(k)) /
                 (static_cast<double>(k) + 1.0);
  }
  for (std::uint64_t k = mode; k > 0; --k) {
    pmf[k - 1] = pmf[k] / ratio * static_cast<double>(k) /
                 (nd - static_cast<double>(k) + 1.0);
  }
  return pmf;
}

double binomial_cdf(std::uint64_t n, double p, std::uint64_t k) {
  if (k >= n) return 1.0;
  const auto pmf = binomial_pmf(n, p);
  // Sum the smaller tail for accuracy.
  if (k <= n / 2) {
    double acc = 0.0;
    for (std::uint64_t i = 0; i <= k; ++i) acc += pmf[i];
    return std::min(acc, 1.0);
  }
  double acc = 0.0;
  for (std::uint64_t i = n; i > k; --i) acc += pmf[i];
  return std::max(0.0, 1.0 - acc);
}

}  // namespace bitspread
