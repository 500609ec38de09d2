#include "random/binomial.h"

#include <algorithm>
#include <cmath>

#include "random/log_gamma.h"

namespace bitspread {
BinomialSampler::BinomialSampler(std::uint64_t n, double p) noexcept : n_(n) {
  if (n == 0 || p <= 0.0) return;
  flip_ = p > 0.5;
  if (p >= 1.0) return;  // n - Bin(n, 0).
  if (flip_) p = 1.0 - p;
  if (static_cast<double>(n) * p < binomial_detail::kInversionThreshold) {
    prepare_inversion(p);
  } else {
    prepare_rejection(p);
  }
}

BinomialSampler BinomialSampler::tabulated(std::uint64_t n,
                                           double p) noexcept {
  BinomialSampler sampler(n, p);
  if (sampler.regime_ != Regime::kInversion) return sampler;
  sampler.regime_ = Regime::kTable;
  // invert()'s terms in its order: r_0 = q^n, then r_x from r_{x-1} for
  // x <= n while positive.
  double r = sampler.q_pow_n_;
  sampler.terms_[0] = r;
  sampler.terms_len_ = 1;
  for (std::uint64_t x = 1; x < kTableTerms && x <= n; ++x) {
    r *= sampler.binv_a_ / static_cast<double>(x) - sampler.odds_;
    if (r <= 0.0) break;
    sampler.terms_[sampler.terms_len_++] = r;
  }
  return sampler;
}

std::uint64_t BinomialSampler::draw(Rng& rng) const noexcept {
  std::uint64_t k = 0;
  switch (regime_) {
    case Regime::kZero:
      break;
    case Regime::kInversion:
      k = invert(rng);
      break;
    case Regime::kTable:
      k = walk_table(rng);
      break;
    case Regime::kRejection:
      k = reject(rng);
      break;
  }
  return flip_ ? n_ - k : k;
}

// BINV: sequential CDF inversion with the pmf recurrence
//   pmf(x+1) = pmf(x) * (n-x)/(x+1) * p/(1-p).
// Requires n*p small enough that q^n does not underflow; the regime choice
// guarantees n*p <= kInversionThreshold, so q^n >= exp(-~10.5) comfortably.
void BinomialSampler::prepare_inversion(double p) noexcept {
  regime_ = Regime::kInversion;
  const double q = 1.0 - p;
  odds_ = p / q;
  binv_a_ = static_cast<double>(n_ + 1) * odds_;
  q_pow_n_ = std::exp(static_cast<double>(n_) * std::log1p(-p));
}

std::uint64_t BinomialSampler::invert(Rng& rng) const noexcept {
  while (true) {  // Restart on the (astronomically rare) u ~ 1 tail overrun.
    double r = q_pow_n_;
    double u = rng.next_double();
    std::uint64_t x = 0;
    bool done = false;
    while (x <= n_) {
      if (u <= r) {
        done = true;
        break;
      }
      u -= r;
      ++x;
      r *= binv_a_ / static_cast<double>(x) - odds_;
      if (r <= 0.0) break;  // Numerical tail exhausted.
    }
    if (done) return std::min(x, n_);
  }
}

// Only a full table can have more of the walk after it: a shorter one ended
// at x > n or r <= 0.
std::uint64_t BinomialSampler::walk_past_table(double u) const noexcept {
  if (terms_len_ < kTableTerms) return kRestart;
  std::uint64_t x = kTableTerms - 1;
  double r = terms_[x];
  while (++x <= n_) {
    r *= binv_a_ / static_cast<double>(x) - odds_;
    if (r <= 0.0) break;
    if (u <= r) return x;
    u -= r;
  }
  return kRestart;
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
// with squeeze; exact for p in (0, 0.5], n*p >= 10. The terms that depend on
// the mode m are computed on the slow path only, so a one-shot draw that
// the squeeze accepts does no more work than it needs.
void BinomialSampler::prepare_rejection(double p) noexcept {
  regime_ = Regime::kRejection;
  p_ = p;
  const double nd = static_cast<double>(n_);
  const double q = 1.0 - p;
  const double stddev = std::sqrt(nd * p * q);
  b_ = 1.15 + 2.53 * stddev;
  a_ = -0.0873 + 0.0248 * b_ + 0.01 * p;
  c_ = nd * p + 0.5;
  v_r_ = 0.92 - 4.2 / b_;
  odds_ = p / q;
  alpha_ = (2.83 + 5.1 / b_) * stddev;
}

std::uint64_t BinomialSampler::reject(Rng& rng) const noexcept {
  const double nd = static_cast<double>(n_);
  const double r = odds_;
  while (true) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a_ / us + b_) * u + c_);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r_) return static_cast<std::uint64_t>(kd);
    v = std::log(v * alpha_ / (a_ / (us * us) + b_));
    const double m = std::floor((nd + 1.0) * p_);
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_correction(m) + stirling_correction(nd - m) -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

namespace binomial_detail {

// Flattened like binomial() below.
[[gnu::flatten]] std::uint64_t binv(Rng& rng, std::uint64_t n,
                                    double p) noexcept {
  BinomialSampler sampler;
  sampler.n_ = n;
  sampler.prepare_inversion(p);
  return sampler.invert(rng);
}

[[gnu::flatten]] std::uint64_t btrs(Rng& rng, std::uint64_t n,
                                    double p) noexcept {
  BinomialSampler sampler;
  sampler.n_ = n;
  sampler.prepare_rejection(p);
  return sampler.reject(rng);
}

}  // namespace binomial_detail

// Flattened: with the constructor and the draw inlined, a one-shot sampler
// stays in registers instead of being built in memory and read back.
[[gnu::flatten]] std::uint64_t binomial(Rng& rng, std::uint64_t n,
                                        double p) noexcept {
  return BinomialSampler(n, p).draw(rng);
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
