#include "stats/ks.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "random/log_gamma.h"

namespace bitspread {

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  assert(!a.empty() && !b.empty());
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  while (i < sa.size() && j < sb.size()) {
    const double x = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] <= x) ++i;
    while (j < sb.size() && sb[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

double ks_p_value(double statistic, std::size_t n_a, std::size_t n_b) {
  const double na = static_cast<double>(n_a);
  const double nb = static_cast<double>(n_b);
  const double en = std::sqrt(na * nb / (na + nb));
  const double lambda = (en + 0.12 + 0.11 / en) * statistic;
  // Kolmogorov distribution tail: 2 sum (-1)^{k-1} exp(-2 k^2 lambda^2).
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

double chi_square_statistic(std::span<const std::uint64_t> observed,
                            std::span<const double> expected_probability,
                            std::uint64_t total, int* dof,
                            double min_expected) {
  assert(observed.size() == expected_probability.size());
  // Pool adjacent low-expectation bins left to right.
  std::vector<double> pooled_expected;
  std::vector<double> pooled_observed;
  double acc_e = 0.0;
  double acc_o = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    acc_e += expected_probability[i] * static_cast<double>(total);
    acc_o += static_cast<double>(observed[i]);
    if (acc_e >= min_expected) {
      pooled_expected.push_back(acc_e);
      pooled_observed.push_back(acc_o);
      acc_e = 0.0;
      acc_o = 0.0;
    }
  }
  if (acc_e > 0.0 && !pooled_expected.empty()) {
    pooled_expected.back() += acc_e;
    pooled_observed.back() += acc_o;
  } else if (acc_e > 0.0) {
    pooled_expected.push_back(acc_e);
    pooled_observed.push_back(acc_o);
  }
  double stat = 0.0;
  for (std::size_t i = 0; i < pooled_expected.size(); ++i) {
    if (pooled_expected[i] <= 0.0) continue;
    const double diff = pooled_observed[i] - pooled_expected[i];
    stat += diff * diff / pooled_expected[i];
  }
  if (dof != nullptr) {
    *dof = std::max(1, static_cast<int>(pooled_expected.size()) - 1);
  }
  return stat;
}

namespace {

// Regularized lower incomplete gamma P(s, x), via series (x < s+1) or
// continued fraction (x >= s+1). Standard Numerical-Recipes-style routine.
double gamma_p(double s, double x) {
  if (x <= 0.0) return 0.0;
  const double lg = log_gamma(s);
  if (x < s + 1.0) {
    double term = 1.0 / s;
    double sum = term;
    double a = s;
    for (int i = 0; i < 500; ++i) {
      a += 1.0;
      term *= x / a;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + s * std::log(x) - lg);
  }
  // Lentz continued fraction for Q(s, x).
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - s;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - s);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + s * std::log(x) - lg) * h;
  return 1.0 - q;
}

}  // namespace

double chi_square_p_value(double statistic, int dof) {
  if (statistic <= 0.0) return 1.0;
  return std::clamp(1.0 - gamma_p(0.5 * dof, 0.5 * statistic), 0.0, 1.0);
}

}  // namespace bitspread
