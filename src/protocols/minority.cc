#include "protocols/minority.h"

#include <cmath>

#include "random/binomial.h"

namespace bitspread {
namespace {

// Eq. 2, branch-light form used by the aggregate walk below.
inline double g_minority(std::uint32_t k, std::uint32_t ell) noexcept {
  if (k == 0) return 0.0;
  if (k == ell) return 1.0;
  const std::uint32_t twice = 2 * k;
  if (twice < ell) return 1.0;
  if (twice == ell) return 0.5;
  return 0.0;
}

}  // namespace

double MinorityDynamics::g(Opinion /*own*/, std::uint32_t ones_seen,
                           std::uint32_t ell,
                           std::uint64_t /*n*/) const noexcept {
  return g_minority(ones_seen, ell);
}

double MinorityDynamics::aggregate_adoption(Opinion /*own*/, double p,
                                            std::uint64_t n) const noexcept {
  const std::uint32_t ell = sample_size(n);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // Allocation-free tail sum: walk the Binomial(l, p) pmf outward from its
  // mode with the multiplicative recurrence (the same scheme as
  // eq4_adoption_sum, with g inlined). The aggregate engine's run() calls it
  // once per newly visited state (engine/plan_table.h), so it is hot where
  // states rarely repeat: large n, and the sqrt(n log n) regime's O(l) walk.
  const double nd = static_cast<double>(ell);
  const auto mode =
      static_cast<std::uint32_t>(std::min(nd, std::floor((nd + 1.0) * p)));
  const double ratio = p / (1.0 - p);

  const double weight =
      std::exp(binomial_log_pmf(nd, static_cast<double>(mode), p));
  double acc = weight * g_minority(mode, ell);
  double w = weight;
  for (std::uint32_t k = mode; k < ell; ++k) {
    w *= ratio * (nd - static_cast<double>(k)) / (static_cast<double>(k) + 1.0);
    if (w <= 0.0) break;
    acc += w * g_minority(k + 1, ell);
  }
  w = weight;
  for (std::uint32_t k = mode; k > 0; --k) {
    w *= static_cast<double>(k) / (ratio * (nd - static_cast<double>(k) + 1.0));
    if (w <= 0.0) break;
    acc += w * g_minority(k - 1, ell);
  }
  return std::fmin(std::fmax(acc, 0.0), 1.0);
}

std::string MinorityDynamics::name() const {
  return "minority(" + policy().describe() + ")";
}

}  // namespace bitspread
