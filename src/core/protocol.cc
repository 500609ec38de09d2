#include "core/protocol.h"

#include <cmath>

#include "random/binomial.h"

namespace bitspread {

double eq4_adoption_sum(const MemorylessProtocol& protocol, Opinion own,
                        double p, std::uint64_t n) noexcept {
  const std::uint32_t ell = protocol.sample_size(n);
  if (p <= 0.0) return protocol.g(own, 0, ell, n);
  if (p >= 1.0) return protocol.g(own, ell, ell, n);

  // Walk the Binomial(l, p) pmf from its mode outward so that the weights are
  // computed with the multiplicative recurrence and never underflow where
  // they matter. For l up to a few thousand (the sqrt(n log n) regime at
  // n ~ 10^7) this is exact to double precision.
  const double nd = static_cast<double>(ell);
  const auto mode =
      static_cast<std::uint32_t>(std::min(nd, std::floor((nd + 1.0) * p)));
  const double ratio = p / (1.0 - p);

  double weight =
      std::exp(binomial_log_pmf(nd, static_cast<double>(mode), p));
  double acc = weight * protocol.g(own, mode, ell, n);
  double w = weight;
  for (std::uint32_t k = mode; k < ell; ++k) {
    w *= ratio * (nd - static_cast<double>(k)) / (static_cast<double>(k) + 1.0);
    if (w <= 0.0) break;
    acc += w * protocol.g(own, k + 1, ell, n);
  }
  w = weight;
  for (std::uint32_t k = mode; k > 0; --k) {
    w *= static_cast<double>(k) / (ratio * (nd - static_cast<double>(k) + 1.0));
    if (w <= 0.0) break;
    acc += w * protocol.g(own, k - 1, ell, n);
  }
  // g maps into [0,1] and the weights sum to <= 1, so acc is in [0,1] up to
  // round-off; clamp to keep downstream Bernoulli/binomial draws well-formed.
  return std::fmin(std::fmax(acc, 0.0), 1.0);
}

double MemorylessProtocol::aggregate_adoption(Opinion own, double p,
                                              std::uint64_t n) const noexcept {
  return eq4_adoption_sum(*this, own, p, n);
}

bool MemorylessProtocol::maintains_consensus(std::uint64_t n) const noexcept {
  const std::uint32_t ell = sample_size(n);
  return g(Opinion::kZero, 0, ell, n) == 0.0 &&
         g(Opinion::kOne, ell, ell, n) == 1.0;
}

bool MemorylessProtocol::is_oblivious(std::uint64_t n) const noexcept {
  const std::uint32_t ell = sample_size(n);
  for (std::uint32_t k = 0; k <= ell; ++k) {
    if (g(Opinion::kZero, k, ell, n) != g(Opinion::kOne, k, ell, n)) {
      return false;
    }
  }
  return true;
}

}  // namespace bitspread
