#include "random/hypergeometric.h"

#include <algorithm>
#include <cmath>

#include "random/log_gamma.h"

namespace bitspread {
namespace {

// CDF inversion from the mode, mirroring binomial_pmf's approach. draws is
// small in all library uses (it is the sample size l), so O(draws) is fine.
std::uint64_t invert_pmf(Rng& rng, const std::vector<double>& pmf) noexcept {
  double u = rng.next_double();
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    if (u <= pmf[k]) return k;
    u -= pmf[k];
  }
  return pmf.size() - 1;  // Round-off tail.
}

}  // namespace

std::vector<double> hypergeometric_pmf(std::uint64_t total,
                                       std::uint64_t successes,
                                       std::uint64_t draws) {
  const std::uint64_t lo =
      draws + successes > total ? draws + successes - total : 0;
  const std::uint64_t hi = std::min(draws, successes);
  std::vector<double> pmf(draws + 1, 0.0);
  // log pmf at lo via log_gamma, then multiplicative recurrence:
  // pmf(k+1)/pmf(k) = (K-k)(n-k) / ((k+1)(N-K-n+k+1))
  auto lchoose = [](double a, double b) {
    return log_gamma(a + 1.0) - log_gamma(b + 1.0) - log_gamma(a - b + 1.0);
  };
  const double n_d = static_cast<double>(draws);
  const double big_n = static_cast<double>(total);
  const double big_k = static_cast<double>(successes);
  const double lo_d = static_cast<double>(lo);
  pmf[lo] = std::exp(lchoose(big_k, lo_d) + lchoose(big_n - big_k, n_d - lo_d) -
                     lchoose(big_n, n_d));
  for (std::uint64_t k = lo; k < hi; ++k) {
    const double kd = static_cast<double>(k);
    pmf[k + 1] = pmf[k] * (big_k - kd) * (n_d - kd) /
                 ((kd + 1.0) * (big_n - big_k - n_d + kd + 1.0));
  }
  return pmf;
}

std::uint64_t hypergeometric(Rng& rng, std::uint64_t total,
                             std::uint64_t successes,
                             std::uint64_t draws) noexcept {
  if (draws == 0 || successes == 0) return 0;
  if (successes >= total) return draws;
  if (draws >= total) return successes;
  return invert_pmf(rng, hypergeometric_pmf(total, successes, draws));
}

}  // namespace bitspread
