// Exact binomial sampling.
//
// Binomial(n, p) draws are the workhorse of the aggregate simulation engine
// (engine/aggregate.h): one parallel round of any memory-less protocol reduces
// to two binomial draws, which is what makes populations of 10^9 agents as
// cheap to simulate as 10^3. Two regimes:
//
//   * BINV inversion (Kachitvichyanukul & Schmeiser 1988) when n*min(p,1-p)
//     is small: walk the CDF with the pmf recurrence. Expected O(n*p) work.
//   * BTRS transformed rejection (Hoermann 1993) otherwise: exact, O(1)
//     expected work independent of n.
//
// Both are exact samplers of the binomial law (no normal approximation), so
// aggregate-engine trajectories follow the true Markov chain distribution.
#ifndef BITSPREAD_RANDOM_BINOMIAL_H_
#define BITSPREAD_RANDOM_BINOMIAL_H_

#include <cstdint>
#include <vector>

#include "random/rng.h"

namespace bitspread {

// Draws from Binomial(n, p). p outside [0,1] is clamped. Equivalent to
// BinomialSampler(n, p)(rng): one draw path.
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) noexcept;

// Internal regimes, exposed for testing and for the sampler ablation bench.
namespace binomial_detail {
std::uint64_t binv(Rng& rng, std::uint64_t n, double p) noexcept;  // p <= 0.5
std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) noexcept;  // p <= 0.5
// Threshold on n*p between the regimes.
inline constexpr double kInversionThreshold = 10.0;
}  // namespace binomial_detail

// Binomial(n, p) with its set-up done once. The constructor does everything
// binomial() does before its first uniform: the clamp, the p > 1/2 flip, the
// regime choice and the regime's constants (BINV's q^n, odds and (n+1)*odds;
// BTRS's b, a, c, v_r, alpha and odds). operator() then draws with the same
// uniforms in the same order, so a kept sampler returns what binomial() would.
// The aggregate and sequential steppers keep one per visited state.
class BinomialSampler {
 public:
  BinomialSampler() noexcept = default;  // Bin(0, p): always 0.
  BinomialSampler(std::uint64_t n, double p) noexcept;

  std::uint64_t operator()(Rng& rng) const noexcept;

 private:
  // kZero draws nothing: n = 0, p <= 0, or (flipped) p >= 1.
  enum class Regime : std::uint8_t { kZero, kInversion, kRejection };

  // Set-up of one regime for 0 < p <= 0.5, without the flip.
  void prepare_inversion(double p) noexcept;
  void prepare_rejection(double p) noexcept;
  std::uint64_t invert(Rng& rng) const noexcept;
  std::uint64_t reject(Rng& rng) const noexcept;

  friend std::uint64_t binomial_detail::binv(Rng&, std::uint64_t,
                                             double) noexcept;
  friend std::uint64_t binomial_detail::btrs(Rng&, std::uint64_t,
                                             double) noexcept;

  std::uint64_t n_ = 0;
  Regime regime_ = Regime::kZero;
  bool flip_ = false;  // Draws Bin(n, 1 - p) and returns n minus it.
  double p_ = 0.0;     // BTRS: p after the flip, for the slow path's mode.
  double odds_ = 0.0;  // p / (1 - p).
  // BINV: q^n (pmf at 0) and (n + 1) * odds.
  double q_pow_n_ = 0.0;
  double binv_a_ = 0.0;
  // BTRS (Hoermann 1993): hat and squeeze constants.
  double b_ = 0.0;
  double a_ = 0.0;
  double c_ = 0.0;
  double v_r_ = 0.0;
  double alpha_ = 0.0;
};

// log P(Binomial(n, p) = k) through the thread-safe log_gamma, for 0 < p < 1.
// n and k are integers passed as doubles. The pmf walks (binomial_pmf and the
// Eq. 4 adoption sums) start from this value at the mode.
double binomial_log_pmf(double n, double k, double p) noexcept;

// pmf of Binomial(n, k) at all k in [0, n], computed with the stable
// multiplicative recurrence. Used by the exact Markov-chain module.
std::vector<double> binomial_pmf(std::uint64_t n, double p);

// P(Binomial(n, p) <= k), by direct stable summation. Exact enough for the
// moderate n used in analysis code (n up to ~10^6).
double binomial_cdf(std::uint64_t n, double p, std::uint64_t k);

}  // namespace bitspread

#endif  // BITSPREAD_RANDOM_BINOMIAL_H_
