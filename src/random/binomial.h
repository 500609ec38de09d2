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

#include <array>
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
//
// A sampler kept for many draws is built with tabulated(): in the inversion
// regime it also stores the walk's pmf terms r_0 ... r_{K-1}, each computed
// with the recurrence's own expression and operation order. Its draws then
// make the same `u <= r` / `u -= r` comparisons on the stored terms with no
// division, continue with the recurrence past K, and restart and break on
// `r <= 0` as the walk does, so they too are bit-identical to binomial().
// The aggregate and sequential steppers keep one per visited state.
class BinomialSampler {
 public:
  // Stored walk terms: every row with n < kTableTerms is complete.
  static constexpr std::uint32_t kTableTerms = 24;

  BinomialSampler() noexcept = default;  // Bin(0, p): always 0.
  BinomialSampler(std::uint64_t n, double p) noexcept;

  // BinomialSampler(n, p) with the inversion walk tabulated (see above).
  static BinomialSampler tabulated(std::uint64_t n, double p) noexcept;

  std::uint64_t operator()(Rng& rng) const noexcept {
    if (regime_ != Regime::kTable) return draw(rng);
    const std::uint64_t k = walk_table(rng);
    return flip_ ? n_ - k : k;
  }

 private:
  // kZero draws nothing: n = 0, p <= 0, or (flipped) p >= 1. kTable is
  // kInversion with the walk's terms stored.
  enum class Regime : std::uint8_t { kZero, kInversion, kTable, kRejection };

  // Set-up of one regime for 0 < p <= 0.5, without the flip.
  void prepare_inversion(double p) noexcept;
  void prepare_rejection(double p) noexcept;
  // The untabulated draw, flip included.
  std::uint64_t draw(Rng& rng) const noexcept;
  std::uint64_t invert(Rng& rng) const noexcept;
  std::uint64_t walk_table(Rng& rng) const noexcept;
  // The walk from term kTableTerms on with `u` left after the table, or
  // kRestart when it runs out (or the table already held the whole row).
  std::uint64_t walk_past_table(double u) const noexcept;
  std::uint64_t reject(Rng& rng) const noexcept;

  static constexpr std::uint64_t kRestart = ~std::uint64_t{0};

  friend std::uint64_t binomial(Rng&, std::uint64_t, double) noexcept;
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
  // kTable: terms_[x] = r_x for x < terms_len_, the positive terms the walk
  // visits before its x > n or r <= 0 end; unset past terms_len_.
  std::uint32_t terms_len_ = 0;
  std::array<double, kTableTerms> terms_;
};

// A tabulated draw: the walk of BinomialSampler::invert() over stored terms.
inline std::uint64_t BinomialSampler::walk_table(Rng& rng) const noexcept {
  while (true) {
    double u = rng.next_double();
    for (std::uint32_t x = 0; x < terms_len_; ++x) {
      if (u <= terms_[x]) return x;
      u -= terms_[x];
    }
    const std::uint64_t x = walk_past_table(u);
    if (x != kRestart) return x;
  }
}

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
