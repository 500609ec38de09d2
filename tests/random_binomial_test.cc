#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "random/binomial.h"
#include "random/rng.h"
#include "stats/ks.h"
#include "stats/summary.h"

namespace bitspread {
namespace {

TEST(BinomialPmf, SumsToOne) {
  for (const std::uint64_t n : {1u, 2u, 5u, 17u, 100u, 1000u}) {
    for (const double p : {0.01, 0.2, 0.5, 0.77, 0.99}) {
      const auto pmf = binomial_pmf(n, p);
      const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
      EXPECT_NEAR(total, 1.0, 1e-9) << "n=" << n << " p=" << p;
    }
  }
}

TEST(BinomialPmf, DegenerateP) {
  const auto zeros = binomial_pmf(10, 0.0);
  EXPECT_DOUBLE_EQ(zeros[0], 1.0);
  const auto ones = binomial_pmf(10, 1.0);
  EXPECT_DOUBLE_EQ(ones[10], 1.0);
}

TEST(BinomialPmf, MatchesDirectFormulaSmallN) {
  const std::uint64_t n = 6;
  const double p = 0.3;
  const auto pmf = binomial_pmf(n, p);
  const double choose[] = {1, 6, 15, 20, 15, 6, 1};
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double expected = choose[k] * std::pow(p, static_cast<double>(k)) *
                            std::pow(1 - p, static_cast<double>(n - k));
    EXPECT_NEAR(pmf[k], expected, 1e-12);
  }
}

TEST(BinomialPmf, MeanAndVariance) {
  const std::uint64_t n = 200;
  const double p = 0.37;
  const auto pmf = binomial_pmf(n, p);
  double mean = 0.0, second = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    mean += pmf[k] * static_cast<double>(k);
    second += pmf[k] * static_cast<double>(k) * static_cast<double>(k);
  }
  EXPECT_NEAR(mean, n * p, 1e-8);
  EXPECT_NEAR(second - mean * mean, n * p * (1 - p), 1e-7);
}

TEST(BinomialCdf, MonotoneAndBounded) {
  const std::uint64_t n = 50;
  const double p = 0.4;
  double prev = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double c = binomial_cdf(n, p, k);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(binomial_cdf(n, p, n), 1.0);
}

TEST(BinomialCdf, MedianOfSymmetric) {
  // Bin(9, 0.5): P(K <= 4) = 0.5 exactly by symmetry.
  EXPECT_NEAR(binomial_cdf(9, 0.5, 4), 0.5, 1e-12);
}

TEST(BinomialSampler, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial(rng, 100, -0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.5), 100u);
}

TEST(BinomialSampler, AlwaysWithinSupport) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(binomial(rng, 37, 0.41), 37u);
  }
}

// Property sweep: sample mean and variance across all regimes (inversion,
// rejection, symmetric complement, large n).
using BinomialParams = std::tuple<std::uint64_t, double>;

class BinomialMomentsTest : public ::testing::TestWithParam<BinomialParams> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(0xb10 + n);
  RunningStats stats;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    stats.add(static_cast<double>(binomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  const double mean_tol = 5.0 * std::sqrt(var / kDraws) + 1e-9;
  EXPECT_NEAR(stats.mean(), mean, mean_tol) << "n=" << n << " p=" << p;
  // Variance concentrates slower; allow 10% relative slack.
  if (var > 0.5) {
    EXPECT_NEAR(stats.variance(), var, 0.1 * var) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(
        BinomialParams{1, 0.5}, BinomialParams{2, 0.1},
        BinomialParams{10, 0.05},                 // BINV, tiny mean
        BinomialParams{10, 0.5},                  // BINV boundary
        BinomialParams{100, 0.02},                // BINV via small np
        BinomialParams{100, 0.3},                 // BTRS
        BinomialParams{100, 0.97},                // complement + BINV
        BinomialParams{1000, 0.5},                // BTRS, large
        BinomialParams{1000, 0.9},                // complement + BTRS
        BinomialParams{1000000, 0.25},            // BTRS, very large n
        BinomialParams{1000000, 0.000001},        // BINV, np = 1
        BinomialParams{1000000000, 0.5}));        // n = 1e9

// Exactness: chi-square of sampled frequencies against the true pmf, in both
// the inversion and rejection regimes.
class BinomialChiSquareTest : public ::testing::TestWithParam<BinomialParams> {
};

TEST_P(BinomialChiSquareTest, FrequenciesMatchPmf) {
  const auto [n, p] = GetParam();
  Rng rng(0xc41 + n * 31);
  const int kDraws = 60000;
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[binomial(rng, n, p)];
  const auto pmf = binomial_pmf(n, p);
  int dof = 0;
  const double stat = chi_square_statistic(counts, pmf, kDraws, &dof);
  const double p_value = chi_square_p_value(stat, dof);
  EXPECT_GT(p_value, 1e-4) << "n=" << n << " p=" << p << " stat=" << stat
                           << " dof=" << dof;
}

INSTANTIATE_TEST_SUITE_P(Regimes, BinomialChiSquareTest,
                         ::testing::Values(BinomialParams{8, 0.3},    // BINV
                                           BinomialParams{12, 0.5},   // BINV
                                           BinomialParams{60, 0.4},   // BTRS
                                           BinomialParams{60, 0.85},  // compl.
                                           BinomialParams{200, 0.2},  // BTRS
                                           BinomialParams{40, 0.5}));

TEST(BinomialSampler, RegimesAgreeInDistribution) {
  // Force both internal regimes at the same (n, p) and compare samples.
  const std::uint64_t n = 64;
  const double p = 0.25;  // n*p = 16 >= threshold: btrs eligible; binv valid.
  Rng rng_a(71);
  Rng rng_b(72);
  const int kDraws = 30000;
  std::vector<double> a(kDraws), b(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    a[i] = static_cast<double>(binomial_detail::binv(rng_a, n, p));
    b[i] = static_cast<double>(binomial_detail::btrs(rng_b, n, p));
  }
  const double d = ks_statistic(a, b);
  EXPECT_GT(ks_p_value(d, a.size(), b.size()), 1e-4) << "KS=" << d;
}

TEST(BinomialSampler, IsDeterministicGivenSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(binomial(a, 1000, 0.3), binomial(b, 1000, 0.3));
  }
}

// A kept BinomialSampler is a one-shot binomial() with its set-up moved to
// construction: same draws, same uniforms consumed. The cases span both
// clamps, the p > 1/2 flip on either side of 1/2, both sides of the n*p
// regime threshold (20 * nextafter(0.5, 0) < 10 <= 20 * 0.5), and large-n
// BTRS, whose slow path a fifth of the draws take.
struct SamplerCase {
  std::uint64_t n;
  double p;
  // FNV-1a over the first 256 binomial() draws from Rng(0x5eed + n), pinned
  // from the one-shot implementation before its set-up moved into
  // BinomialSampler: a change to the uniforms a draw consumes, or to the
  // floating-point order of the set-up, moves these.
  std::uint64_t digest;
};

const SamplerCase kSamplerCases[] = {
    {0, 0.3, 0xd80ac658736bb725ULL},
    {0, 1.0, 0xd80ac658736bb725ULL},
    {50, 0.0, 0xd80ac658736bb725ULL},
    {50, -0.25, 0xd80ac658736bb725ULL},
    {50, 1.0, 0x959289630a5ad325ULL},
    {50, 1.75, 0x959289630a5ad325ULL},
    {20, std::nextafter(0.5, 0.0), 0x8ca191de670e7ef7ULL},  // BINV
    {20, 0.5, 0x624326b25fc511e6ULL},                       // BTRS
    {20, std::nextafter(0.5, 1.0), 0x049c49cf523d6c07ULL},  // flip, BINV
    {64, std::nextafter(0.5, 0.0), 0x31cad1b78945f696ULL},
    {64, 0.5, 0x31cad1b78945f696ULL},
    {64, std::nextafter(0.5, 1.0), 0x3acf97fd27660788ULL},  // flip, BTRS
    {100, 0.0999, 0x43e7aec6d722dc73ULL},
    {100, 0.1001, 0x874dffda68e24b0aULL},
    {100, 0.9, 0xb2e9b69df6ef990dULL},
    {1000000, 0.000001, 0x72b00ccfff279030ULL},
    {1000000, 0.25, 0x8a3f4bfd9e57ad71ULL},
    {1000000, 0.75, 0x83816c545c4a9f85ULL},
    {1000003, 0.5, 0xafe4e5084b4efc7eULL},
};

TEST(BinomialSampler, KeptSamplerMatchesOneShotDraws) {
  for (const SamplerCase& c : kSamplerCases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " p=" + std::to_string(c.p));
    const BinomialSampler sampler(c.n, c.p);
    Rng kept(0x5eed + c.n);
    Rng one_shot(0x5eed + c.n);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(sampler(kept), binomial(one_shot, c.n, c.p)) << "draw " << i;
      ASSERT_EQ(kept.state(), one_shot.state()) << "draw " << i;
    }
  }
}

TEST(BinomialSampler, DrawsMatchPinnedDigests) {
  for (const SamplerCase& c : kSamplerCases) {
    Rng rng(0x5eed + c.n);
    Rng tabulated_rng(0x5eed + c.n);
    const BinomialSampler tabulated = BinomialSampler::tabulated(c.n, c.p);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t tabulated_digest = digest;
    for (int i = 0; i < 256; ++i) {
      digest = (digest ^ binomial(rng, c.n, c.p)) * 0x100000001b3ULL;
      tabulated_digest =
          (tabulated_digest ^ tabulated(tabulated_rng)) * 0x100000001b3ULL;
    }
    EXPECT_EQ(digest, c.digest) << "n=" << c.n << " p=" << c.p;
    EXPECT_EQ(tabulated_digest, c.digest)
        << "tabulated, n=" << c.n << " p=" << c.p;
  }
}

// The inverse of an odd number modulo 2^64 (Newton: each step doubles the
// correct low bits, from 3).
constexpr std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

// A generator seeded from `seed` whose next output is `first`: xoshiro256**
// outputs rotl(s[1] * 5, 7) * 9, so s[1] is solved for and the other words
// are kept.
Rng rng_emitting(std::uint64_t first, std::uint64_t seed) {
  auto state = Rng(seed).state();
  const std::uint64_t rotated = first * inverse_odd(9);
  state[1] = ((rotated >> 7) | (rotated << 57)) * inverse_odd(5);
  Rng rng;
  rng.set_state(state);
  return rng;
}

// A tabulated sampler walks stored terms where the plain one recomputes
// them; both must give the same value from the same uniforms and leave the
// generator in the same state. n runs past the table (kTableTerms + 8), and
// the p values cover the p > 1/2 flip, tiny p (a one- or two-term table),
// p whose third term is subnormal and fourth underflows to 0, and both
// sides of the regime threshold. Each cell also starts one draw from the
// largest uniform, 1 - 2^-53, which walks into the row's far tail: past the
// table where the row is longer, or off its end into a restart.
TEST(BinomialSampler, TabulatedDrawsMatchRecurrenceWalk) {
  ASSERT_EQ(rng_emitting(~std::uint64_t{0}, 1)(), ~std::uint64_t{0});
  const double kProbabilities[] = {0.3,  0.7,    0.2,    0.45,  1e-6,
                                   1e-160, 1e-200, 0.999, 0.5};
  const std::uint64_t max_n = BinomialSampler::kTableTerms + 8;
  bool ran_past_table = false;
  for (std::uint64_t n = 1; n <= max_n; ++n) {
    for (const double p : kProbabilities) {
      SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
      const BinomialSampler tabulated = BinomialSampler::tabulated(n, p);
      const BinomialSampler walk(n, p);
      const auto compare = [&](Rng a, int draws) {
        Rng b = a;
        for (int i = 0; i < draws; ++i) {
          const std::uint64_t k = tabulated(a);
          ASSERT_EQ(k, walk(b)) << "draw " << i;
          ASSERT_EQ(a.state(), b.state()) << "draw " << i;
          const std::uint64_t drawn = p > 0.5 ? n - k : k;
          if (drawn >= BinomialSampler::kTableTerms) ran_past_table = true;
        }
      };
      compare(Rng(0x7ab + n), 300);
      compare(rng_emitting(~std::uint64_t{0}, n), 4);
      compare(rng_emitting(0, n), 4);
    }
  }
  EXPECT_TRUE(ran_past_table) << "no draw reached the walk past the table";
}

}  // namespace
}  // namespace bitspread
