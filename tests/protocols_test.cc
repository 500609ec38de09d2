// Per-protocol specification tests: g tables against the paper's Eq. 1/2 and
// the classical definitions; closed-form aggregate adoption vs the generic
// Eq. 4 sum (property sweep over p); Proposition 3 compliance.
#include <gtest/gtest.h>
#include <math.h>

#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <vector>

#include "core/protocol.h"
#include "protocols/custom.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/perturbed.h"
#include "protocols/three_majority.h"
#include "protocols/two_choice.h"
#include "protocols/voter.h"
#include "random/binomial.h"
#include "random/rng.h"

namespace bitspread {

constexpr std::uint64_t kN = 1000;

// Prints a protocol parameter as its name and sample size. Without it
// googletest prints the pointer, and CTest discovery puts that address --
// different in every build and under every ASLR layout -- into the test name.
// Lives in namespace bitspread so argument-dependent lookup finds it.
void PrintTo(const MemorylessProtocol* protocol, std::ostream* os) {
  *os << protocol->name() << ", l=" << protocol->sample_size(kN);
}

namespace {

TEST(Voter, GIsLinearInCount) {
  const VoterDynamics voter(4);
  const std::uint32_t ell = voter.sample_size(kN);
  ASSERT_EQ(ell, 4u);
  for (std::uint32_t k = 0; k <= ell; ++k) {
    EXPECT_DOUBLE_EQ(voter.g(Opinion::kZero, k, ell, kN), k / 4.0);
    EXPECT_DOUBLE_EQ(voter.g(Opinion::kOne, k, ell, kN), k / 4.0);
  }
}

TEST(Voter, IsObliviousAndCompliant) {
  const VoterDynamics voter;
  EXPECT_TRUE(voter.is_oblivious(kN));
  EXPECT_TRUE(voter.maintains_consensus(kN));
}

TEST(Minority, GMatchesEq2OddSampleSize) {
  const MinorityDynamics minority(5);
  const std::uint32_t ell = 5;
  // k=0 -> 0; k in {1,2} strict minority of 1 -> 1; k in {3,4} -> 0; k=5 -> 1.
  const double expected[] = {0.0, 1.0, 1.0, 0.0, 0.0, 1.0};
  for (std::uint32_t k = 0; k <= ell; ++k) {
    EXPECT_DOUBLE_EQ(minority.g(Opinion::kZero, k, ell, kN), expected[k])
        << "k=" << k;
  }
}

TEST(Minority, GMatchesEq2EvenSampleSizeWithTie) {
  const MinorityDynamics minority(4);
  const std::uint32_t ell = 4;
  const double expected[] = {0.0, 1.0, 0.5, 0.0, 1.0};
  for (std::uint32_t k = 0; k <= ell; ++k) {
    EXPECT_DOUBLE_EQ(minority.g(Opinion::kOne, k, ell, kN), expected[k])
        << "k=" << k;
  }
}

TEST(Minority, UnanimityIsAdopted) {
  for (const std::uint32_t ell : {2u, 3u, 7u, 10u}) {
    const MinorityDynamics minority(ell);
    EXPECT_DOUBLE_EQ(minority.g(Opinion::kZero, 0, ell, kN), 0.0);
    EXPECT_DOUBLE_EQ(minority.g(Opinion::kZero, ell, ell, kN), 1.0);
  }
}

TEST(Minority, IsObliviousAndCompliant) {
  const MinorityDynamics minority(7);
  EXPECT_TRUE(minority.is_oblivious(kN));
  EXPECT_TRUE(minority.maintains_consensus(kN));
}

TEST(Majority, KeepOwnTieBreak) {
  const MajorityDynamics majority(4, MajorityDynamics::TieBreak::kKeepOwn);
  EXPECT_DOUBLE_EQ(majority.g(Opinion::kZero, 2, 4, kN), 0.0);
  EXPECT_DOUBLE_EQ(majority.g(Opinion::kOne, 2, 4, kN), 1.0);
  EXPECT_DOUBLE_EQ(majority.g(Opinion::kZero, 3, 4, kN), 1.0);
  EXPECT_DOUBLE_EQ(majority.g(Opinion::kOne, 1, 4, kN), 0.0);
  EXPECT_FALSE(majority.is_oblivious(kN));
  EXPECT_TRUE(majority.maintains_consensus(kN));
}

TEST(Majority, RandomTieBreakIsOblivious) {
  const MajorityDynamics majority(4, MajorityDynamics::TieBreak::kRandom);
  EXPECT_DOUBLE_EQ(majority.g(Opinion::kZero, 2, 4, kN), 0.5);
  EXPECT_TRUE(majority.is_oblivious(kN));
}

TEST(ThreeMajority, MatchesMajorityOfThree) {
  const ThreeMajorityDynamics three;
  EXPECT_EQ(three.sample_size(kN), 3u);
  EXPECT_DOUBLE_EQ(three.g(Opinion::kZero, 0, 3, kN), 0.0);
  EXPECT_DOUBLE_EQ(three.g(Opinion::kZero, 1, 3, kN), 0.0);
  EXPECT_DOUBLE_EQ(three.g(Opinion::kZero, 2, 3, kN), 1.0);
  EXPECT_DOUBLE_EQ(three.g(Opinion::kZero, 3, 3, kN), 1.0);
  EXPECT_TRUE(three.maintains_consensus(kN));
}

TEST(TwoChoice, KeepsOwnOnDisagreement) {
  const TwoChoiceDynamics two;
  EXPECT_DOUBLE_EQ(two.g(Opinion::kZero, 1, 2, kN), 0.0);
  EXPECT_DOUBLE_EQ(two.g(Opinion::kOne, 1, 2, kN), 1.0);
  EXPECT_DOUBLE_EQ(two.g(Opinion::kZero, 2, 2, kN), 1.0);
  EXPECT_DOUBLE_EQ(two.g(Opinion::kOne, 0, 2, kN), 0.0);
  EXPECT_TRUE(two.maintains_consensus(kN));
}

TEST(Custom, TablesAreReturnedVerbatim) {
  const CustomProtocol custom({0.0, 0.25, 0.5}, {0.1, 0.75, 1.0}, "tbl");
  EXPECT_EQ(custom.ell(), 2u);
  EXPECT_EQ(custom.sample_size(kN), 2u);
  EXPECT_DOUBLE_EQ(custom.g(Opinion::kZero, 1, 2, kN), 0.25);
  EXPECT_DOUBLE_EQ(custom.g(Opinion::kOne, 0, 2, kN), 0.1);
  EXPECT_EQ(custom.name(), "tbl");
  EXPECT_FALSE(custom.is_oblivious(kN));
}

TEST(Custom, ObliviousConstructor) {
  const CustomProtocol custom({0.0, 0.5, 1.0}, "sym");
  EXPECT_TRUE(custom.is_oblivious(kN));
}

TEST(RandomProtocol, ForcedProposition3) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const CustomProtocol proto = random_protocol(rng, 5);
    EXPECT_TRUE(proto.maintains_consensus(kN));
  }
}

TEST(RandomProtocol, UnforcedUsuallyViolates) {
  Rng rng(2);
  int violations = 0;
  for (int i = 0; i < 20; ++i) {
    const CustomProtocol proto = random_protocol(rng, 5, false);
    if (!proto.maintains_consensus(kN)) ++violations;
  }
  EXPECT_GT(violations, 15);
}

TEST(Perturbed, MixesTowardFlipBias) {
  const VoterDynamics voter(2);
  const PerturbedProtocol noisy(voter, 0.2, 0.5);
  // g' = 0.8 * k/2 + 0.2 * 0.5.
  EXPECT_DOUBLE_EQ(noisy.g(Opinion::kZero, 0, 2, kN), 0.1);
  EXPECT_DOUBLE_EQ(noisy.g(Opinion::kZero, 2, 2, kN), 0.9);
  EXPECT_FALSE(noisy.maintains_consensus(kN));
}

TEST(Perturbed, ZeroEpsilonIsIdentity) {
  const MinorityDynamics minority(3);
  const PerturbedProtocol clean(minority, 0.0);
  for (std::uint32_t k = 0; k <= 3; ++k) {
    EXPECT_DOUBLE_EQ(clean.g(Opinion::kZero, k, 3, kN),
                     minority.g(Opinion::kZero, k, 3, kN));
  }
  EXPECT_TRUE(clean.maintains_consensus(kN));
}

// Regression: out-of-range parameters must clamp to [0, 1] and — the bug —
// NaN must not slip through std::clamp (NaN comparisons are false, so clamp
// returns NaN unchanged) and poison every g-value.
TEST(Perturbed, OutOfRangeAndNaNParametersAreSanitized) {
  const VoterDynamics voter(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  const PerturbedProtocol over(voter, 2.0, -1.0);  // eps -> 1, bias -> 0.
  EXPECT_DOUBLE_EQ(over.g(Opinion::kZero, 2, 2, kN), 0.0);
  const PerturbedProtocol under(voter, -0.5, 1.5);  // eps -> 0: identity.
  EXPECT_DOUBLE_EQ(under.g(Opinion::kZero, 1, 2, kN),
                   voter.g(Opinion::kZero, 1, 2, kN));

  const PerturbedProtocol nan_eps(voter, nan, 0.7);  // NaN eps -> 0.
  for (std::uint32_t k = 0; k <= 2; ++k) {
    const double value = nan_eps.g(Opinion::kOne, k, 2, kN);
    EXPECT_FALSE(std::isnan(value));
    EXPECT_DOUBLE_EQ(value, voter.g(Opinion::kOne, k, 2, kN));
  }
  const PerturbedProtocol nan_bias(voter, 0.2, nan);  // NaN bias -> 0.5.
  const double value = nan_bias.g(Opinion::kZero, 0, 2, kN);
  EXPECT_FALSE(std::isnan(value));
  EXPECT_DOUBLE_EQ(value, 0.2 * 0.5);
  EXPECT_FALSE(std::isnan(nan_bias.aggregate_adoption(Opinion::kZero, 0.3,
                                                      kN)));
}

// Property sweep: every closed-form aggregate_adoption override must agree
// with the generic Eq. 4 sum on a grid of p, for both own opinions.
class AggregateClosedFormTest
    : public ::testing::TestWithParam<const MemorylessProtocol*> {};

TEST_P(AggregateClosedFormTest, MatchesEq4Sum) {
  const MemorylessProtocol& protocol = *GetParam();
  for (int i = 0; i <= 100; ++i) {
    const double p = i / 100.0;
    for (const Opinion own : {Opinion::kZero, Opinion::kOne}) {
      const double closed = protocol.aggregate_adoption(own, p, kN);
      const double generic = eq4_adoption_sum(protocol, own, p, kN);
      EXPECT_NEAR(closed, generic, 1e-10)
          << protocol.name() << " p=" << p << " own=" << to_int(own);
    }
  }
}

const VoterDynamics kVoter1(1);
const VoterDynamics kVoter5(5);
const MinorityDynamics kMinority3(3);
const MinorityDynamics kMinority4(4);
const MinorityDynamics kMinority11(11);
const ThreeMajorityDynamics kThreeMajority;
const TwoChoiceDynamics kTwoChoice;

INSTANTIATE_TEST_SUITE_P(ClosedForms, AggregateClosedFormTest,
                         ::testing::Values(&kVoter1, &kVoter5, &kMinority3,
                                           &kMinority4, &kMinority11,
                                           &kThreeMajority, &kTwoChoice));

// Property sweep: for every protocol, g stays in [0,1] and aggregate adoption
// is consistent at the endpoints (p=0 -> g(0), p=1 -> g(l)).
class ProtocolRangeTest
    : public ::testing::TestWithParam<const MemorylessProtocol*> {};

TEST_P(ProtocolRangeTest, GInUnitIntervalAndEndpointsConsistent) {
  const MemorylessProtocol& protocol = *GetParam();
  const std::uint32_t ell = protocol.sample_size(kN);
  for (std::uint32_t k = 0; k <= ell; ++k) {
    for (const Opinion own : {Opinion::kZero, Opinion::kOne}) {
      const double g = protocol.g(own, k, ell, kN);
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
    }
  }
  for (const Opinion own : {Opinion::kZero, Opinion::kOne}) {
    EXPECT_DOUBLE_EQ(protocol.aggregate_adoption(own, 0.0, kN),
                     protocol.g(own, 0, ell, kN));
    EXPECT_DOUBLE_EQ(protocol.aggregate_adoption(own, 1.0, kN),
                     protocol.g(own, ell, ell, kN));
  }
}

const MajorityDynamics kMajority5(5, MajorityDynamics::TieBreak::kKeepOwn);
const MajorityDynamics kMajority6(6, MajorityDynamics::TieBreak::kRandom);

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRangeTest,
                         ::testing::Values(&kVoter1, &kVoter5, &kMinority3,
                                           &kMinority4, &kMinority11,
                                           &kThreeMajority, &kTwoChoice,
                                           &kMajority5, &kMajority6));

TEST(AggregateAdoption, LargeSampleSizeRegimeIsStable) {
  // Minority with l = sqrt(n ln n): the generic closed form must stay in
  // [0,1] and be monotone-sane across p.
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const std::uint64_t n = 1 << 16;
  const std::uint32_t ell = minority.sample_size(n);
  ASSERT_GT(ell, 500u);
  for (int i = 0; i <= 50; ++i) {
    const double p = i / 50.0;
    const double q = minority.aggregate_adoption(Opinion::kZero, p, n);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  // Around p slightly below 1/2, the majority is 0 so minority adopts 1:
  // adoption should exceed 1/2... and symmetric above. Spot-check extremes.
  EXPECT_LT(minority.aggregate_adoption(Opinion::kZero, 0.995, n), 0.1);
  EXPECT_GT(minority.aggregate_adoption(Opinion::kZero, 0.45, n), 0.9);
}

TEST(Eq4Sum, MinoritySqrtRegimeMatchesGenericReference) {
  // The minority closed form (binomial tail) against the generic Eq. 4 walk
  // in the large-l regime.
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const std::uint64_t n = 1 << 14;
  for (const double p : {0.05, 0.3, 0.5, 0.7, 0.95}) {
    EXPECT_NEAR(minority.aggregate_adoption(Opinion::kZero, p, n),
                eq4_adoption_sum(minority, Opinion::kZero, p, n), 1e-9)
        << "p=" << p;
  }
}

TEST(Eq4Sum, AdoptionSumsLeaveSigngamAlone) {
  // lgamma writes the process-global signgam, a data race once parallel_for
  // workers evaluate adoption sums concurrently. The pmf walks must use the
  // reentrant form, which leaves signgam as it found it.
  constexpr int kSentinel = -7;  // lgamma of a positive argument stores +1.
  const MinorityDynamics minority(3);
  signgam = kSentinel;
  EXPECT_GT(minority.aggregate_adoption(Opinion::kZero, 0.4, kN), 0.0);
  EXPECT_EQ(signgam, kSentinel) << "MinorityDynamics::aggregate_adoption";
  signgam = kSentinel;
  EXPECT_EQ(binomial_pmf(20, 0.3).size(), 21u);
  EXPECT_EQ(signgam, kSentinel) << "binomial_pmf";
  const MajorityDynamics majority(5);  // Uses the default Eq. 4 sum.
  signgam = kSentinel;
  EXPECT_GT(majority.aggregate_adoption(Opinion::kZero, 0.6, kN), 0.0);
  EXPECT_EQ(signgam, kSentinel) << "eq4_adoption_sum";
}

}  // namespace
}  // namespace bitspread
