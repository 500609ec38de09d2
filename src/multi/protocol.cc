#include "multi/protocol.h"

#include <cassert>
#include <cmath>

#include "random/log_gamma.h"

namespace bitspread {
namespace {

void enumerate(std::vector<std::uint32_t>& histogram, std::size_t index,
               std::uint32_t remaining,
               const std::function<void(std::span<const std::uint32_t>)>&
                   visit) {
  if (index + 1 == histogram.size()) {
    histogram[index] = remaining;
    visit(histogram);
    return;
  }
  for (std::uint32_t k = 0; k <= remaining; ++k) {
    histogram[index] = k;
    enumerate(histogram, index + 1, remaining - k, visit);
  }
}

}  // namespace

void for_each_histogram(
    std::uint32_t opinions, std::uint32_t ell,
    const std::function<void(std::span<const std::uint32_t>)>& visit) {
  assert(opinions >= 1);
  std::vector<std::uint32_t> histogram(opinions, 0);
  enumerate(histogram, 0, ell, visit);
}

double histogram_probability(std::span<const std::uint32_t> histogram,
                             std::span<const double> fractions) {
  assert(histogram.size() == fractions.size());
  std::uint32_t total = 0;
  for (const std::uint32_t k : histogram) total += k;
  // Multinomial pmf in log space for stability.
  double log_p = log_gamma(static_cast<double>(total) + 1.0);
  for (std::size_t j = 0; j < histogram.size(); ++j) {
    const double k = static_cast<double>(histogram[j]);
    if (histogram[j] == 0) continue;
    if (fractions[j] <= 0.0) return 0.0;
    log_p += k * std::log(fractions[j]) - log_gamma(k + 1.0);
  }
  return std::exp(log_p);
}

bool MultiOpinionProtocol::respects_no_spontaneous_adoption(
    std::uint64_t n) const {
  const std::uint32_t ell = sample_size(n);
  const std::uint32_t m = opinion_count();
  assert(policy().is_constant() && ell <= 16 && m <= 6 &&
         "enumeration check is for small constant sample sizes");
  bool ok = true;
  std::vector<double> out(m);
  for_each_histogram(m, ell, [&](std::span<const std::uint32_t> histogram) {
    for (std::uint32_t own = 0; own < m; ++own) {
      adoption_distribution(own, histogram, ell, n, out);
      double total = 0.0;
      for (std::uint32_t j = 0; j < m; ++j) {
        total += out[j];
        if (out[j] > 0.0 && histogram[j] == 0 && j != own) ok = false;
      }
      if (std::abs(total - 1.0) > 1e-9) ok = false;
    }
  });
  return ok;
}

}  // namespace bitspread
