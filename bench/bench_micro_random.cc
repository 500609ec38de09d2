// E14 — randomness micro-benchmarks (google-benchmark).
//
// The binomial sampler is the aggregate engine's inner loop; this bench
// pins down the cost of each regime (BINV inversion vs BTRS rejection vs
// the p > 1/2 complement path) and the raw generator throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "random/alias.h"
#include "random/binomial.h"
#include "random/hypergeometric.h"
#include "random/rng.h"

namespace bitspread {
namespace {

void BM_Xoshiro(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_Xoshiro);

void BM_NextDouble(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_double());
}
BENCHMARK(BM_NextDouble);

void BM_NextBelow(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(1000003));
}
BENCHMARK(BM_NextBelow);

// Regimes: n*p small (BINV), n*p large (BTRS), complement path, n = 10^9.
void BM_Binomial(benchmark::State& state) {
  Rng rng(4);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  for (auto _ : state) benchmark::DoNotOptimize(binomial(rng, n, p));
  state.SetLabel("n=" + std::to_string(n) + " p=" + std::to_string(p));
}
BENCHMARK(BM_Binomial)
    ->Args({10, 500})           // BINV: np = 5, one-shot BM_BinomialKept
    ->Args({100, 20})           // BINV: np = 2
    ->Args({100, 300})          // BTRS: np = 30
    ->Args({100, 980})          // complement -> BINV
    ->Args({1000000, 500})      // BTRS, large n
    ->Args({1000000000, 500})   // BTRS, n = 1e9
    ->Args({1000000000, 1});    // BINV via tiny p (np = 1e6 -> BTRS actually)

// A kept sampler in the inversion regime (n * p = 5): the tabulated walk
// the aggregate and sequential steppers draw from on a revisited state.
void BM_BinomialKept(benchmark::State& state) {
  Rng rng(4);
  const BinomialSampler sampler = BinomialSampler::tabulated(10, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(sampler(rng));
  state.SetLabel("n=10 p=0.5");
}
BENCHMARK(BM_BinomialKept);

void BM_BinomialBinvDirect(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial_detail::binv(rng, 64, 0.1));
  }
}
BENCHMARK(BM_BinomialBinvDirect);

void BM_BinomialBtrsDirect(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial_detail::btrs(rng, 64, 0.25));
  }
}
BENCHMARK(BM_BinomialBtrsDirect);

void BM_Hypergeometric(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypergeometric(rng, 10000, 3000, 50));
  }
}
BENCHMARK(BM_Hypergeometric);

void BM_AliasSample(benchmark::State& state) {
  Rng build_rng(8);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = build_rng.next_double();
  const AliasTable table(weights);
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_AliasSample)->Arg(16)->Arg(4096);

void BM_BinomialPmfBuild(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial_pmf(n, 0.37));
  }
}
BENCHMARK(BM_BinomialPmfBuild)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace bitspread
