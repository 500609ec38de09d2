// E12 — Discussion (§5): does a little memory break the barrier?
//
// The paper conjectures the lower bound might extend to constant memory,
// while Korman & Vacus (2022) solve the problem with Theta(log log n) bits
// and l = Theta(log n). We compare, at equal sample size l = ceil(2 ln n)
// and from the all-wrong start:
//   * memory-less minority and majority (covered by the l = o(sqrt n)
//     territory where nothing fast is known);
//   * the stateful trend-follower (remembers last round's sample count:
//     ceil(log2(l+1)) bits, the budget of [7]-style protocols);
//   * the 1-bit undecided-state dynamics;
// all under the per-agent sharded engine (the aggregate reduction does not
// apply to stateful protocols), plus memory-less Voter as the "always solves
// it, slowly" baseline.
//
// BENCH_memory_extension.json carries three verdicts, and the binary exits
// non-zero when any is false:
//   * voter solves every replicate within 40 n log2 n rounds;
//   * the trend-follower solves every replicate within 20 log2^2 n rounds,
//     at every n;
//   * no memory-less polylog row (minority, majority) and not USD solves
//     every replicate within 20 log2^2 n rounds.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/init.h"
#include "core/stateful.h"
#include "random/seeding.h"
#include "engine/sharded.h"
#include "protocols/follow_trend.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/undecided.h"
#include "protocols/voter.h"
#include "sim/cli.h"
#include "sim/table.h"
#include "stats/summary.h"
#include "telemetry/reporter.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

int run(const BenchOptions& options) {
  print_banner("E12", "Discussion: bounded memory vs memory-less, equal l",
               options);

  const std::vector<int> exps = options.quick ? std::vector<int>{8, 10}
                                              : std::vector<int>{8, 10, 12};
  const int reps = options.reps_or(options.quick ? 5 : 10);
  const SeedSequence seeds(options.seed);
  const std::uint64_t simulate_start_ns = telemetry::clock_now_ns();

  JsonReporter reporter("memory_extension");
  reporter.set_experiment("E12");
  reporter.set_seed(options.seed);
  reporter.set_quick(options.quick);
  reporter.set_workload("sample_size", JsonValue("ceil(2 ln n)"));
  reporter.set_workload("reps", JsonValue(std::int64_t{reps}));
  reporter.set_workload("start", JsonValue("all wrong"));

  bool voter_solves = true;
  bool trend_solves = true;
  bool polylog_barrier_holds = true;

  Table table({"protocol", "memory", "n", "l", "solved", "mean T",
               "final ones frac"});
  std::uint64_t cell = 0;
  for (const int exp : exps) {
    const std::uint64_t n = std::uint64_t{1} << exp;
    const auto policy = SampleSizePolicy::log_n(2.0);
    const std::uint32_t ell = policy.sample_size(n);

    const VoterDynamics voter;
    const MinorityDynamics minority(policy);
    const MajorityDynamics majority(policy,
                                    MajorityDynamics::TieBreak::kKeepOwn);
    const MemorylessAsStateful voter_s(voter);
    const MemorylessAsStateful minority_s(minority);
    const MemorylessAsStateful majority_s(majority);
    const TrendFollowerDynamics trend(policy, n);
    const UndecidedStateDynamics usd;

    struct Entry {
      const StatefulProtocol* protocol;
      const char* memory;
    };
    const std::vector<Entry> entries{
        {&voter_s, "none"},
        {&minority_s, "none"},
        {&majority_s, "none"},
        {&trend, "log2(l+1) bits"},
        {&usd, "1 bit"}};

    for (const Entry& entry : entries) {
      const ShardedAgentEngine engine(*entry.protocol);
      StopRule rule;
      // Polylog budget for everyone except voter, which gets its Theta(n
      // log n) due; memory should show up as solving within polylog.
      const double log2n = std::log2(static_cast<double>(n));
      rule.max_rounds =
          entry.protocol == &voter_s
              ? static_cast<std::uint64_t>(40.0 * static_cast<double>(n) *
                                           log2n)
              : static_cast<std::uint64_t>(20.0 * log2n * log2n);
      int solved = 0;
      RunningStats rounds;
      double final_fraction = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const RunResult r = engine.run(init_all_wrong(n, Opinion::kOne), rule,
                                       seeds.derive(cell, rep));
        if (r.converged()) {
          ++solved;
          rounds.add(static_cast<double>(r.rounds()));
        }
        final_fraction += r.final_config.fraction_ones() / reps;
      }
      ++cell;
      const bool all_solved = solved == reps;
      if (entry.protocol == &voter_s) {
        voter_solves = voter_solves && all_solved;
      } else if (entry.protocol == &trend) {
        trend_solves = trend_solves && all_solved;
      } else {
        polylog_barrier_holds = polylog_barrier_holds && !all_solved;
      }
      table.add_row({entry.protocol->name(), entry.memory, Table::fmt(n),
                     Table::fmt(std::uint64_t{ell}),
                     std::to_string(solved) + "/" + std::to_string(reps),
                     solved > 0 ? Table::fmt(rounds.mean(), 1) : "-",
                     Table::fmt(final_fraction, 3)});
    }
  }
  emit_table(table, options);
  std::printf(
      "\nbudgets: polylog (20 log^2 n) for everything except voter "
      "(40 n log n).\nWhat to look for: at l = Theta(log n) no memory-less "
      "dynamics here beats the\nbarrier from the all-wrong start, while the "
      "trend-follower's little memory lets it\nride the source's pull "
      "(simplified [7]; their exact protocol has stronger\nguarantees). "
      "USD's single bit is majority-flavored and stays pinned wrong —\n"
      "memory alone is not enough, it must implement trend detection.\n");

  JsonValue verdicts = JsonValue::object();
  verdicts.set("voter_solves_within_40_n_log_n", JsonValue(voter_solves));
  verdicts.set("trend_follower_solves_within_20_log_sq_n",
               JsonValue(trend_solves));
  verdicts.set("memoryless_and_usd_miss_20_log_sq_n",
               JsonValue(polylog_barrier_holds));
  std::printf("\nverdicts: voter %s, trend-follower %s, polylog barrier %s\n",
              voter_solves ? "ok" : "FAILED", trend_solves ? "ok" : "FAILED",
              polylog_barrier_holds ? "ok" : "FAILED");
  reporter.set_extra("verdicts", std::move(verdicts));
  reporter.add_phase(
      "simulate",
      static_cast<double>(telemetry::clock_now_ns() - simulate_start_ns) *
          1e-9);
  reporter.add_table("memory_extension", table);
  if (!reporter.write_file(
          options.json_path.value_or("BENCH_memory_extension.json"))) {
    return 1;
  }
  return voter_solves && trend_solves && polylog_barrier_holds ? 0 : 1;
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  return bitspread::run(bitspread::parse_bench_options(argc, argv));
}
