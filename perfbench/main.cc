// bitspread_bench: the repository's benchmark driver.
//
//   bitspread_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--out-dir <dir>] | --list-metrics
//
// --trace 0 sets the workload up five times (setup_s is the median), runs
// untraced passes for --seconds and prints every end-to-end metric.
// --trace 1 prints every per-layer metric instead: the workload runs half
// its time untraced and half traced (trace.perturbation is the ratio of the
// two headline throughputs), and every other workload is set up and run
// briefly under the tracer for the per-layer metrics that live on it.
// Either way the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a failed check exits 1.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arith.h"
#include "host.h"
#include "telemetry/json.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using bitspread::JsonValue;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --self-test compares them).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"rounds_per_s", "1/s"},
    {"activations_per_s", "1/s"},
    {"agent_steps_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"aggregate.step_ns", "ns"},
    {"protocols.adoption_ns", "ns"},
    {"random.binomial_ns", "ns"},
    {"sequential.activation_ns", "ns"},
    {"run_loop.ns_per_round", "ns"},
    {"run_loop.ns_per_round.kernel_large", "ns"},
    {"replicates.utilization", "ratio"},
    {"worker_pool.speedup", "ratio"},
    {"worker_pool.overhead_us", "us"},
    {"kernel.steps_per_s_1t", "1/s"},
    {"kernel.computed_bytes_per_step", "B"},
    {"sharded.legacy_steps_per_s_1t", "1/s"},
    {"sharded.round_p99_us.kernel_large", "us"},
    {"sharded.round_p99_us.graph_regular", "us"},
    {"sharded.round_p99_us.dispatch_small", "us"},
    {"topology.generate_s", "s"},
    {"topology.sample_ns", "ns"},
    {"markov.solve_ms", "ms"},
    {"stats.verdict_ms", "ms"},
    {"report.write_ms", "ms"},
    {"report.bytes", "B"},
    {"trace.perturbation", "ratio"},
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "escape_replicates", "kernel_large", "graph_regular", "dispatch_small"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& settings) {
  if (name == "escape_replicates") return make_escape_replicates(settings);
  return make_sharded(name, settings);
}

constexpr int kSetups = 5;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool list_metrics = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bitspread_bench: %s\n"
               "usage: bitspread_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n"
               "       bitspread_bench --list-metrics\n"
               "workloads: escape_replicates kernel_large graph_regular "
               "dispatch_small\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        usage("--seconds needs a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.list_metrics) return args;
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == args.workload;
  if (!known) usage("--workload names no workload");
  if (!have_seed) usage("--seed is required");
  if (args.seconds <= 0.0) usage("--seconds is required");
  if (args.trace < 0) usage("--trace is required");
  return args;
}

// The telemetry layer's JSON (exact shortest round-trip numbers) on one
// line: drops the indentation and newlines outside string literals.
std::string one_line(const JsonValue& value) {
  const std::string pretty = value.dump();
  std::string out;
  bool in_string = false;
  bool escaped = false;
  bool skip_spaces = false;
  for (const char c : pretty) {
    if (in_string) {
      out += c;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '\n') {
      skip_spaces = true;
      continue;
    }
    if (c == ' ' && skip_spaces) continue;
    skip_spaces = false;
    if (c == '"') in_string = true;
    out += c;
  }
  return out;
}

// Passes until `seconds` have elapsed, and at least `min_passes`.
void run_passes(Workload& workload, Tracer* tracer, double seconds,
                int min_passes) {
  const auto start = Clock::now();
  int passes = 0;
  while (passes < min_passes || seconds_since(start) < seconds) {
    workload.pass(tracer);
    ++passes;
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int run(const Args& args) {
  const JsonValue host = host_stamp(args.seed);
  std::printf("host %s\n", one_line(host).c_str());
  std::filesystem::create_directories(args.out_dir);

  Settings settings;
  settings.seed = args.seed;
  settings.threads = bench_threads();
  settings.smoke = args.smoke;
  settings.out_dir = args.out_dir;

  Outcome outcome;
  Metrics metrics;
  JsonValue workloads = JsonValue::object();
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);

  if (args.trace == 0) {
    const auto workload = make_workload(args.workload, settings);
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      const auto start = Clock::now();
      workload->setup(nullptr);
      setups.push_back(seconds_since(start));
    }
    run_passes(*workload, nullptr, args.seconds, kMinPasses);
    workload->check(outcome);
    metrics.push_back({"setup_s", percentile(setups, 0.5), "s"});
    workload->end_to_end(metrics);
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    workloads.set(args.workload, workload->describe());
  } else {
    Tracer tracer;
    for (const std::string& name : workload_names()) {
      const auto workload = make_workload(name, settings);
      const std::size_t from = tracer.size();
      workload->setup(&tracer);
      if (name == args.workload) {
        run_passes(*workload, nullptr, args.seconds / 2, 2);
        const std::size_t traced_from = tracer.size();
        run_passes(*workload, &tracer, args.seconds / 2, 2);
        metrics.push_back({"trace.perturbation",
                           workload->headline(true) / workload->headline(false),
                           "ratio"});
        const std::vector<Span> spans = tracer.spans();
        metrics.push_back(
            {"stats.verdict_ms",
             percentile(span_durations_ns(spans, "verdict", traced_from), 0.5) /
                 1e6,
             "ms"});
        metrics.push_back(
            {"report.write_ms",
             percentile(span_durations_ns(spans, "report", traced_from), 0.5) /
                 1e6,
             "ms"});
        metrics.push_back({"report.bytes",
                           static_cast<double>(workload->last_report_bytes()),
                           "B"});
      } else {
        for (int i = 0; i < workload->probe_passes(); ++i) {
          workload->pass(&tracer);
        }
      }
      workload->layer_metrics(tracer, from, metrics);
      workload->check(outcome);
      workloads.set(name, workload->describe());
    }
    tracer.write_json(args.out_dir + "/" + tag + "-spans.json", host);
  }

  // Every metric of the mode, once, with its declared unit.
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : metrics) by_name[m.name] = &m;
  JsonValue printed = JsonValue::object();
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() || it->second->unit != spec.unit) {
      std::fprintf(stderr, "bitspread_bench: metric %s was not produced\n",
                   spec.name);
      std::exit(3);
    }
    std::printf("%-40s %.9g %s\n", spec.name, it->second->value, spec.unit);
    JsonValue entry = JsonValue::object();
    entry.set("value", it->second->value);
    entry.set("unit", spec.unit);
    printed.set(spec.name, std::move(entry));
  };
  if (args.trace == 0) {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  } else {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  }

  const bool correct = outcome.failures.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;
  if (outcome.attempted > 0) {
    std::printf("failed_frac %.9g (%llu failed of %llu %s)\n",
                failed_frac(outcome.failed, outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted),
                args.workload == "escape_replicates" && args.trace == 0
                    ? "replicates"
                    : "operations");
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }

  JsonValue report = JsonValue::object();
  report.set("host", host);
  report.set("workload", args.workload);
  report.set("trace", args.trace);
  report.set("correct", correct);
  report.set("attempted", outcome.attempted);
  report.set("failed", outcome.failed);
  JsonValue failures = JsonValue::array();
  for (const std::string& failure : outcome.failures) failures.push_back(failure);
  report.set("failures", std::move(failures));
  report.set("metrics", printed);
  report.set("workloads", std::move(workloads));
  std::ofstream(args.out_dir + "/" + tag + ".json") << report.dump();

  JsonValue result = JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", outcome.attempted);
  result.set("failed", outcome.failed);
  result.set("metrics", std::move(printed));
  std::printf("%s\n", one_line(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  if (args.list_metrics) {
    for (const MetricSpec& spec : kEndToEnd) {
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    }
    return 0;
  }
  if (!release_build()) {
    std::fprintf(stderr,
                 "bitspread_bench: compiled without NDEBUG (not a Release "
                 "build); refusing to time it\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bitspread_bench: %s\n", e.what());
    return 4;
  }
}
