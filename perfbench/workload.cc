#include "workload.h"

#include <atomic>
#include <fstream>

#include "telemetry/reporter.h"

namespace perfbench {

void consume(std::uint64_t value) noexcept {
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(value, std::memory_order_relaxed);
}

void Workload::write_pass_report(bitspread::JsonValue verdicts,
                                 Tracer* tracer, std::uint64_t parent) {
  const SpanScope span(tracer, "report", parent);
  bitspread::JsonReporter reporter(std::string("perfbench.") + name());
  reporter.set_seed(settings_.seed);
  reporter.set_quick(settings_.smoke);
  reporter.set_workload("threads", settings_.threads);
  reporter.set_extra("verdicts", std::move(verdicts));
  const std::string text = reporter.build().dump();
  std::ofstream out(settings_.out_dir + "/" + name() + "-pass.json",
                    std::ios::trunc);
  out << text;
  out.flush();
  report_bytes_ = out ? text.size() : 0;
}

}  // namespace perfbench
