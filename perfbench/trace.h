// Spans recorded by the benchmark around its calls into the library. Kept
// in memory (one mutex-guarded vector; the shortest traced call is a
// ~80 us sharded round) and written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "arith.h"
#include "telemetry/json.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span and returns its id (never 0).
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);

  std::size_t size() const;
  // A copy of every span so far; ids index it (id = index + 1).
  std::vector<Span> spans() const;

  // Writes every span with its self time as one JSON document, with the
  // host stamp `host` (a JSON object) at its head.
  bool write_json(const std::string& path,
                  const bitspread::JsonValue& host) const;

 private:
  std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

// RAII span; a null tracer makes it a no-op (the untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

// Durations in ns of the spans named `name` recorded at index `from` or
// later, in recording order.
std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const char* name, std::size_t from = 0);
// Ids of the spans named `name` recorded at index `from` or later.
std::vector<std::uint64_t> span_ids(const std::vector<Span>& spans,
                                    const char* name, std::size_t from = 0);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
