// The flight recorder: bounded per-thread rings of timestamped trace events,
// exported as Chrome trace-event JSON (Perfetto / about:tracing).
//
// Design constraints, in order:
//
//  1. *Bounded memory.* Each recording thread owns one fixed-capacity ring;
//     when it fills, the oldest events are evicted. A slow-crossing run that
//     takes 10^7 rounds costs the same memory as one that takes 10^2.
//  2. *No orphaned markers under eviction.* Spans are stored as single
//     COMPLETE records (begin + end in one event) pushed when the span
//     closes, so evicting an event can never strand an unmatched "B" or "E";
//     the Chrome B/E pairs are reconstructed at export time by a per-lane
//     sort + stack sweep (RAII guarantees proper nesting per thread).
//  3. *Dormant until set.* The probes that feed it — ScopedTimer,
//     record_round(), record_mark(), the pool's worker spans — record only
//     while an ObserverScope sets `trace` (telemetry.h describes the one
//     runtime gate). Recording reads clocks and writes ring slots; it NEVER
//     touches an RNG stream.
//
// Threading: each thread that records gets its own lane (ring) on first use,
// registered through an epoch-checked thread-local so stale pointers from a
// previous recorder are never dereferenced. Rings are single-writer
// (the owning thread); stats/export must only run while recording threads
// are quiescent (between runs, or after the recorder's scope ends) — the
// same join ordering PhaseStats relies on.
#ifndef BITSPREAD_TELEMETRY_TRACE_H_
#define BITSPREAD_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace telemetry {

class TraceRecorder {
 public:
  struct Options {
    // Events retained per recording thread (lane). Oldest evicted beyond
    // this. 1<<15 events ≈ 1.25 MiB/lane — enough for ~10k instrumented
    // rounds of the aggregate engine.
    std::size_t capacity = std::size_t{1} << 15;
  };

  enum class Kind : std::uint8_t { kSpan, kCounter, kInstant };

  // One ring slot. PODs only: `name` must point at a string literal (or
  // otherwise outlive the recorder); nothing is copied on the hot path.
  struct Event {
    Kind kind;
    const char* name;
    std::uint64_t t0;  // span: begin ns; counter/instant: timestamp ns.
    std::uint64_t t1;  // span: end ns; counter: value; instant: unused.
  };

  // Opaque per-thread ring; defined in trace.cc (public so the epoch-checked
  // thread-local registration cache can name it).
  struct Lane;

  TraceRecorder();
  explicit TraceRecorder(Options options);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Hot-path record calls. Each writes one slot of the calling thread's
  // lane, registering the lane on first use. `name` is stored by pointer.
  void span(const char* name, std::uint64_t begin_ns,
            std::uint64_t end_ns) noexcept;
  void counter(const char* name, std::uint64_t ts_ns,
               std::uint64_t value) noexcept;
  void instant(const char* name, std::uint64_t ts_ns) noexcept;

  // Capacity accounting (quiescent reads). recorded() counts every event
  // ever pushed; stored() what the rings still hold; dropped() the evicted
  // remainder — recorded() == stored() + dropped() always.
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t buffers() const;
  std::uint64_t recorded() const;
  std::uint64_t stored() const;
  std::uint64_t dropped() const;

  // Chrome trace-event export: {"traceEvents":[...]} with matched B/E pairs
  // per lane (tid), counter ("C") and instant ("i") events, and thread-name
  // metadata ("M"). Timestamps are steady-clock microseconds. Quiescent
  // read; the rings are left untouched (export is repeatable).
  JsonValue export_chrome_trace() const;

  // Serializes export_chrome_trace() to `path`. False on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Lane* lane_for_this_thread() noexcept;

  const std::size_t capacity_;
  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// Structural validator for a parsed Chrome trace document. Returns an empty
// vector when `trace` is a well-formed event container: top-level object
// with a "traceEvents" array; every event an object carrying string "ph"
// (one of B/E/C/i/M), string "name", numeric "pid"/"tid", numeric "ts";
// per-tid timestamps non-decreasing (metadata exempt) and B/E events
// forming a balanced stack with matching names. Used by the trace tests and
// by CI against written artifacts.
std::vector<std::string> validate_chrome_trace(const JsonValue& trace);

}  // namespace telemetry
}  // namespace bitspread

#endif  // BITSPREAD_TELEMETRY_TRACE_H_
