#include "trace.h"

#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffffu);
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  const std::uint64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  if (id != 0 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path,
                        const bitspread::JsonValue& host) const {
  const std::vector<Span> all = spans();
  const std::vector<std::uint64_t> self = self_times_ns(all);
  bitspread::JsonValue list = bitspread::JsonValue::array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    bitspread::JsonValue row = bitspread::JsonValue::object();
    row.set("id", static_cast<std::uint64_t>(i + 1));
    row.set("name", all[i].name);
    row.set("parent", all[i].parent);
    row.set("thread", static_cast<std::uint64_t>(all[i].thread));
    row.set("start_ns", all[i].start_ns);
    row.set("end_ns", all[i].end_ns);
    row.set("self_ns", self[i]);
    list.push_back(std::move(row));
  }
  bitspread::JsonValue doc = bitspread::JsonValue::object();
  doc.set("host", host);
  doc.set("spans", std::move(list));
  std::ofstream out(path);
  out << doc.dump();
  return static_cast<bool>(out);
}

std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const char* name, std::size_t from) {
  std::vector<double> out;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) {
      out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    }
  }
  return out;
}

std::vector<std::uint64_t> span_ids(const std::vector<Span>& spans,
                                    const char* name, std::size_t from) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) out.push_back(i + 1);
  }
  return out;
}

}  // namespace perfbench
