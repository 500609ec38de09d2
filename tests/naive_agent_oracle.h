// A naive reference for the stateful per-agent round, written to be read, not
// to be fast: one synchronous round of StatefulProtocol::update over a plain
// vector of views, every sample drawn from the round-t snapshot. Complete
// graph, with-replacement sampling, no faults. ShardedAgentEngine's stateful
// path is checked against it in law (engine_cross_validation_test.cc).
#ifndef BITSPREAD_TESTS_NAIVE_AGENT_ORACLE_H_
#define BITSPREAD_TESTS_NAIVE_AGENT_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/stateful.h"
#include "random/rng.h"

namespace bitspread::oracle {

using Views = std::vector<StatefulProtocol::AgentView>;

// Sources (holding the correct opinion), then non-source ones, then
// non-source zeros, each in the protocol's initial view.
inline Views make_views(const StatefulProtocol& protocol,
                        const Configuration& config) {
  Views views(config.sources, protocol.initial_view(config.correct));
  views.resize(views.size() + config.non_source_ones(),
               protocol.initial_view(Opinion::kOne));
  views.resize(config.n, protocol.initial_view(Opinion::kZero));
  return views;
}

inline std::uint64_t count_ones(const Views& views) {
  std::uint64_t ones = 0;
  for (const auto& view : views) ones += to_int(view.opinion);
  return ones;
}

inline void step(const StatefulProtocol& protocol, Views& views,
                 std::uint64_t sources, Rng& rng) {
  const std::uint64_t n = views.size();
  const std::uint32_t ell = protocol.sample_size(n);
  const Views snapshot = views;
  for (std::uint64_t i = sources; i < n; ++i) {
    std::uint32_t ones_seen = 0;
    for (std::uint32_t j = 0; j < ell; ++j) {
      ones_seen += to_int(snapshot[rng.next_below(n)].opinion);
    }
    views[i] = protocol.update(views[i], ones_seen, ell, n, rng);
  }
}

// Rounds until the displayed opinions agree; max_rounds when they never do.
inline std::uint64_t rounds_to_consensus(const StatefulProtocol& protocol,
                                         const Configuration& config,
                                         std::uint64_t max_rounds, Rng& rng) {
  Views views = make_views(protocol, config);
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    const std::uint64_t ones = count_ones(views);
    if (ones == 0 || ones == config.n) return round;
    step(protocol, views, config.sources, rng);
  }
  return max_rounds;
}

}  // namespace bitspread::oracle

namespace bitspread {

// A memory-less protocol behind the stateful interface, hidden from the
// MemorylessAsStateful unwrap: ShardedAgentEngine runs it on its per-agent
// update path instead of the g-table fast path.
class OpaqueStateful final : public StatefulProtocol {
 public:
  explicit OpaqueStateful(const MemorylessProtocol& base) : adapter_(base) {}
  std::uint32_t state_count() const noexcept override { return 1; }
  std::uint32_t sample_size(std::uint64_t n) const noexcept override {
    return adapter_.sample_size(n);
  }
  AgentView update(AgentView current, std::uint32_t ones_seen,
                   std::uint32_t ell, std::uint64_t n,
                   Rng& rng) const override {
    return adapter_.update(current, ones_seen, ell, n, rng);
  }
  std::string name() const override { return adapter_.name(); }

 private:
  MemorylessAsStateful adapter_;
};

}  // namespace bitspread

#endif  // BITSPREAD_TESTS_NAIVE_AGENT_ORACLE_H_
