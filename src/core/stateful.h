// Stateful (bounded-memory) protocols.
//
// The paper's Discussion (§5) asks whether the lower bound extends to
// protocols with a constant amount of memory; the protocol of Korman & Vacus
// (PODC 2022) solves the problem with Theta(log log n) bits. To let the
// library explore that territory, a StatefulProtocol carries a small integer
// state across rounds in addition to the displayed opinion. Communication
// remains passive: an agent still observes only the *opinions* in its sample,
// never the states.
#ifndef BITSPREAD_CORE_STATEFUL_H_
#define BITSPREAD_CORE_STATEFUL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/opinion.h"
#include "core/protocol.h"
#include "random/rng.h"

namespace bitspread {

class StatefulProtocol {
 public:
  virtual ~StatefulProtocol() = default;

  // An agent's full internal condition: what it shows, plus what it remembers.
  struct AgentView {
    Opinion opinion = Opinion::kZero;
    std::uint32_t state = 0;
  };

  // Number of distinct memory states (memory = ceil(log2(state_count)) bits).
  virtual std::uint32_t state_count() const noexcept = 0;

  virtual std::uint32_t sample_size(std::uint64_t n) const noexcept = 0;

  // One activation: the agent holding `current` observed `ones_seen` ones in
  // its l samples; returns its next view. May randomize through `rng`.
  virtual AgentView update(AgentView current, std::uint32_t ones_seen,
                           std::uint32_t ell, std::uint64_t n,
                           Rng& rng) const = 0;

  // View assigned at (adversarial) initialization; self-stabilization demands
  // convergence from *any* state, so engines also allow arbitrary states.
  virtual AgentView initial_view(Opinion opinion) const noexcept {
    return AgentView{opinion, 0};
  }

  virtual std::string name() const = 0;
};

// Adapts a MemorylessProtocol to the stateful interface (one state), so code
// written against StatefulProtocol takes both kinds. ShardedAgentEngine
// unwraps it back onto its memory-less fast path.
class MemorylessAsStateful final : public StatefulProtocol {
 public:
  explicit MemorylessAsStateful(const MemorylessProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  std::uint32_t state_count() const noexcept override { return 1; }
  std::uint32_t sample_size(std::uint64_t n) const noexcept override {
    return protocol_->sample_size(n);
  }
  AgentView update(AgentView current, std::uint32_t ones_seen,
                   std::uint32_t ell, std::uint64_t n,
                   Rng& rng) const override {
    const double p = protocol_->g(current.opinion, ones_seen, ell, n);
    return AgentView{rng.bernoulli(p) ? Opinion::kOne : Opinion::kZero, 0};
  }
  std::string name() const override { return protocol_->name(); }

  // The wrapped protocol; lets engines recover the memory-less fast path
  // (per-round g-tables) when handed the adapter.
  const MemorylessProtocol& base() const noexcept { return *protocol_; }

 private:
  const MemorylessProtocol* protocol_;
};

}  // namespace bitspread

#endif  // BITSPREAD_CORE_STATEFUL_H_
