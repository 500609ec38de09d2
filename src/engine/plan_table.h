// A per-run memo of round plans, keyed by the state X_t.
//
// A fault-free aggregate or sequential run keeps n, the sources and the
// protocol fixed, so everything a round prepares before its first uniform
// (the Eq. 4 adoption probabilities, the binomial set-up) is a function of
// X_t alone. Trapped runs revisit the same few states for tens of thousands
// of rounds; the table lets a repeat state skip straight to its draws.
//
// Direct-mapped: slot X_t & 63, tag X_t. A miss rebuilds the slot with the
// same calls an uncached round makes, so a hit returns the identical plan
// and the run draws what it would have drawn without the table. The table
// is a fixed-size member of the per-run stepper: no heap, never shared
// between runs or threads.
#ifndef BITSPREAD_ENGINE_PLAN_TABLE_H_
#define BITSPREAD_ENGINE_PLAN_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace bitspread {

template <typename Plan>
class PlanTable {
 public:
  // The plan for state `key`, built by `build()` on a miss.
  template <typename Build>
  const Plan& get(std::uint64_t key, Build&& build) {
    Entry& entry = entries_[key & (kSlots - 1)];
    if (entry.tag != key) {
      entry.plan = build();
      entry.tag = key;
    }
    return entry.plan;
  }

  // Forgets every plan (a restored run may carry a different n).
  void clear() noexcept {
    for (Entry& entry : entries_) entry.tag = kEmpty;
  }

 private:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Entry {
    std::uint64_t tag = kEmpty;
    Plan plan;
  };
  std::array<Entry, kSlots> entries_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_PLAN_TABLE_H_
