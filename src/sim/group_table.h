// Flat tables keyed by multicast group: the per-packet lookups of the
// forwarding path (a router's outgoing interfaces, a host's subscriptions,
// the network's SIGMA-protected groups).
//
// An open-addressing hash table in one array: a lookup hashes the group
// value and probes forward from there, so it touches one or two cache lines
// instead of chasing tree nodes. The table keeps at most half its slots
// full and doubles when it would pass that; erasing shifts the following
// probe run back, so no tombstones accumulate. Nothing iterates a table, so
// the slot order (which depends on the insertion history) never shows in
// the simulation.
#ifndef MCC_SIM_GROUP_TABLE_H
#define MCC_SIM_GROUP_TABLE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/wire.h"
#include "util/require.h"

namespace mcc::sim {

/// A map from group to T.
template <typename T>
class group_map {
 public:
  /// The value mapped to `g`, or nullptr.
  [[nodiscard]] T* find(group_addr g) {
    const std::size_t i = locate(g.value);
    return i == npos ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const T* find(group_addr g) const {
    const std::size_t i = locate(g.value);
    return i == npos ? nullptr : &slots_[i].value;
  }

  /// The value mapped to `g`, value-initialised first if there is none.
  T& operator[](group_addr g) {
    if (T* v = find(g)) return *v;
    util::require(g.value != empty, "group_map: reserved group value");
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? 8 : 2 * slots_.size());
    }
    slot& s = slots_[first_empty(g.value)];
    s.key = g.value;
    ++size_;
    return s.value;
  }

  void erase(group_addr g) {
    std::size_t hole = locate(g.value);
    if (hole == npos) return;
    // Backward-shift deletion: walk the probe run after the hole and pull
    // back every entry whose home slot does not lie cyclically in
    // (hole, its slot], so that no lookup ever stops at the hole early.
    for (std::size_t j = next(hole); slots_[j].key != empty; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = slot{};
    --size_;
  }

 private:
  static constexpr int empty = std::numeric_limits<int>::min();
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  struct slot {
    int key = empty;
    T value{};
  };

  /// Fibonacci hashing: the top bits of value * 2^32/phi, which spread the
  /// runs of consecutive group values sessions use over the whole table.
  [[nodiscard]] std::size_t home(int value) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint32_t>(value) * 2654435769u) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  /// The slot holding `value`, or npos.
  [[nodiscard]] std::size_t locate(int value) const {
    if (slots_.empty()) return npos;
    for (std::size_t i = home(value);; i = next(i)) {
      if (slots_[i].key == empty) return npos;
      if (slots_[i].key == value) return i;
    }
  }

  /// The first empty slot of `value`'s probe run.
  [[nodiscard]] std::size_t first_empty(int value) const {
    std::size_t i = home(value);
    while (slots_[i].key != empty) i = next(i);
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<slot> old = std::exchange(slots_, std::vector<slot>(capacity));
    shift_ = 32;
    for (std::size_t c = capacity; c > 1; c /= 2) --shift_;
    for (slot& s : old) {
      if (s.key != empty) slots_[first_empty(s.key)] = std::move(s);
    }
  }

  std::vector<slot> slots_;  // size 0 or a power of two
  std::size_t size_ = 0;
  unsigned shift_ = 32;  // 32 - log2(slots_.size())
};

/// A set of groups.
class group_set {
 public:
  [[nodiscard]] bool contains(group_addr g) const {
    return members_.find(g) != nullptr;
  }
  void insert(group_addr g) { members_[g] = true; }
  void erase(group_addr g) { members_.erase(g); }

 private:
  group_map<bool> members_;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_GROUP_TABLE_H
