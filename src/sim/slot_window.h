// Per-slot protocol state: a power-of-two array of {slot, value} entries
// indexed by `slot & mask`, plus a floor that only rises. An entry is live
// when it carries the slot asked for and that slot is at or above the floor;
// raising the floor resets every entry it drops, so a dropped slot holds no
// memory. A write that would overwrite a live slot doubles the array until
// every live slot has an index of its own, and the array never shrinks, so a
// window holds exactly the slots a map pruned below the same floor would
// hold. Unlike a map it refuses a write below the floor instead of
// resurrecting the slot.
#ifndef MCC_SIM_SLOT_WINDOW_H
#define MCC_SIM_SLOT_WINDOW_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/require.h"

namespace mcc::sim {

template <typename T>
class slot_window {
 public:
  /// The value of slot `s`; nullptr if it has none or lies below the floor.
  [[nodiscard]] T* find(std::int64_t s) {
    return const_cast<T*>(std::as_const(*this).find(s));
  }
  [[nodiscard]] const T* find(std::int64_t s) const {
    if (entries_.empty()) return nullptr;
    const entry& e = entries_[index(s)];
    return e.slot == s && s >= floor_ ? &e.value : nullptr;
  }

  /// The value of slot `s`, value-initialised if it has none. `s` must not
  /// lie below the floor. Invalidates pointers into the window.
  T& operator[](std::int64_t s) {
    util::require(s >= floor_, "slot_window: write below the floor", s);
    if (entries_.empty()) entries_.resize(8);
    if (entries_[index(s)].slot == s) return entries_[index(s)].value;
    if (entries_[index(s)].slot != unused) grow(s);
    entry& e = entries_[index(s)];
    e.slot = s;
    return e.value;
  }

  /// Drops (and resets) every slot below `s`; the floor never falls.
  void drop_below(std::int64_t s) {
    if (s <= floor_) return;
    floor_ = s;
    for (entry& e : entries_) {
      if (e.slot != unused && e.slot < s) e = entry{};
    }
  }
  [[nodiscard]] std::int64_t floor() const { return floor_; }
  /// Entries in the array: 0 before the first write, then a power of two.
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  /// Calls f(slot, value) on every live slot, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (const entry& e : entries_) {
      if (e.slot != unused) f(e.slot, e.value);
    }
  }

 private:
  static constexpr std::int64_t unused =
      std::numeric_limits<std::int64_t>::min();
  struct entry {
    std::int64_t slot = unused;
    T value{};
  };

  [[nodiscard]] std::size_t index(std::int64_t s) const {
    return static_cast<std::size_t>(s) & (entries_.size() - 1);
  }

  void grow(std::int64_t s) {
    std::int64_t lo = s;
    std::int64_t hi = s;
    for_each([&](std::int64_t slot, const T&) {
      lo = std::min(lo, slot);
      hi = std::max(hi, slot);
    });
    // Every owner keeps a handful of slots: a wider span is a wild slot
    // number, which must not size the array.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    util::require(span < (1u << 16), "slot_window: live slots span too wide",
                  span);
    std::size_t capacity = 2 * entries_.size();
    while (capacity <= span) capacity *= 2;
    std::vector<entry> old =
        std::exchange(entries_, std::vector<entry>(capacity));
    for (entry& e : old) {
      if (e.slot != unused) entries_[index(e.slot)] = std::move(e);
    }
  }

  std::vector<entry> entries_;  // empty or a power of two
  std::int64_t floor_ = unused + 1;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_SLOT_WINDOW_H
