// sim::slot_window against a std::map oracle that is pruned by the same
// floor: every live slot, value and lookup must agree, through growth,
// index wraparound and floor jumps wider than the array.
#include "sim/slot_window.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>

namespace mcc::sim {
namespace {

/// The window's contents, in slot order.
std::map<std::int64_t, std::uint64_t> contents(
    const slot_window<std::uint64_t>& w) {
  std::map<std::int64_t, std::uint64_t> out;
  w.for_each([&](std::int64_t s, std::uint64_t v) {
    EXPECT_TRUE(out.emplace(s, v).second) << "slot " << s << " seen twice";
  });
  return out;
}

TEST(slot_window, empty_window_finds_nothing) {
  slot_window<int> w;
  EXPECT_EQ(w.find(0), nullptr);
  EXPECT_EQ(w.find(-1), nullptr);
  EXPECT_EQ(w.capacity(), 0u);
}

TEST(slot_window, write_value_initialises_a_stale_entry) {
  slot_window<int> w;
  w[3] = 7;
  w.drop_below(4);
  EXPECT_EQ(w.find(3), nullptr);
  // Slot 11 reuses slot 3's entry (8 entries): it must start from zero.
  EXPECT_EQ(w[11], 0);
  EXPECT_EQ(w.capacity(), 8u);
}

TEST(slot_window, colliding_live_write_doubles_until_it_fits) {
  slot_window<std::uint64_t> w;
  for (std::int64_t s = 0; s < 8; ++s) w[s] = static_cast<std::uint64_t>(s);
  EXPECT_EQ(w.capacity(), 8u);
  // Slot 20 collides with live slot 4 and spans 21 slots: two doublings.
  w[20] = 20;
  EXPECT_EQ(w.capacity(), 32u);
  for (std::int64_t s = 0; s < 8; ++s) {
    ASSERT_NE(w.find(s), nullptr);
    EXPECT_EQ(*w.find(s), static_cast<std::uint64_t>(s));
  }
  EXPECT_EQ(*w.find(20), 20u);
  EXPECT_EQ(w.find(12), nullptr);
}

TEST(slot_window, write_below_the_floor_is_refused) {
  slot_window<int> w;
  w[10] = 1;
  w.drop_below(10);
  EXPECT_THROW(w[9], util::invariant_error);
  EXPECT_EQ(w.find(9), nullptr);
  EXPECT_EQ(*w.find(10), 1);
  // The floor never falls.
  w.drop_below(2);
  EXPECT_EQ(w.floor(), 10);
}

TEST(slot_window, live_slots_spanning_too_wide_are_refused) {
  slot_window<int> w;
  w[0] = 1;
  w[1] = 1;
  EXPECT_THROW(w[std::int64_t{1} << 40], util::invariant_error);
  EXPECT_EQ(*w.find(0), 1);
}

TEST(slot_window, matches_a_pruned_map_under_random_operations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    slot_window<std::uint64_t> w;
    std::map<std::int64_t, std::uint64_t> oracle;
    // Start negative so the index masking sees both signs and wraps.
    std::int64_t floor = -40 - static_cast<std::int64_t>(seed);
    w.drop_below(floor);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t op = pick(0, 99);
      if (op < 50) {
        // Writes mostly inside a few slots of the floor, sometimes well
        // ahead of it (forcing growth), sometimes below it.
        const std::int64_t s = floor + (op < 5    ? pick(-6, -1)
                                        : op < 10 ? pick(20, 200)
                                                  : pick(0, 12));
        const std::uint64_t v = static_cast<std::uint64_t>(pick(1, 1000));
        if (s < floor) {
          EXPECT_THROW(w[s], util::invariant_error);
        } else {
          w[s] += v;
          oracle[s] += v;
        }
      } else if (op < 80) {
        const std::int64_t s = floor + pick(-10, 60);
        const std::uint64_t* got = w.find(s);
        const auto it = oracle.find(s);
        if (it == oracle.end()) {
          EXPECT_EQ(got, nullptr) << "seed " << seed << " slot " << s;
        } else {
          ASSERT_NE(got, nullptr) << "seed " << seed << " slot " << s;
          EXPECT_EQ(*got, it->second);
        }
      } else {
        // Floor moves: small steps, no-ops below the floor, and jumps wider
        // than the whole array.
        const std::int64_t s = floor + (op < 83   ? pick(-5, 0)
                                        : op < 88 ? pick(100, 500)
                                                  : pick(1, 6));
        w.drop_below(s);
        floor = std::max(floor, s);
        oracle.erase(oracle.begin(), oracle.lower_bound(floor));
      }
      ASSERT_EQ(w.floor(), floor);
      ASSERT_EQ(contents(w), oracle) << "seed " << seed << " step " << step;
    }
    EXPECT_GE(w.capacity(), 64u);  // growth happened
  }
}

}  // namespace
}  // namespace mcc::sim
