// Tests for the XOR DELTA instantiation on replicated sessions (paper
// Figure 5): delta_layered_sender with session_structure::replicated, and
// reconstruct_replicated over a receiver's slot summary.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/delta_layered.h"

namespace mcc::core {
namespace {

constexpr int groups = 5;

struct rep_harness {
  rep_harness()
      : sender(7, groups, 64, 99, flid::session_structure::replicated) {}

  /// Simulates one slot and returns the summary of a receiver that held
  /// `current` for the whole slot (it records decrease fields only from its
  /// own group, per Figure 5).
  flid::slot_summary run_slot(std::int64_t slot, int current,
                              std::uint32_t auth_mask, int count,
                              const std::set<int>& lost) {
    std::vector<int> counts(groups + 1, count);
    sender.begin_slot(slot, auth_mask, counts);
    flid::slot_summary s;
    s.slot = slot;
    s.level = current;
    s.auth_mask = auth_mask;
    s.groups.resize(groups + 1);
    flid::group_slot_record& rec = s.groups[static_cast<std::size_t>(current)];
    for (int g = 1; g <= groups; ++g) {
      for (int i = 0; i < count; ++i) {
        sim::flid_data hdr;
        sender.fill_fields(slot, g, i, i == count - 1, hdr);
        if (g == current) {
          if (lost.contains(i)) continue;
          ++rec.received;
          rec.expected = count;
          rec.xor_components ^= hdr.component;
          rec.decrease = hdr.decrease;  // group g's decrease field = delta_{g-1}
        }
      }
    }
    return s;
  }

  [[nodiscard]] bool valid(std::int64_t slot, int g,
                           crypto::group_key k) const {
    const delta_slot_keys* keys = sender.keys_for(slot + key_lead_slots);
    if (keys == nullptr) return false;
    if (k == keys->top[static_cast<std::size_t>(g)]) return true;
    if (g <= groups - 1 && k == keys->decrease[static_cast<std::size_t>(g)]) {
      return true;
    }
    const auto& inc = keys->increase[static_cast<std::size_t>(g)];
    return g >= 2 && inc.has_value() && k == *inc;
  }

  delta_layered_sender sender;
};

TEST(delta_replicated, top_key_is_group_local_xor) {
  rep_harness h;
  const auto rec = h.run_slot(0, 3, 0, 4, {});
  const auto* keys = h.sender.keys_for(key_lead_slots);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(rec.groups[3].xor_components, keys->top[3]);
}

TEST(delta_replicated, uncongested_receiver_keeps_group) {
  rep_harness h;
  const auto rec = h.run_slot(0, 3, 0, 4, {});
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 3);
  ASSERT_TRUE(out.key.has_value());
  EXPECT_TRUE(h.valid(0, 3, *out.key));
}

TEST(delta_replicated, uncongested_receiver_upgrades_when_authorized) {
  rep_harness h;
  const auto rec = h.run_slot(0, 3, 1u << 4, 4, {});
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 4);
  ASSERT_TRUE(out.key.has_value());
  // iota_4 = tau_3: the same value must open group 4.
  EXPECT_TRUE(h.valid(0, 4, *out.key));
}

TEST(delta_replicated, congested_receiver_switches_down) {
  rep_harness h;
  const auto rec = h.run_slot(0, 3, 0, 4, {1});
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 2);
  ASSERT_TRUE(out.key.has_value());
  EXPECT_TRUE(h.valid(0, 2, *out.key));
}

TEST(delta_replicated, congested_key_does_not_open_current_group) {
  rep_harness h;
  const auto rec = h.run_slot(0, 3, 0, 4, {1});
  const auto out = reconstruct_replicated(rec, groups);
  ASSERT_TRUE(out.key.has_value());
  EXPECT_FALSE(h.valid(0, 3, *out.key));
}

TEST(delta_replicated, congested_at_minimal_group_gets_nothing) {
  rep_harness h;
  const auto rec = h.run_slot(0, 1, 0, 4, {0});
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 0);
  EXPECT_FALSE(out.key.has_value());
}

TEST(delta_replicated, no_group_held_for_the_whole_slot_gets_nothing) {
  // A receiver that switched groups during the slot holds none for all of
  // it (summary level 0): it has no record to reconstruct from.
  rep_harness h;
  auto rec = h.run_slot(0, 3, 0, 4, {});
  rec.level = 0;
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 0);
  EXPECT_FALSE(out.key.has_value());
}

TEST(delta_replicated, partial_components_do_not_validate) {
  rep_harness h;
  const auto rec = h.run_slot(0, 4, 0, 5, {2});
  // The XOR of the surviving components must not open any group.
  for (int g = 1; g <= groups; ++g) {
    EXPECT_FALSE(h.valid(0, g, rec.groups[4].xor_components));
  }
}

TEST(delta_replicated, no_upgrade_without_authorization) {
  rep_harness h;
  const auto rec = h.run_slot(0, 2, 0, 3, {});
  const auto out = reconstruct_replicated(rec, groups);
  EXPECT_EQ(out.next_group, 2);
  ASSERT_TRUE(out.key.has_value());
  EXPECT_FALSE(h.valid(0, 3, *out.key));
}

TEST(delta_replicated, keys_rotate_between_slots) {
  rep_harness h;
  h.run_slot(0, 1, 0, 3, {});
  const auto k0 = h.sender.keys_for(key_lead_slots)->top;
  h.run_slot(1, 1, 0, 3, {});
  const auto k1 = h.sender.keys_for(1 + key_lead_slots)->top;
  for (int g = 1; g <= groups; ++g) {
    EXPECT_NE(k0[static_cast<std::size_t>(g)], k1[static_cast<std::size_t>(g)]);
  }
}

class replicated_group_sweep : public ::testing::TestWithParam<int> {};

TEST_P(replicated_group_sweep, entitlement_never_exceeds_one_step_up) {
  const int current = GetParam();
  rep_harness h;
  const auto rec =
      h.run_slot(0, current, 0xffffffffu, 4, {});  // everything authorized
  const auto out = reconstruct_replicated(rec, groups);
  const int expected = current < groups ? current + 1 : current;
  EXPECT_EQ(out.next_group, expected);
  ASSERT_TRUE(out.key.has_value());
  EXPECT_TRUE(h.valid(0, expected, *out.key));
  // The single key must not open groups two or more levels up.
  for (int g = expected + 1; g <= groups; ++g) {
    EXPECT_FALSE(h.valid(0, g, *out.key));
  }
}

INSTANTIATE_TEST_SUITE_P(groups_1_to_5, replicated_group_sweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mcc::core
