// SIGMA control-channel robustness: tuple blocks must decode from any k of
// the k+m shards, in any arrival order, with duplicates, and parked
// subscriptions must be re-validated once the block decodes.
#include <gtest/gtest.h>

#include "sigma_harness.h"

namespace mcc::core {
namespace {

using fec_harness = mcc::testing::sigma_harness;

TEST(sigma_fec, decodes_from_data_shards_only) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 1);
  auto shards = h.make_shards(delta, 0, 4, 4);
  for (int i = 0; i < 4; ++i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
}

TEST(sigma_fec, decodes_from_parity_heavy_subset) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 2);
  auto shards = h.make_shards(delta, 0, 4, 4);
  // Lose all four data shards; feed the four parity shards.
  for (int i = 4; i < 8; ++i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
}

TEST(sigma_fec, insufficient_shards_do_not_decode) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 3);
  auto shards = h.make_shards(delta, 0, 4, 4);
  for (int i = 0; i < 3; ++i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 0u);
  // The fourth shard completes it.
  h.feed(shards[5]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
}

TEST(sigma_fec, duplicate_shards_do_not_fool_the_decoder) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 4);
  auto shards = h.make_shards(delta, 0, 4, 4);
  for (int i = 0; i < 3; ++i) {
    h.feed(shards[0]);  // same shard over and over
  }
  h.feed(shards[1]);
  h.feed(shards[2]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 0u);
  h.feed(shards[3]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
}

TEST(sigma_fec, reversed_arrival_order_is_fine) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 5);
  auto shards = h.make_shards(delta, 0, 4, 4);
  for (int i = 7; i >= 2; --i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
}

TEST(sigma_fec, parked_subscription_validates_after_late_decode) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 6);
  auto shards = h.make_shards(delta, 0, 4, 4);
  const delta_slot_keys* keys = delta.keys_for(key_lead_slots);

  // Subscription arrives before any ctrl shard.
  h.subscribe(5, key_lead_slots, {{sim::group_addr{901}, keys->top[1]}});
  EXPECT_EQ(h.sigma->stats().pending_subscriptions, 1u);
  EXPECT_EQ(h.sigma->stats().valid_keys, 0u);

  // Ctrl shards arrive; the parked subscription must be granted.
  for (int i = 0; i < 4; ++i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().valid_keys, 1u);
  EXPECT_TRUE(h.net.get(h.router)->has_oif(sim::group_addr{901}, h.iface));
}

TEST(sigma_fec, parked_subscription_with_bad_key_is_rejected_after_decode) {
  fec_harness h;
  delta_layered_sender delta(5, 4, 16, 7);
  auto shards = h.make_shards(delta, 0, 4, 4);

  h.subscribe(5, key_lead_slots,
              {{sim::group_addr{901}, crypto::group_key{0xBAD}}});
  for (int i = 0; i < 4; ++i) h.feed(shards[static_cast<std::size_t>(i)]);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 1u);
  EXPECT_FALSE(h.net.get(h.router)->has_oif(sim::group_addr{901}, h.iface));
}

}  // namespace
}  // namespace mcc::core
