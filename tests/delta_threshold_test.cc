// Tests for the threshold DELTA instantiation (Shamir-based, section 3.1.2).
#include "core/delta_threshold.h"

#include <gtest/gtest.h>

#include <vector>

namespace mcc::core {
namespace {

std::vector<crypto::shamir_share> collect(const delta_threshold_sender& s,
                                          int level, int n, int take) {
  std::vector<crypto::shamir_share> out;
  for (int i = 0; i < take && i < n; ++i) out.push_back(s.share_for(level, i));
  return out;
}

TEST(shares_required, matches_threshold_arithmetic) {
  EXPECT_EQ(shares_required(0.25, 100), 75);
  EXPECT_EQ(shares_required(0.25, 4), 3);
  EXPECT_EQ(shares_required(0.0, 10), 10);
  EXPECT_EQ(shares_required(0.99, 10), 1);
  EXPECT_EQ(shares_required(0.5, 1), 1);
}

TEST(shares_required, rejects_bad_inputs) {
  EXPECT_THROW((void)shares_required(1.0, 10), util::invariant_error);
  EXPECT_THROW((void)shares_required(-0.1, 10), util::invariant_error);
  EXPECT_THROW((void)shares_required(0.25, 0), util::invariant_error);
}

TEST(threshold_config, uniform_fills_all_levels) {
  const auto cfg = threshold_config::uniform(5, 0.25);
  for (int g = 1; g <= 5; ++g) {
    EXPECT_DOUBLE_EQ(cfg.loss_threshold[static_cast<std::size_t>(g)], 0.25);
  }
}

TEST(threshold_config, decaying_lowers_higher_levels) {
  // MLDA/WEBRC style: higher subscription levels tolerate less loss.
  const auto cfg = threshold_config::decaying(5, 0.25, 0.5);
  for (int g = 2; g <= 5; ++g) {
    EXPECT_LT(cfg.loss_threshold[static_cast<std::size_t>(g)],
              cfg.loss_threshold[static_cast<std::size_t>(g - 1)]);
  }
}

TEST(delta_threshold, receiver_at_loss_threshold_reconstructs) {
  // RLM default: 25% loss tolerated. 20 packets, k = 15.
  auto cfg = threshold_config::uniform(3, 0.25);
  delta_threshold_sender sender(cfg, 42);
  std::vector<int> counts = {0, 20, 20, 20};
  sender.begin_slot(0, counts);
  EXPECT_EQ(sender.threshold_for(2), 15);

  const auto shares = collect(sender, 2, 20, 15);
  const auto key = reconstruct_threshold_key(shares, 15);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, *sender.key_for(0 + 2, 2));
}

TEST(delta_threshold, receiver_above_loss_threshold_fails) {
  auto cfg = threshold_config::uniform(3, 0.25);
  delta_threshold_sender sender(cfg, 43);
  std::vector<int> counts = {0, 20, 20, 20};
  sender.begin_slot(0, counts);
  // Only 14 of 20 packets (30% loss > 25% threshold).
  const auto shares = collect(sender, 2, 20, 14);
  EXPECT_FALSE(reconstruct_threshold_key(shares, 15).has_value());
}

TEST(delta_threshold, below_threshold_shares_give_wrong_key) {
  auto cfg = threshold_config::uniform(2, 0.25);
  delta_threshold_sender sender(cfg, 44);
  std::vector<int> counts = {0, 16, 16};
  sender.begin_slot(0, counts);
  const int k = sender.threshold_for(1);
  auto shares = collect(sender, 1, 16, k - 1);
  // Forcing interpolation with k-1 shares at the wrong degree cannot recover
  // the true key (information-theoretic property of Shamir sharing).
  const auto forged = reconstruct_threshold_key(shares, k - 1);
  ASSERT_TRUE(forged.has_value());
  EXPECT_NE(*forged, *sender.key_for(2, 1));
}

TEST(delta_threshold, any_k_subset_works) {
  auto cfg = threshold_config::uniform(1, 0.5);
  delta_threshold_sender sender(cfg, 45);
  std::vector<int> counts = {0, 8};
  sender.begin_slot(0, counts);
  const int k = sender.threshold_for(1);  // 4 of 8
  ASSERT_EQ(k, 4);
  const auto key = *sender.key_for(2, 1);
  // Take shares 1, 3, 5, 7 (an arbitrary spread subset).
  std::vector<crypto::shamir_share> subset = {
      sender.share_for(1, 1), sender.share_for(1, 3), sender.share_for(1, 5),
      sender.share_for(1, 7)};
  const auto got = reconstruct_threshold_key(subset, k);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, key);
}

TEST(delta_threshold, per_level_thresholds_differ) {
  auto cfg = threshold_config::decaying(3, 0.4, 0.5);
  delta_threshold_sender sender(cfg, 46);
  std::vector<int> counts = {0, 10, 10, 10};
  sender.begin_slot(0, counts);
  EXPECT_EQ(sender.threshold_for(1), 6);   // 40% loss tolerated
  EXPECT_EQ(sender.threshold_for(2), 8);   // 20%
  EXPECT_EQ(sender.threshold_for(3), 9);   // 10%
}

TEST(delta_threshold, keys_rotate_per_slot) {
  auto cfg = threshold_config::uniform(1, 0.25);
  delta_threshold_sender sender(cfg, 47);
  std::vector<int> counts = {0, 10};
  sender.begin_slot(0, counts);
  const auto k0 = *sender.key_for(2, 1);
  sender.begin_slot(1, counts);
  const auto k1 = *sender.key_for(3, 1);
  EXPECT_NE(k0, k1);
}

TEST(delta_threshold, keeps_the_key_history_below_the_newest_target) {
  auto cfg = threshold_config::uniform(1, 0.25);
  delta_threshold_sender sender(cfg, 49);
  std::vector<int> counts = {0, 10};
  for (std::int64_t s = 0; s <= 20; ++s) sender.begin_slot(s, counts);
  // Newest target 22: 22 - 8 is kept, 22 - 9 is gone.
  EXPECT_TRUE(sender.key_for(14, 1).has_value());
  EXPECT_FALSE(sender.key_for(13, 1).has_value());
}

TEST(delta_threshold, unknown_slot_or_level_returns_nothing) {
  auto cfg = threshold_config::uniform(2, 0.25);
  delta_threshold_sender sender(cfg, 48);
  std::vector<int> counts = {0, 5, 5};
  sender.begin_slot(0, counts);
  EXPECT_FALSE(sender.key_for(99, 1).has_value());
  EXPECT_FALSE(sender.key_for(2, 0).has_value());
  EXPECT_FALSE(sender.key_for(2, 3).has_value());
}

struct threshold_case {
  double threshold;
  int n;
  int received;
};

class threshold_sweep : public ::testing::TestWithParam<threshold_case> {};

TEST_P(threshold_sweep, reconstruction_succeeds_iff_loss_within_threshold) {
  const auto [threshold, n, received] = GetParam();
  auto cfg = threshold_config::uniform(1, threshold);
  delta_threshold_sender sender(
      cfg, static_cast<std::uint64_t>(n * 1000 + received));
  std::vector<int> counts = {0, n};
  sender.begin_slot(0, counts);
  const int k = sender.threshold_for(1);
  const auto shares = collect(sender, 1, n, received);
  const auto key = reconstruct_threshold_key(shares, k);
  if (received >= k) {
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, *sender.key_for(2, 1));
  } else {
    EXPECT_FALSE(key.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    loss_grid, threshold_sweep,
    ::testing::Values(threshold_case{0.25, 20, 20},
                      threshold_case{0.25, 20, 15},
                      threshold_case{0.25, 20, 14},
                      threshold_case{0.25, 20, 0},
                      threshold_case{0.5, 10, 5}, threshold_case{0.5, 10, 4},
                      threshold_case{0.1, 30, 27}, threshold_case{0.1, 30, 26},
                      threshold_case{0.0, 8, 8}, threshold_case{0.0, 8, 7}));

}  // namespace
}  // namespace mcc::core
