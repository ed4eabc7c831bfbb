// Tests for the threshold DELTA instantiation (Shamir-based, section 3.1.2):
// share arithmetic, per-level thresholds and key reconstruction from the
// shares tlm_delta_sender puts in each packet's level_shares.
#include <gtest/gtest.h>

#include <vector>

#include "core/tlm.h"

namespace mcc::core {
namespace {

/// A TLM sender for `cfg` on groups 101.. (one per level).
tlm_delta_sender make_delta(const threshold_config& cfg, std::uint64_t seed) {
  std::vector<sim::group_addr> groups;
  for (int g = 1; g <= cfg.num_levels; ++g) {
    groups.push_back(sim::group_addr{100 + g});
  }
  return tlm_delta_sender(1, cfg, std::move(groups), sim::milliseconds(250),
                          seed);
}

/// The level-`level` shares the packets of the current slot carry, in
/// packet order: what a loss-free receiver of the level collects.
std::vector<crypto::shamir_share> harvest(tlm_delta_sender& delta,
                                          std::int64_t slot,
                                          const std::vector<int>& counts,
                                          int level) {
  std::vector<crypto::shamir_share> out;
  for (int g = 1; g <= level; ++g) {
    const int n = counts[static_cast<std::size_t>(g)];
    for (int i = 0; i < n; ++i) {
      sim::flid_data hdr;
      delta.fill_fields(slot, g, i, i == n - 1, hdr);
      for (const auto& ls : hdr.level_shares) {
        if (ls.level == level) out.push_back(crypto::shamir_share{ls.x, ls.y});
      }
    }
  }
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

TEST(tlm_delta_sender, loss_above_the_threshold_yields_no_key) {
  // RLM default: 25% loss tolerated. Level 2 spans 20 packets, k = 15; a
  // receiver with 14 of them (30% loss) gets no key, and forcing the
  // interpolation at degree k - 2 gives a wrong one (Shamir's
  // information-theoretic property).
  auto delta = make_delta(threshold_config::uniform(3, 0.25), 43);
  const std::vector<int> counts = {0, 10, 10, 10};
  delta.begin_slot(0, 0, counts);
  ASSERT_EQ(delta.threshold_for(2), 15);
  auto shares = harvest(delta, 0, counts, 2);
  ASSERT_EQ(shares.size(), 20u);
  shares.resize(14);
  EXPECT_FALSE(reconstruct_threshold_key(shares, 15).has_value());
  const auto forged = reconstruct_threshold_key(shares, 14);
  ASSERT_TRUE(forged.has_value());
  EXPECT_NE(crypto::mask_to_bits(*forged, 16), *delta.key_for(2, 2));
}

TEST(tlm_delta_sender, any_k_subset_works) {
  auto delta = make_delta(threshold_config::uniform(1, 0.5), 45);
  const std::vector<int> counts = {0, 8};
  delta.begin_slot(0, 0, counts);
  const int k = delta.threshold_for(1);  // 4 of 8
  ASSERT_EQ(k, 4);
  const auto all = harvest(delta, 0, counts, 1);
  // Take shares 1, 3, 5, 7 (an arbitrary spread subset).
  const std::vector<crypto::shamir_share> subset = {all[1], all[3], all[5],
                                                    all[7]};
  const auto got = reconstruct_threshold_key(subset, k);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(crypto::mask_to_bits(*got, 16), *delta.key_for(2, 1));
}

TEST(tlm_delta_sender, per_level_thresholds_differ) {
  // Decaying thresholds 40%, 20%, 10% over n_g = 10, 20, 30 packets.
  auto delta = make_delta(threshold_config::decaying(3, 0.4, 0.5), 46);
  delta.begin_slot(0, 0, {0, 10, 10, 10});
  EXPECT_EQ(delta.threshold_for(1), 6);
  EXPECT_EQ(delta.threshold_for(2), 16);
  EXPECT_EQ(delta.threshold_for(3), 27);
}

TEST(tlm_delta_sender, keys_rotate_per_slot) {
  auto delta = make_delta(threshold_config::uniform(1, 0.25), 47);
  delta.begin_slot(0, 0, {0, 10});
  const auto k0 = *delta.key_for(2, 1);
  delta.begin_slot(1, 0, {0, 10});
  const auto k1 = *delta.key_for(3, 1);
  EXPECT_NE(k0, k1);
}

TEST(tlm_delta_sender, keeps_the_key_history_below_the_newest_target) {
  auto delta = make_delta(threshold_config::uniform(1, 0.25), 49);
  for (std::int64_t s = 0; s <= 20; ++s) delta.begin_slot(s, 0, {0, 10});
  // Newest target 22: 22 - 8 is kept, 22 - 9 is gone.
  EXPECT_TRUE(delta.key_for(14, 1).has_value());
  EXPECT_FALSE(delta.key_for(13, 1).has_value());
}

TEST(tlm_delta_sender, unknown_slot_or_level_returns_nothing) {
  auto delta = make_delta(threshold_config::uniform(2, 0.25), 48);
  delta.begin_slot(0, 0, {0, 5, 5});
  EXPECT_FALSE(delta.key_for(99, 1).has_value());
  EXPECT_FALSE(delta.key_for(2, 0).has_value());
  EXPECT_FALSE(delta.key_for(2, 3).has_value());
}

struct threshold_case {
  double threshold;
  int n;
  int received;
};

class threshold_sweep : public ::testing::TestWithParam<threshold_case> {};

TEST_P(threshold_sweep, reconstruction_succeeds_iff_loss_within_threshold) {
  const auto [threshold, n, received] = GetParam();
  auto delta = make_delta(threshold_config::uniform(1, threshold),
                          static_cast<std::uint64_t>(n * 1000 + received));
  const std::vector<int> counts = {0, n};
  delta.begin_slot(0, 0, counts);
  const int k = delta.threshold_for(1);
  auto shares = harvest(delta, 0, counts, 1);
  shares.resize(static_cast<std::size_t>(received));
  const auto key = reconstruct_threshold_key(shares, k);
  if (received >= k) {
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(crypto::mask_to_bits(*key, 16), *delta.key_for(2, 1));
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
