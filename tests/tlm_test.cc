// Threshold layered multicast (TLM) over DELTA/SIGMA: the loss-rate rule is
// enforced cryptographically, and the untouched SIGMA router serves a
// completely different congestion control protocol (Requirement 3).
#include "core/tlm.h"

#include <gtest/gtest.h>

#include "exp/testbed.h"
#include "traffic/cbr.h"
#include "util/require.h"

namespace mcc::core {
namespace {

struct tlm_world {
  explicit tlm_world(double bottleneck_bps, double base_threshold = 0.25,
                     std::uint64_t seed = 3,
                     std::unique_ptr<tlm_sigma_strategy> custom = nullptr) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = bottleneck_bps;
    cfg.seed = seed;
    d = std::make_unique<exp::testbed>(exp::dumbbell(cfg));

    fc = d->default_flid_config(exp::flid_mode::ds);
    fc.session_id = 70;
    fc.group_addr_base = 70'000;
    thresholds = threshold_config::uniform(fc.num_groups, base_threshold,
                                           fc.key_bits);

    src = d->attach_host("tlm_src", "l");
    sender = std::make_unique<flid::flid_sender>(d->net(), src, fc, seed);
    bundle = make_tlm_sender(d->net(), src, *sender, thresholds, seed + 1);
    sender->start(0);

    dst = d->attach_host("tlm_rcv", "r");
    auto strategy = custom != nullptr
                        ? std::move(custom)
                        : std::make_unique<tlm_sigma_strategy>(thresholds);
    strategy_raw = strategy.get();
    receiver = std::make_unique<flid::flid_receiver>(
        d->net(), dst, d->router("r"), fc, std::move(strategy));
    receiver->start(0);
  }

  std::unique_ptr<exp::testbed> d;
  flid::flid_config fc;
  threshold_config thresholds;
  sim::node_id src, dst;
  std::unique_ptr<flid::flid_sender> sender;
  tlm_sender_bundle bundle;
  tlm_sigma_strategy* strategy_raw = nullptr;
  std::unique_ptr<flid::flid_receiver> receiver;
};

TEST(tlm, climbs_to_top_when_uncongested) {
  tlm_world w(10e6);
  w.d->run_until(sim::seconds(90.0));
  EXPECT_EQ(w.receiver->level(), w.fc.num_groups);
  EXPECT_GT(w.strategy_raw->tlm_stats().levels_reconstructed, 0u);
  EXPECT_EQ(w.d->sigma().stats().invalid_keys, 0u);
}

TEST(tlm, settles_near_fair_level_at_bottleneck) {
  tlm_world w(250e3);
  w.d->run_until(sim::seconds(120.0));
  const double kbps = w.receiver->monitor().average_kbps(sim::seconds(60.0),
                                                         sim::seconds(120.0));
  EXPECT_GT(kbps, 120.0);
  EXPECT_LT(kbps, 300.0);
}

TEST(tlm, tolerates_loss_below_threshold_unlike_flid) {
  // A light random loss process (via a slightly undersized bottleneck) that
  // FLID-DS's single-loss rule punishes constantly should leave a
  // 25%-threshold TLM receiver mostly unharmed at its sustainable level.
  tlm_world w(400e3, 0.25, 11);
  w.d->run_until(sim::seconds(120.0));
  // Cumulative rates: level 4 = 338k < 400k; level 5 = 506k overshoots and
  // produces ~20% loss, within the 25% threshold -> TLM can hold 4-5.
  EXPECT_GE(w.receiver->level(), 3);
  const double kbps = w.receiver->monitor().average_kbps(sim::seconds(60.0),
                                                         sim::seconds(120.0));
  EXPECT_GT(kbps, 250.0);
}

TEST(tlm, sender_emits_one_share_per_level_per_packet) {
  sim::scheduler sched;
  sim::network net(sched);
  const auto host = net.add_host("h");
  flid::flid_config fc;
  fc.session_id = 2;
  fc.group_addr_base = 100;
  fc.num_groups = 4;
  std::vector<sim::group_addr> groups;
  for (int g = 1; g <= 4; ++g) groups.push_back(fc.group(g));
  auto cfg = threshold_config::uniform(4, 0.25);
  tlm_delta_sender delta(2, cfg, groups, sim::milliseconds(250), 5);
  std::vector<int> counts = {0, 4, 3, 2, 2};
  delta.begin_slot(0, 0, counts);

  sim::flid_data hdr;
  delta.fill_fields(0, 1, 0, false, hdr);
  EXPECT_EQ(hdr.level_shares.size(), 4u);  // levels 1..4
  delta.fill_fields(0, 3, 1, false, hdr);
  EXPECT_EQ(hdr.level_shares.size(), 2u);  // levels 3..4
  EXPECT_EQ(hdr.level_shares[0].level, 3);
  EXPECT_EQ(hdr.level_shares[1].level, 4);
  (void)host;
}

TEST(tlm, key_reconstructs_exactly_at_threshold) {
  flid::flid_config fc;
  fc.group_addr_base = 100;
  fc.num_groups = 2;
  std::vector<sim::group_addr> groups = {fc.group(1), fc.group(2)};
  auto cfg = threshold_config::uniform(2, 0.25);
  tlm_delta_sender delta(3, cfg, groups, sim::milliseconds(250), 6);
  std::vector<int> counts = {0, 8, 8};  // level 1: n=8 k=6; level 2: n=16 k=12
  delta.begin_slot(0, 0, counts);
  EXPECT_EQ(delta.threshold_for(1), 6);
  EXPECT_EQ(delta.threshold_for(2), 12);

  // Collect level-2 shares from all 16 packets, then check the boundary.
  std::vector<crypto::shamir_share> shares;
  for (int g = 1; g <= 2; ++g) {
    for (int i = 0; i < 8; ++i) {
      sim::flid_data hdr;
      delta.fill_fields(0, g, i, i == 7, hdr);
      for (const auto& ls : hdr.level_shares) {
        if (ls.level == 2) shares.push_back(crypto::shamir_share{ls.x, ls.y});
      }
    }
  }
  ASSERT_EQ(shares.size(), 16u);
  const auto key = delta.key_for(2, 2);
  ASSERT_TRUE(key.has_value());
  const auto at_k = reconstruct_threshold_key({shares.data(), 12}, 12);
  ASSERT_TRUE(at_k.has_value());
  EXPECT_EQ(crypto::mask_to_bits(*at_k, 16), *key);
  const auto below_k = reconstruct_threshold_key({shares.data(), 11}, 12);
  EXPECT_FALSE(below_k.has_value());
}

TEST(tlm, shares_of_one_level_do_not_open_another) {
  flid::flid_config fc;
  fc.group_addr_base = 100;
  fc.num_groups = 3;
  std::vector<sim::group_addr> groups = {fc.group(1), fc.group(2), fc.group(3)};
  auto cfg = threshold_config::uniform(3, 0.5);
  tlm_delta_sender delta(4, cfg, groups, sim::milliseconds(250), 7);
  std::vector<int> counts = {0, 6, 6, 6};
  delta.begin_slot(0, 0, counts);

  // Reconstruct level 1's key and verify it differs from levels 2 and 3.
  std::vector<crypto::shamir_share> level1;
  for (int i = 0; i < 6; ++i) {
    sim::flid_data hdr;
    delta.fill_fields(0, 1, i, i == 5, hdr);
    level1.push_back(
        crypto::shamir_share{hdr.level_shares[0].x, hdr.level_shares[0].y});
  }
  const auto k1 = reconstruct_threshold_key(
      {level1.data(), level1.size()}, delta.threshold_for(1));
  ASSERT_TRUE(k1.has_value());
  EXPECT_EQ(crypto::mask_to_bits(*k1, 16), *delta.key_for(2, 1));
  EXPECT_NE(crypto::mask_to_bits(*k1, 16), *delta.key_for(2, 2));
  EXPECT_NE(crypto::mask_to_bits(*k1, 16), *delta.key_for(2, 3));
}

TEST(tlm, replicated_session_is_refused) {
  // Level g's key is shared over the packets of groups 1..g, which a
  // replicated receiver never holds together: the sender refuses the session
  // at construction, as make_flid_ds_sender does.
  sim::scheduler sched;
  sim::network net(sched);
  const auto src = net.add_host("src");
  const auto dst = net.add_host("dst");
  net.connect(src, dst, sim::link_config{});
  net.finalize_routing();
  flid::flid_config fc;
  fc.structure = flid::session_structure::replicated;
  flid::flid_sender sender(net, src, fc, 1);
  const auto thresholds = threshold_config::uniform(fc.num_groups, 0.25);
  EXPECT_THROW((void)make_tlm_sender(net, src, sender, thresholds, 1),
               util::invariant_error);
}

/// A TLM strategy that counts the closed-loop feedback records it sees.
struct feedback_counting_strategy : tlm_sigma_strategy {
  using tlm_sigma_strategy::tlm_sigma_strategy;
  void on_feedback(const slot_feedback& fb) override {
    ++feedback;
    if (fb.granted == 0) ++cut_off;
  }
  std::uint64_t feedback = 0;
  std::uint64_t cut_off = 0;
};

TEST(tlm, cut_off_receiver_counts_cutoff_slots_and_sees_feedback) {
  // A CBR flood over the bottleneck's capacity for 20 s: the TLM receiver
  // loses its shares, its authorization lapses and the router cuts it off.
  // The slots it spends with nothing delivered count as cutoff slots, and
  // every evaluated slot reaches the feedback hook, as for FLID-DS.
  const auto thresholds = threshold_config::uniform(10, 0.25, 16);
  auto counting = std::make_unique<feedback_counting_strategy>(thresholds);
  feedback_counting_strategy* probe = counting.get();
  tlm_world w(1e6, 0.25, 3, std::move(counting));
  ASSERT_EQ(w.thresholds.loss_threshold, thresholds.loss_threshold);
  ASSERT_EQ(w.thresholds.key_bits, thresholds.key_bits);
  traffic::cbr_config flood;
  flood.rate_bps = 1.2e6;
  flood.start_time = sim::seconds(40.0);
  flood.stop_time = sim::seconds(60.0);
  w.d->add_cbr(flood);
  w.d->run_until(sim::seconds(90.0));
  EXPECT_GT(w.strategy_raw->stats().cutoff_slots, 0u);
  EXPECT_GT(probe->cut_off, 0u);
  // Four slots a second, minus the few before the first evaluation.
  EXPECT_GT(probe->feedback, 4u * 85u);
}

TEST(tlm, keyed_receiver_submits_keys_a_keyed_router_accepts) {
  // Under the section 4.2 countermeasure the router validates
  // per-interface-perturbed keys, including the increase key it perturbs
  // itself; the TLM receiver must submit the same perturbed images.
  auto keyed = std::make_unique<tlm_sigma_strategy>(
      threshold_config::uniform(10, 0.25, 16));
  keyed->set_interface_keying(true);
  tlm_world w(400e3, 0.25, 3, std::move(keyed));
  w.d->sigma().set_interface_keying(true);
  w.d->run_until(sim::seconds(60.0));
  EXPECT_GT(w.d->sigma().stats().valid_keys, 0u);
  EXPECT_EQ(w.d->sigma().stats().invalid_keys, 0u);
}

TEST(tlm, sigma_router_needs_no_changes_for_the_new_protocol) {
  // The untouched sigma_router_agent validated TLM keys in-sim: the FLID-DS
  // tests and this file share the same router implementation. Sanity check
  // that a TLM world exercised validation both ways.
  tlm_world w(10e6);
  w.d->run_until(sim::seconds(30.0));
  EXPECT_GT(w.d->sigma().stats().valid_keys, 0u);
  EXPECT_GT(w.d->sigma().stats().blocks_decoded, 0u);
}

}  // namespace
}  // namespace mcc::core
