// FLID-DL receiver behaviour over the dumbbell scenario: climbing under
// spare capacity, stabilizing at the fair level, dropping under congestion.
#include "flid/flid_receiver.h"

#include <gtest/gtest.h>

#include "exp/testbed.h"

namespace mcc::flid {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

TEST(flid_receiver, climbs_when_capacity_is_ample) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;  // no bottleneck for a <4 Mbps session
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  // With ~0.3 upgrade probability per slot the receiver should reach the
  // maximal level well within a minute.
  EXPECT_EQ(session.receiver().level(), session.config.num_groups);
  EXPECT_EQ(session.receiver().stats().downgrades, 0u);
}

TEST(flid_receiver, stabilizes_near_fair_level_at_bottleneck) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(120.0));
  // Fair level: cumulative rate <= 250 Kbps -> level 3 (225 Kbps).
  const double kbps = session.receiver().monitor().average_kbps(
      sim::seconds(60.0), sim::seconds(120.0));
  EXPECT_GT(kbps, 120.0);
  EXPECT_LT(kbps, 280.0);
  EXPECT_LE(session.receiver().level(), 5);
}

TEST(flid_receiver, level_history_records_transitions) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  const auto& hist = session.receiver().level_history();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist.front().second, 1);  // joined at the minimal level
  for (std::size_t i = 1; i < hist.size(); ++i) {
    EXPECT_GE(hist[i].first, hist[i - 1].first);  // time-ordered
    EXPECT_EQ(std::abs(hist[i].second - hist[i - 1].second), 1)
        << "levels move one step at a time";
  }
}

TEST(flid_receiver, drops_layers_when_cbr_burst_arrives) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 500e3;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  traffic::cbr_config cbr;
  cbr.rate_bps = 400e3;
  cbr.start_time = sim::seconds(30.0);
  cbr.stop_time = sim::seconds(60.0);
  d.add_cbr(cbr);
  d.run_until(sim::seconds(60.0));
  // During the burst only ~100 Kbps remain: the receiver must be pushed to
  // a low level.
  const double during = session.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(60.0));
  const double before = session.receiver().monitor().average_kbps(
      sim::seconds(15.0), sim::seconds(30.0));
  EXPECT_LT(during, before);
  EXPECT_GT(session.receiver().stats().downgrades, 0u);
}

TEST(flid_receiver, two_receivers_converge_to_same_level) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;
  testbed d(dumbbell(cfg));
  receiver_options early;
  receiver_options late;
  late.start_time = sim::seconds(10.0);
  auto& session = d.add_flid_session(flid_mode::dl, {early, late});
  d.run_until(sim::seconds(90.0));
  // Behind the same bottleneck, both receivers end at the same level
  // (synchronized by shared losses and shared upgrade signals).
  EXPECT_EQ(session.receiver(0).level(), session.receiver(1).level());
}

TEST(flid_receiver, counts_congested_slots) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 150e3;  // tight: losses guaranteed while probing
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  EXPECT_GT(session.receiver().stats().slots_congested, 0u);
  EXPECT_GT(session.receiver().stats().slots_evaluated, 50u);
}

/// A slot summary of `n` groups in which every group got all its packets.
slot_summary full_slot(int n, int level) {
  slot_summary s;
  s.slot = 7;
  s.level = level;
  s.auth_mask = 0b1000;
  s.groups.resize(static_cast<std::size_t>(n) + 1);
  for (int g = 1; g <= n; ++g) {
    s.groups[static_cast<std::size_t>(g)].expected = 4;
    s.groups[static_cast<std::size_t>(g)].received = 4;
  }
  return s;
}

TEST(slot_summary, granted_stops_at_the_first_silent_group) {
  slot_summary s = full_slot(4, 4);
  EXPECT_EQ(s.granted(), 4);
  s.groups[3].received = 0;
  EXPECT_EQ(s.granted(), 2);
  // Group 1 withdrawn while group 2 still delivers: nothing was granted.
  s.groups[1].received = 0;
  EXPECT_EQ(s.granted(), 0);
  EXPECT_EQ(slot_summary{}.granted(), 0);
}

TEST(slot_summary, at_level_recomputes_congestion_over_the_kept_groups) {
  slot_summary s = full_slot(4, 3);
  s.groups[3].received = 3;  // group 3 lost a packet
  s.congested = true;
  const slot_summary two = s.at_level(2);
  EXPECT_EQ(two.level, 2);
  EXPECT_FALSE(two.congested);
  EXPECT_EQ(two.slot, s.slot);
  EXPECT_EQ(two.auth_mask, s.auth_mask);
  EXPECT_EQ(two.groups.size(), s.groups.size());
  EXPECT_TRUE(s.at_level(3).congested);
  EXPECT_FALSE(s.at_level(0).congested);
  // A scrubbed component counts as loss too.
  s.groups[1].scrubbed = true;
  EXPECT_TRUE(s.at_level(1).congested);
}

}  // namespace
}  // namespace mcc::flid
