// DELTA ECN variant (paper section 3.1.2, "Congestion notification"):
// with an ECN-marking bottleneck, a receiver treats a marked packet as
// congestion and leaves its component out of the key, so a marked group
// cannot prove a key that slot (the scrub, modelled at the receiver).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/testbed.h"

namespace mcc::core {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

TEST(ecn, marks_hold_an_honest_receiver_near_the_bottleneck_rate) {
  // Build a small topology with an ECN bottleneck directly.
  sim::scheduler sched;
  sim::network net(sched);
  const auto src = net.add_host("src");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto dst = net.add_host("dst");
  sim::link_config fat;
  fat.bps = 10e6;
  fat.delay = sim::milliseconds(10);
  sim::link_config thin;
  thin.bps = 300e3;  // below the session's demand once it climbs
  thin.delay = sim::milliseconds(20);
  thin.aqm.discipline = sim::qdisc::ecn_threshold;
  thin.aqm.ecn_threshold_fraction = 0.3;
  net.connect(src, r1, fat);
  net.connect(r1, r2, thin);
  net.connect(r2, dst, fat);
  net.finalize_routing();

  mcast::igmp_agent igmp(net, r2);
  sigma_router_agent sigma(net, r2, igmp);

  flid::flid_config fc;
  fc.session_id = 3;
  fc.group_addr_base = 7000;
  fc.slot_duration = sim::milliseconds(250);
  flid::flid_sender sender(net, src, fc, 5);
  auto ds = make_flid_ds_sender(net, src, sender, 6);
  sender.start(0);

  flid::flid_receiver receiver(net, dst, r2, fc,
                               std::make_unique<honest_sigma_strategy>());
  receiver.start(0);
  sched.run_until(sim::seconds(60.0));

  // The queue marked packets, and the receiver saw congestion signals
  // without necessarily losing packets.
  sim::link* bottleneck = net.next_hop(r1, dst);
  EXPECT_GT(bottleneck->stats().ecn_marked, 0u);
  EXPECT_GT(receiver.stats().slots_congested, 0u);
  // The receiver stabilizes around the ECN-constrained level instead of
  // climbing to the top.
  EXPECT_LT(receiver.level(), fc.num_groups);
  EXPECT_GE(receiver.level(), 1);
  // Goodput near the bottleneck rate: ECN avoided heavy loss.
  const double kbps = receiver.monitor().average_kbps(sim::seconds(20.0),
                                                      sim::seconds(60.0));
  EXPECT_GT(kbps, 120.0);
  EXPECT_LT(kbps, 330.0);
}

/// Joins `level` groups at session start, then only records the slots the
/// receiver evaluates.
class summary_recorder : public flid::subscription_strategy {
 public:
  summary_recorder(int level, std::vector<flid::slot_summary>& out)
      : level_(level), out_(out) {}
  void session_start(flid::flid_receiver& r) override {
    r.set_local_level(level_);
  }
  void on_slot(flid::flid_receiver&, const flid::slot_summary& s) override {
    out_.push_back(s);
  }

 private:
  int level_;
  std::vector<flid::slot_summary>& out_;
};

TEST(ecn, a_marked_packet_keeps_its_group_from_proving_a_key) {
  // A receiver holding level 3 gets every packet of slot 0, but one group-3
  // packet carries an ECN mark. Routers forward components unchanged, so
  // the receiver's own rule is all that keeps the mark from proving tau_3.
  sim::scheduler sched;
  sim::network net(sched);
  const auto edge = net.add_router("edge");
  const auto host = net.add_host("rx");
  net.connect(edge, host, sim::link_config{});
  net.finalize_routing();

  flid::flid_config fc;
  fc.num_groups = 4;
  std::vector<flid::slot_summary> seen;
  flid::flid_receiver receiver(net, host, edge, fc,
                               std::make_unique<summary_recorder>(3, seen));
  receiver.start(0);
  sched.run_until(0);

  delta_layered_sender sender(fc.session_id, fc.num_groups, 64, 9);
  sender.begin_slot(0, 0, {0, 4, 4, 4, 4});
  for (int g = 1; g <= fc.num_groups; ++g) {
    for (int i = 0; i < 4; ++i) {
      sim::flid_data hdr;
      hdr.session_id = fc.session_id;
      hdr.group_index = g;
      hdr.packets_in_slot = 4;
      sender.fill_fields(0, g, i, i == 3, hdr);
      sim::packet p;
      p.ecn_marked = (g == 3 && i == 1);
      p.hdr = hdr;
      receiver.handle_packet(p, nullptr);
    }
  }
  // The first slot-1 packet closes slot 0.
  sim::flid_data later;
  later.session_id = fc.session_id;
  later.group_index = 1;
  later.slot = 1;
  sim::packet next;
  next.hdr = later;
  receiver.handle_packet(next, nullptr);

  ASSERT_EQ(seen.size(), 1u);
  const flid::slot_summary& s = seen[0];
  EXPECT_EQ(s.level, 3);
  EXPECT_TRUE(s.groups[2].complete());
  EXPECT_EQ(s.groups[3].received, s.groups[3].expected) << "no packet lost";
  EXPECT_FALSE(s.groups[3].complete());
  EXPECT_TRUE(s.congested);

  const delta_reconstruction rec = delta_layered_receiver(4).reconstruct(s);
  EXPECT_EQ(rec.next_level, 2);
  const delta_slot_keys* keys = sender.keys_for(key_lead_slots);
  ASSERT_NE(keys, nullptr);
  for (const auto& [g, key] : rec.keys) {
    EXPECT_LT(g, 3);
    EXPECT_NE(key, keys->top[3]);
  }
}

TEST(ecn, droptail_comparison_run_does_not_mark) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 3;
  testbed d(dumbbell(cfg));  // drop-tail bottleneck: nothing to mark
  d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(20.0));
  EXPECT_EQ(d.bottleneck()->stats().ecn_marked, 0u);
}

}  // namespace
}  // namespace mcc::core
