// FLID-DS integration: the protected protocol must behave like FLID-DL for
// honest receivers (Requirement 4) while DELTA+SIGMA wiring stays invisible.
#include "core/flid_ds.h"

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "exp/sweep.h"
#include "exp/testbed.h"

namespace mcc::core {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

TEST(flid_ds, sender_bundle_wires_hook_and_tagging) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_NE(session.ds.delta, nullptr);
  EXPECT_NE(session.ds.emitter, nullptr);
  EXPECT_TRUE(d.net().is_sigma_protected(session.config.group(1)));
  EXPECT_TRUE(
      d.net().is_sigma_protected(session.config.group(session.config.num_groups)));
}

TEST(flid_ds, replicated_session_is_refused) {
  // DELTA's keys are the cumulative algebra of Figure 4; it has none for a
  // replicated session.
  sim::scheduler sched;
  sim::network net(sched);
  const auto src = net.add_host("src");
  const auto dst = net.add_host("dst");
  net.connect(src, dst, sim::link_config{});
  net.finalize_routing();
  flid::flid_config cfg;
  cfg.structure = flid::session_structure::replicated;
  flid::flid_sender sender(net, src, cfg, 1);
  EXPECT_THROW((void)make_flid_ds_sender(net, src, sender, 1, {}),
               util::invariant_error);
}

TEST(flid_ds, honest_receiver_matches_dl_throughput) {
  // Same bottleneck, one FLID-DL run and one FLID-DS run: average
  // throughputs must be comparable (paper Figure 8(c)).
  double dl_kbps;
  double ds_kbps;
  {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::dl, {receiver_options{}});
    d.run_until(sim::seconds(200.0));
    dl_kbps = s.receiver().monitor().average_kbps(sim::seconds(50.0),
                                                  sim::seconds(200.0));
  }
  {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
    d.run_until(sim::seconds(200.0));
    ds_kbps = s.receiver().monitor().average_kbps(sim::seconds(50.0),
                                                  sim::seconds(200.0));
  }
  EXPECT_GT(dl_kbps, 100.0);
  EXPECT_GT(ds_kbps, 100.0);
  EXPECT_NEAR(ds_kbps, dl_kbps, 0.35 * dl_kbps);
}

TEST(flid_ds, ds_overhead_stays_small) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(100.0));
  const auto& em = s.ds.emitter->stats();
  const auto& snd = s.sender->stats();
  ASSERT_GT(snd.data_bytes, 0);
  const double sigma_ratio =
      static_cast<double>(em.ctrl_bytes) / static_cast<double>(snd.data_bytes);
  // Paper Figure 9: SIGMA overhead under 0.6% of data traffic. Our control
  // packets carry simulator framing, so allow some slack — but the order of
  // magnitude must hold.
  EXPECT_LT(sigma_ratio, 0.05);
}

TEST(flid_ds, misbehaving_receiver_before_attack_behaves_honestly) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  receiver_options opt;
  opt.attack = adversary::inflate_once(sim::seconds(1e6));  // never triggers
  auto& s = d.add_flid_session(flid_mode::ds, {opt});
  d.run_until(sim::seconds(60.0));
  EXPECT_EQ(s.receiver().level(), s.config.num_groups);
  EXPECT_EQ(d.sigma().stats().invalid_keys, 0u);
}

TEST(flid_ds, replay_attack_is_rejected) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;  // congested: honest level ~3
  testbed d(dumbbell(cfg));
  receiver_options attacker;
  attacker.attack =
      adversary::inflate_once(sim::seconds(30.0), adversary::key_mode::replay);
  auto& s = d.add_flid_session(flid_mode::ds, {attacker});
  d.run_until(sim::seconds(120.0));
  // Replayed (stale-slot) keys never validate: invalid submissions pile up
  // and throughput stays at the fair share.
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);
  const double after = s.receiver().monitor().average_kbps(
      sim::seconds(60.0), sim::seconds(120.0));
  EXPECT_LT(after, 300.0);
}

TEST(flid_ds, interface_keying_roundtrip_when_both_sides_enabled) {
  // Collusion countermeasure: receiver perturbs its keys, router validates
  // the perturbed image — an honest receiver still works.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  d.sigma().set_interface_keying(true);
  auto strategy = std::make_unique<honest_sigma_strategy>();
  strategy->set_interface_keying(true);

  flid::flid_config fc = d.default_flid_config(flid_mode::ds);
  fc.session_id = 77;
  fc.group_addr_base = 30'000;
  const auto sender_host = d.attach_host("if_src", "l");
  flid::flid_sender sender(d.net(), sender_host, fc, 42);
  auto ds = make_flid_ds_sender(d.net(), sender_host, sender, 43);
  sender.start(0);

  const auto rcv_host = d.attach_host("if_rcv", "r");
  flid::flid_receiver receiver(d.net(), rcv_host, d.router("r"), fc,
                               std::move(strategy));
  receiver.start(0);
  d.run_until(sim::seconds(60.0));
  EXPECT_GE(receiver.level(), 5);
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
}

TEST(flid_ds, interface_keying_blocks_unperturbed_keys) {
  // Receiver does NOT perturb; router expects perturbed keys -> every
  // submission is invalid and the receiver is repeatedly cut off. This is
  // exactly what a colluder replaying another interface's keys experiences.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  d.sigma().set_interface_keying(true);
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(30.0));
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);
  EXPECT_LT(s.receiver().level(), s.config.num_groups);
}

/// The honest strategy with its empty-slot step exposed.
struct empty_slot_probe : honest_sigma_strategy {
  using honest_sigma_strategy::empty_slot;
};

TEST(flid_ds, withdrawn_group_1_is_granted_nothing_but_is_not_an_empty_slot) {
  // Group 1 silent while group 2 still delivers: the granted prefix is 0,
  // yet packets arrived, so the honest step does not count a cut-off slot
  // or rejoin.
  sim::scheduler sched;
  sim::network net(sched);
  const auto router = net.add_router("r");
  const auto host = net.add_host("h");
  net.connect(router, host, sim::link_config{});
  net.finalize_routing();
  const flid::flid_config cfg;
  auto probe = std::make_unique<empty_slot_probe>();
  empty_slot_probe* strategy = probe.get();
  flid::flid_receiver r(net, host, router, cfg, std::move(probe));

  flid::slot_summary s;
  s.level = 2;
  s.groups.resize(static_cast<std::size_t>(cfg.num_groups) + 1);
  s.groups[2].received = 3;
  EXPECT_EQ(s.granted(), 0);
  slot_decision d;
  EXPECT_FALSE(strategy->empty_slot(r, s, d));
  EXPECT_FALSE(d.rejoin);
  EXPECT_EQ(strategy->stats().cutoff_slots, 0u);
}

TEST(flid_ds, withdrawn_group_1_leaves_the_honest_receiver_at_level_1) {
  // The same slot through the honest step at local level 2: nothing can be
  // proved, so the receiver asks for keyless re-admission, and keeps the
  // minimal group that re-admission grants. Folding to level 0 instead
  // left it out of group 1 for good.
  sim::scheduler sched;
  sim::network net(sched);
  const auto router = net.add_router("r");
  const auto host = net.add_host("h");
  net.connect(router, host, sim::link_config{});
  net.finalize_routing();
  const flid::flid_config cfg;
  auto owned = std::make_unique<honest_sigma_strategy>();
  honest_sigma_strategy* strategy = owned.get();
  flid::flid_receiver r(net, host, router, cfg, std::move(owned));
  strategy->session_start(r);
  r.set_local_level(2);
  sched.run_until(sim::seconds(1.0));

  flid::slot_summary s;
  s.slot = 1;
  s.level = 2;
  s.groups.resize(static_cast<std::size_t>(cfg.num_groups) + 1);
  s.groups[2].received = 3;
  strategy->on_slot(r, s);
  EXPECT_GE(r.level(), 1);
  EXPECT_EQ(strategy->stats().session_joins, 2u);
}

/// F1's average over 20-40 s in the Figure 7 world (1 Mbps dumbbell; F1
/// inflates at 100 s, so it is honest throughout; F2 and two TCP flows
/// share the bottleneck), built with the testbed seed `seed`.
double fig07_honest_f1_kbps(std::uint64_t seed) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = seed;
  testbed d(dumbbell(cfg));
  receiver_options attacker;
  attacker.attack = adversary::inflate_once(sim::seconds(100.0));
  auto& f1 = d.add_flid_session(flid_mode::ds, {attacker});
  d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.add_tcp_flow();
  d.add_tcp_flow();
  d.run_until(sim::seconds(40.0));
  return f1.receiver().monitor().average_kbps(sim::seconds(20.0),
                                              sim::seconds(40.0));
}

TEST(flid_ds, honest_receivers_of_fig07_stay_live) {
  // Seeds 1 and 8 of fig07_protection: early on, F1 sees a slot in which
  // group 1 is silent while group 2 delivers. The honest step must not
  // lock F1 out of the session after it.
  for (const std::uint64_t base : {1u, 8u}) {
    EXPECT_GT(fig07_honest_f1_kbps(exp::point_seed(base, 0)), 100.0)
        << "fig07 seed " << base;
  }
}

/// The honest strategy, keeping every slot summary its receiver hands it.
struct summary_probe : honest_sigma_strategy {
  std::vector<flid::slot_summary> seen;

 protected:
  slot_decision decide(const flid::flid_receiver& r,
                       const flid::slot_summary& s,
                       const slot_feedback& fb) override {
    seen.push_back(s);
    return honest_sigma_strategy::decide(r, s, fb);
  }
};

TEST(flid_ds, a_regranted_group_reads_as_joined_mid_slot) {
  // The fold: a slot that delivers a shorter prefix than the receiver holds
  // drops the withdrawn groups locally before the proof. When the proof
  // climbs straight back, the regranted group is a fresh join, so the next
  // summary does not count it as held for the whole slot.
  sim::scheduler sched;
  sim::network net(sched);
  const auto router = net.add_router("r");
  const auto host = net.add_host("h");
  net.connect(router, host, sim::link_config{});
  net.finalize_routing();
  const flid::flid_config cfg;
  auto owned = std::make_unique<summary_probe>();
  summary_probe* probe = owned.get();
  flid::flid_receiver r(net, host, router, cfg, std::move(owned));
  r.start(0);

  // Each listed group delivers a complete slot, mid-slot, authorizing the
  // climb to groups 2 and 3; the first packet of slot k evaluates slot k-1.
  const sim::time_ns t = cfg.slot_duration;
  const auto deliver = [&](std::int64_t slot, std::vector<int> groups) {
    sched.run_until(slot * t + t / 2);
    for (const int g : groups) {
      for (int i = 0; i < 2; ++i) {
        sim::flid_data hdr;
        hdr.session_id = cfg.session_id;
        hdr.group_index = g;
        hdr.slot = slot;
        hdr.seq_in_slot = i;
        hdr.packets_in_slot = 2;
        hdr.upgrade_auth_mask = (1u << 2) | (1u << 3);
        sim::packet p;
        p.size_bytes = cfg.packet_bytes;
        p.hdr = hdr;
        r.handle_packet(p, nullptr);
      }
    }
  };
  deliver(0, {1});
  deliver(1, {1});        // slot 0 proves group 2: level 2
  deliver(2, {1, 2});
  deliver(3, {1, 2});     // slot 2 proves group 3: level 3
  deliver(4, {1, 2, 3});
  deliver(5, {1, 2});     // slot 4: level 3 held for the whole slot
  deliver(6, {1, 2, 3});  // slot 5: group 3 silent, fold to 2, climb to 3
  deliver(7, {1, 2, 3});  // slot 6: group 3 rejoined mid-slot

  ASSERT_EQ(probe->seen.size(), 7u);
  const flid::slot_summary& withdrawn = probe->seen[5];
  EXPECT_EQ(withdrawn.level, 3);
  EXPECT_EQ(withdrawn.granted(), 2);
  const flid::slot_summary& after = probe->seen[6];
  EXPECT_EQ(after.level, 2);
  EXPECT_FALSE(after.groups[3].full_slot);
  EXPECT_GT(after.groups[3].received, 0);
  EXPECT_EQ(r.level(), 3);
  // The fold leaves a level-history entry at 2 between the two 3s.
  const auto& hist = r.level_history();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist[hist.size() - 2].second, 2);
  EXPECT_EQ(hist.back().second, 3);
  EXPECT_EQ(hist.back().first, 6 * t + t / 2);
}

}  // namespace
}  // namespace mcc::core
