// Tests for the experiment kit itself: topology sizing, paper defaults,
// session bookkeeping, and failure-injection behaviours of the dumbbell.
#include "exp/testbed.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "util/flags.h"

namespace mcc::exp {
namespace {

TEST(scenario, paper_defaults_match_section_5_1) {
  dumbbell_config cfg;
  EXPECT_DOUBLE_EQ(cfg.access_bps, 10e6);
  EXPECT_EQ(cfg.access_delay, sim::milliseconds(10));
  EXPECT_EQ(cfg.bottleneck_delay, sim::milliseconds(20));
  EXPECT_DOUBLE_EQ(cfg.buffer_bdp, 2.0);

  testbed d(dumbbell(cfg));
  const auto dl = d.default_flid_config(flid_mode::dl);
  EXPECT_EQ(dl.num_groups, 10);
  EXPECT_DOUBLE_EQ(dl.base_rate_bps, 100e3);
  EXPECT_DOUBLE_EQ(dl.rate_multiplier, 1.5);
  EXPECT_EQ(dl.slot_duration, sim::milliseconds(500));
  EXPECT_EQ(dl.packet_bytes, 576);
  const auto ds = d.default_flid_config(flid_mode::ds);
  EXPECT_EQ(ds.slot_duration, sim::milliseconds(250));
  EXPECT_EQ(ds.key_bits, 16);
}

TEST(scenario, bottleneck_buffer_is_two_bdp) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.base_rtt = sim::milliseconds(80);
  testbed d(dumbbell(cfg));
  // 2 x 1 Mbps x 80 ms / 8 = 20 KB.
  EXPECT_EQ(d.bottleneck()->config().queue_capacity_bytes, 20'000);
}

TEST(scenario, sessions_get_distinct_ids_and_group_ranges) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& s1 = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  auto& s2 = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_NE(s1.config.session_id, s2.config.session_id);
  EXPECT_NE(s1.config.group_addr_base, s2.config.group_addr_base);
  // Address ranges must not overlap.
  const int end1 = s1.config.group_addr_base + s1.config.num_groups;
  EXPECT_LE(end1, s2.config.group_addr_base);
}

TEST(scenario, ds_sessions_are_protected_dl_sessions_are_not) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& dl = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  auto& ds = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_FALSE(d.net().is_sigma_protected(dl.config.group(1)));
  EXPECT_TRUE(d.net().is_sigma_protected(ds.config.group(1)));
  EXPECT_EQ(dl.ds.delta, nullptr);
  EXPECT_NE(ds.ds.delta, nullptr);
}

TEST(scenario, adding_after_run_is_rejected) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(1.0));
  EXPECT_THROW(d.add_tcp_flow(), util::invariant_error);
  EXPECT_THROW(d.add_flid_session(flid_mode::dl, {receiver_options{}}),
               util::invariant_error);
}

TEST(scenario, multi_receiver_sessions_share_one_bottleneck_stream) {
  // 4 receivers of one session: the bottleneck carries the session once.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s =
      d.add_flid_session(flid_mode::dl, {receiver_options{}, receiver_options{},
                                         receiver_options{}, receiver_options{}});
  d.run_until(sim::seconds(30.0));
  // All four receivers got roughly the same bytes...
  const double r0 = s.receiver(0).monitor().average_kbps(sim::seconds(10.0),
                                                         sim::seconds(30.0));
  for (int i = 1; i < 4; ++i) {
    const double ri = s.receiver(i).monitor().average_kbps(
        sim::seconds(10.0), sim::seconds(30.0));
    EXPECT_NEAR(ri, r0, 0.15 * r0);
  }
  // ...but the bottleneck carried only ~one copy of the session (not four).
  const double bottleneck_kbps =
      8.0 * static_cast<double>(d.bottleneck()->stats().bytes_delivered) /
      sim::to_seconds(sim::seconds(30.0)) / 1e3;
  EXPECT_LT(bottleneck_kbps, 2.0 * r0);
}

TEST(scenario, average_receiver_kbps_averages_across_receivers) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s = d.add_flid_session(flid_mode::dl,
                               {receiver_options{}, receiver_options{}});
  d.run_until(sim::seconds(20.0));
  const double avg =
      average_receiver_kbps(s, sim::seconds(5.0), sim::seconds(20.0));
  const double r0 =
      s.receiver(0).monitor().average_kbps(sim::seconds(5.0), sim::seconds(20.0));
  const double r1 =
      s.receiver(1).monitor().average_kbps(sim::seconds(5.0), sim::seconds(20.0));
  EXPECT_NEAR(avg, (r0 + r1) / 2.0, 1e-9);
}

TEST(scenario, seeds_change_outcomes_deterministically) {
  const auto run_once = [](std::uint64_t seed) {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 500e3;
    cfg.seed = seed;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::dl, {receiver_options{}});
    d.add_tcp_flow();
    d.run_until(sim::seconds(30.0));
    return s.receiver().monitor().total_bytes();
  };
  // Same seed -> identical simulation; different seed -> different run.
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(scenario, access_aqm_selects_edge_queue_discipline) {
  // Scenario configs historically applied AQM only to backbone links —
  // access links were silently always drop-tail. access_aqm makes the edge
  // queue selectable per testbed.
  dumbbell_config cfg;
  cfg.access_aqm.discipline = sim::qdisc::red;
  testbed d(dumbbell(cfg));
  const sim::node_id h = d.attach_host("probe", "r");
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::milliseconds(1));  // finalizes routing
  sim::link* access = d.net().next_hop(h, d.router("r"));
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->config().aqm.discipline, sim::qdisc::red);
  // An unset access AQM seed inherited the testbed seed (then mixed with
  // the per-link counter by network::connect), so RED draws are seeded.
  EXPECT_NE(access->config().aqm.seed, 0u);
  // The backbone keeps its own (default drop-tail) discipline.
  EXPECT_EQ(d.bottleneck()->config().aqm.discipline, sim::qdisc::droptail);
}

TEST(scenario, access_links_default_to_droptail) {
  dumbbell_config cfg;
  cfg.aqm.discipline = sim::qdisc::codel;  // backbone only
  testbed d(dumbbell(cfg));
  const sim::node_id h = d.attach_host("probe", "r");
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::milliseconds(1));
  sim::link* access = d.net().next_hop(h, d.router("r"));
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->config().aqm.discipline, sim::qdisc::droptail);
  EXPECT_EQ(d.bottleneck()->config().aqm.discipline, sim::qdisc::codel);
}

TEST(scenario, interface_keying_threads_from_config_to_every_edge) {
  // Off by default; when a scenario config switches it on, every edge agent
  // the testbed creates validates interface-perturbed keys, and the
  // receiver strategies compiled for that testbed submit them — an honest
  // DS session must climb exactly as without the countermeasure.
  EXPECT_FALSE(dumbbell_config{}.interface_keying);
  EXPECT_FALSE(tree_config{}.interface_keying);
  EXPECT_FALSE(testbed_config{}.interface_keying);

  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.interface_keying = true;
  testbed d(dumbbell(cfg));
  EXPECT_TRUE(d.config().interface_keying);
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  EXPECT_TRUE(d.sigma().interface_keying());
  EXPECT_TRUE(d.sigma("l").interface_keying());  // sender edge too
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
  EXPECT_EQ(d.sigma().stats().invalid_keys, 0u);
  EXPECT_GE(s.receiver().level(), 5);
}

TEST(scenario, negative_access_delay_is_rejected_loudly) {
  // The old API used -1 as a "use the default" sentinel on access_delay; a
  // misconfigured negative delay now fails instead of silently meaning
  // "default".
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  receiver_options opt;
  opt.access_delay = sim::milliseconds(-5);
  EXPECT_THROW(d.add_flid_session(flid_mode::dl, {opt}),
               util::invariant_error);
  EXPECT_THROW(d.attach_host("h", "r", 1e6, -1), util::invariant_error);
}

TEST(scenario, bad_session_placement_fails_before_anything_starts) {
  // Placement is validated before the sender attaches: a typo'd site name
  // must not leave a half-built session (started sender, consumed id)
  // behind for callers that catch the error and keep running.
  parking_lot_config cfg;
  testbed d(parking_lot(cfg));
  receiver_options typo;
  typo.at = "r9";
  EXPECT_THROW(d.add_flid_session(flid_mode::ds, {typo}),
               util::invariant_error);
  session_options bad_sender;
  bad_sender.sender_at = "nowhere";
  EXPECT_THROW(
      d.add_flid_session(flid_mode::ds, {receiver_options{}}, bad_sender),
      util::invariant_error);
  EXPECT_EQ(d.next_session_id(), 1);
  const int nodes_before = d.net().node_count();
  // The testbed is still usable: a valid session runs fine afterwards.
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(20.0));
  EXPECT_GT(d.net().node_count(), nodes_before);
  EXPECT_GT(session.receiver().monitor().total_bytes(), 0);
}

TEST(scenario, receivers_attach_to_named_routers) {
  // A star with receivers on two different spokes: each spoke receiver is
  // limited by its own spoke link, not by the other's.
  star_config cfg;
  cfg.spokes = 3;
  cfg.spoke_bps = 1e6;
  testbed d(star(cfg));
  receiver_options on_s1;
  on_s1.at = "s1";
  receiver_options on_s2;
  on_s2.at = "s2";
  auto& session = d.add_flid_session(flid_mode::dl, {on_s1, on_s2});
  d.run_until(sim::seconds(30.0));
  // Both receivers climb: their spokes are independent 1 Mbps paths.
  const double r0 = session.receiver(0).monitor().average_kbps(
      sim::seconds(10.0), sim::seconds(30.0));
  const double r1 = session.receiver(1).monitor().average_kbps(
      sim::seconds(10.0), sim::seconds(30.0));
  EXPECT_GT(r0, 300.0);
  EXPECT_NEAR(r1, r0, 0.25 * r0);
  // And the unused spoke carried no session traffic.
  EXPECT_EQ(d.topo().between("hub", "s3")->stats().delivered, 0u);
}

TEST(scenario, tree_testbed_runs_a_session_to_a_leaf) {
  tree_config cfg;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.edge_bps = 1e6;
  testbed d(balanced_tree(cfg));
  receiver_options left_leaf;   // default receiver site: t2_0
  receiver_options right_leaf;
  right_leaf.at = "t2_3";
  auto& session = d.add_flid_session(flid_mode::ds, {left_leaf, right_leaf});
  d.run_until(sim::seconds(30.0));
  EXPECT_GT(session.receiver(0).monitor().average_kbps(sim::seconds(10.0),
                                                       sim::seconds(30.0)),
            200.0);
  EXPECT_GT(session.receiver(1).monitor().average_kbps(sim::seconds(10.0),
                                                       sim::seconds(30.0)),
            200.0);
  // Each leaf's edge SIGMA agent did its own enforcement.
  EXPECT_GT(d.sigma("t2_0").stats().valid_keys, 0u);
  EXPECT_GT(d.sigma("t2_3").stats().valid_keys, 0u);
}

TEST(scenario, parking_lot_attacker_behind_second_bottleneck_is_contained) {
  // The scenario the dumbbell could not express: a SIGMA-protected session
  // crossing two bottlenecks in series, with the misbehaving receiver behind
  // the second one. Its edge router ("r2") must contain the inflation while
  // an honest receiver of the same session behind the FIRST bottleneck
  // ("r1") keeps its allocation.
  parking_lot_config cfg;
  cfg.bottlenecks = 2;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 9;
  testbed d(parking_lot(cfg));
  receiver_options honest_near;
  honest_near.at = "r1";
  receiver_options attacker_far;
  attacker_far.at = "r2";
  attacker_far.attack = adversary::inflate_once(sim::seconds(30.0));
  auto& session =
      d.add_flid_session(flid_mode::ds, {honest_near, attacker_far});
  flow_options tcp_far;  // competes on both bottlenecks
  auto& t1 = d.add_tcp_flow(tcp_far);
  d.run_until(sim::seconds(90.0));

  const sim::time_ns t0 = sim::seconds(45.0);
  const sim::time_ns te = sim::seconds(90.0);
  const double honest_kbps =
      session.receiver(0).monitor().average_kbps(t0, te);
  const double attacker_kbps =
      session.receiver(1).monitor().average_kbps(t0, te);
  const double tcp_kbps = t1.sink->monitor().average_kbps(t0, te);
  // The attacker's invalid keys landed at its own edge router, not the
  // near one.
  EXPECT_GT(d.sigma("r2").stats().invalid_keys, 0u);
  EXPECT_EQ(d.sigma("r1").stats().invalid_keys, 0u);
  // Containment: no unprotected-style grab of the 1 Mbps bottlenecks.
  EXPECT_LT(attacker_kbps, 750.0);
  EXPECT_GT(honest_kbps, 100.0);
  EXPECT_GT(tcp_kbps, 50.0);
}

// ---------------------------------------------------------------------------
// Cross-session roll-up: per-session columns, Jain fairness, conservation
// ---------------------------------------------------------------------------

TEST(session_rollup_stats, per_session_columns_conserve_delivered_bytes) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 3;
  testbed d(dumbbell(cfg));
  const auto sessions =
      d.add_session_array(3, flid_mode::ds, {receiver_options{}});
  const sim::time_ns horizon = sim::seconds(30.0);
  d.run_until(horizon);

  const session_rollup r = session_rollup_for(sessions, 0, horizon);
  ASSERT_EQ(r.sessions.size(), 3u);
  EXPECT_EQ(r.sessions[0].name, "session1");
  EXPECT_EQ(r.sessions[1].name, "session2");
  EXPECT_EQ(r.sessions[2].name, "session3");
  // The total is exactly the sum of the per-session columns...
  double column_sum = 0.0;
  for (const auto& c : r.sessions) column_sum += c.rate;
  EXPECT_DOUBLE_EQ(r.total_rate, column_sum);
  // ...each receiver byte lands in exactly one session's column (the rate
  // columns and the byte counters are independent read-outs of the same
  // monitors, so they must reconcile over the full-run window)...
  const double column_bytes =
      r.total_rate * 1e3 / 8.0 * (static_cast<double>(horizon) / 1e9);
  double receiver_bytes = 0.0;
  for (flid_session* s : sessions) {
    for (auto& rcv : s->receivers) {
      receiver_bytes += static_cast<double>(rcv->monitor().total_bytes());
    }
  }
  ASSERT_GT(receiver_bytes, 0.0);
  EXPECT_NEAR(column_bytes / receiver_bytes, 1.0, 0.02);
  // ...and the columns never claim more than the shared link delivered. The
  // link side is larger: it also carries layers a receiver never subscribed
  // to (pruned downstream) and packets still in flight at the horizon.
  const double link_bytes =
      static_cast<double>(d.bottleneck()->stats().bytes_delivered);
  EXPECT_GT(link_bytes, 0.0);
  EXPECT_LE(column_bytes, link_bytes);
  EXPECT_GT(column_bytes / link_bytes, 0.75)
      << "goodput columns should account for most of the link's bytes";
}

TEST(session_rollup_stats, identical_honest_sessions_reach_jain_one) {
  // Exactly equal rates give exactly 1.0 — the index itself is pinned...
  session_sample even;
  even.rate = 250.0;
  const session_rollup unit = roll_up_sessions({even, even, even});
  EXPECT_DOUBLE_EQ(unit.jain, 1.0);

  // ...and end to end, three identical honest sessions on their own star
  // spokes (same ladder, same spoke capacity, no contention between them)
  // converge to equal shares.
  star_config cfg;
  cfg.spokes = 3;
  cfg.seed = 4;
  testbed d(star(cfg));
  std::vector<flid_session*> sessions;
  for (int i = 1; i <= 3; ++i) {
    receiver_options r;
    r.at = "s" + std::to_string(i);
    sessions.push_back(&d.add_flid_session(flid_mode::ds, {r}));
  }
  d.run_until(sim::seconds(40.0));
  // Skip the start-up ramp: fairness is a steady-state claim.
  const session_rollup r =
      session_rollup_for(sessions, sim::seconds(10.0), sim::seconds(40.0));
  EXPECT_NEAR(r.jain, 1.0, 0.01)
      << "identical honest sessions should converge to equal shares";
  for (const auto& c : r.sessions) EXPECT_GT(c.rate, 0.0) << c.name;
}

TEST(session_rollup_stats, three_session_smoke_on_every_topology) {
  const struct {
    const char* name;
    testbed_config config;
  } topos[] = {{"dumbbell", dumbbell({})},
               {"parking_lot", parking_lot({})},
               {"star", star({})},
               {"tree", balanced_tree({})}};
  for (const auto& t : topos) {
    SCOPED_TRACE(t.name);
    testbed d(t.config);
    const auto sessions =
        d.add_session_array(3, flid_mode::ds, {receiver_options{}});
    d.run_until(sim::seconds(20.0));
    const session_rollup r =
        session_rollup_for(sessions, 0, sim::seconds(20.0));
    ASSERT_EQ(r.sessions.size(), 3u);
    EXPECT_GT(r.total_rate, 0.0);
    EXPECT_GT(r.jain, 0.0);
    for (const auto& c : r.sessions) {
      EXPECT_GT(c.rate, 0.0) << c.name;
      EXPECT_FALSE(c.smoothed.empty()) << c.name;
    }
  }
}

TEST(session_rollup_stats, smoothing_state_never_leaks_across_sessions) {
  // Regression: per-session smoothed series must depend only on the
  // session's own samples, never on the order sessions were rolled up in.
  session_sample a;
  a.name = "a";
  a.rate = 100.0;
  a.raw = {{0.0, 100.0}, {1.0, 300.0}, {2.0, 50.0}};
  session_sample b;
  b.name = "b";
  b.rate = 900.0;
  b.raw = {{0.0, 900.0}, {1.0, 900.0}, {2.0, 900.0}};

  const session_rollup ab = roll_up_sessions({a, b});
  const session_rollup ba = roll_up_sessions({b, a});
  ASSERT_EQ(ab.sessions.size(), 2u);
  ASSERT_EQ(ba.sessions.size(), 2u);
  EXPECT_EQ(ab.sessions[0].name, "a");
  EXPECT_EQ(ba.sessions[1].name, "a");
  EXPECT_EQ(ab.sessions[0].smoothed, ba.sessions[1].smoothed)
      << "a's smoothed column changed when b was rolled up first";
  EXPECT_EQ(ab.sessions[1].smoothed, ba.sessions[0].smoothed);
  EXPECT_DOUBLE_EQ(ab.jain, ba.jain);
  EXPECT_DOUBLE_EQ(ab.total_rate, ba.total_rate);
  // And the smoother itself starts fresh per call: first output == first raw.
  ASSERT_FALSE(ab.sessions[0].smoothed.empty());
  EXPECT_DOUBLE_EQ(ab.sessions[0].smoothed.front().second, 100.0);
}

// ---------------------------------------------------------------------------
// world_options forwarding: every scenario factory hands each world-wide
// field to the testbed_config it returns.
// ---------------------------------------------------------------------------

world_options non_default_world() {
  world_options w;
  w.access_bps = 3e6;
  w.access_delay = sim::milliseconds(7);
  w.buffer_bdp = 3.5;
  w.base_rtt = sim::milliseconds(120);
  w.access_aqm.discipline = sim::qdisc::red;
  w.access_aqm.seed = 99;
  w.interface_keying = true;
  w.probation_memory_slots = 6;
  w.cm = true;
  w.cm_params.max_entries = 17;
  w.cm_params.aging_slots = 5;
  w.cm_params.congestion_threshold = 0.4;
  w.cm_params.headroom = 2.5;
  w.seed = 4242;
  return w;
}

/// A scenario factory fed a world and a backbone queue discipline.
template <typename Cfg, testbed_config (*Make)(const Cfg&)>
testbed_config make_scenario(const world_options& w,
                             const sim::aqm_config& backbone) {
  Cfg cfg{w};
  cfg.aqm = backbone;
  return Make(cfg);
}

struct factory_case {
  const char* name;
  testbed_config (*make)(const world_options&, const sim::aqm_config&);
};

void PrintTo(const factory_case& c, std::ostream* os) { *os << c.name; }

class scenario_forwarding : public ::testing::TestWithParam<factory_case> {};

TEST_P(scenario_forwarding, carries_every_world_option) {
  const world_options w = non_default_world();
  const testbed_config cfg = GetParam().make(w, sim::aqm_config{});
  EXPECT_DOUBLE_EQ(cfg.access_bps, w.access_bps);
  EXPECT_EQ(cfg.access_delay, w.access_delay);
  EXPECT_DOUBLE_EQ(cfg.buffer_bdp, w.buffer_bdp);
  EXPECT_EQ(cfg.base_rtt, w.base_rtt);
  EXPECT_EQ(cfg.access_aqm.discipline, sim::qdisc::red);
  EXPECT_EQ(cfg.access_aqm.seed, 99u);
  EXPECT_TRUE(cfg.interface_keying);
  EXPECT_EQ(cfg.probation_memory_slots, 6);
  EXPECT_TRUE(cfg.cm);
  EXPECT_EQ(cfg.cm_params.max_entries, 17);
  EXPECT_EQ(cfg.cm_params.aging_slots, 5);
  EXPECT_DOUBLE_EQ(cfg.cm_params.congestion_threshold, 0.4);
  EXPECT_DOUBLE_EQ(cfg.cm_params.headroom, 2.5);
  EXPECT_EQ(cfg.seed, 4242u);

  // An unset backbone aqm.seed still inherits the scenario seed: the
  // backbone draws the same per-link stream as one pinned to it explicitly
  // (links mix their index into the configured seed), and a different one
  // from a backbone pinned elsewhere.
  const auto backbone_seed = [&](std::uint64_t pinned) {
    sim::aqm_config aqm;
    aqm.seed = pinned;
    testbed d(GetParam().make(w, aqm));
    return d.bottleneck()->config().aqm.seed;
  };
  testbed d(cfg);
  EXPECT_EQ(d.bottleneck()->config().aqm.seed, backbone_seed(w.seed));
  EXPECT_NE(d.bottleneck()->config().aqm.seed, backbone_seed(w.seed + 1));
}

INSTANTIATE_TEST_SUITE_P(
    factories, scenario_forwarding,
    ::testing::Values(
        factory_case{"dumbbell", make_scenario<dumbbell_config, dumbbell>},
        factory_case{"parking_lot",
                     make_scenario<parking_lot_config, parking_lot>},
        factory_case{"star", make_scenario<star_config, star>},
        factory_case{"balanced_tree",
                     make_scenario<tree_config, balanced_tree>}),
    [](const ::testing::TestParamInfo<factory_case>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// World-switch flags: one off|on|both decoder for every countermeasure axis.
// ---------------------------------------------------------------------------

TEST(axis_flags, off_on_both_decode_in_off_first_order) {
  struct axis_case {
    const char* value;
    std::vector<bool> keying;
    std::vector<int> memory;
  };
  const axis_case cases[] = {
      {"off", {false}, {0}},
      {"on", {true}, {5}},
      {"both", {false, true}, {0, 5}},
  };
  for (const axis_case& c : cases) {
    util::flag_set flags("test");
    add_axis_flag(flags, "interface-keying", "off", "keying");
    add_axis_flag(flags, "probation-memory", "off", "memory");
    add_probation_memory_slots_flag(flags);
    const std::string keying = std::string("--interface-keying=") + c.value;
    const std::string memory = std::string("--probation-memory=") + c.value;
    const char* argv[] = {"prog", keying.c_str(), memory.c_str(),
                          "--probation-memory-slots=5"};
    ASSERT_TRUE(flags.parse(4, argv)) << c.value;
    EXPECT_EQ(axis_from_flags(flags, "interface-keying", false, true),
              c.keying)
        << c.value;
    EXPECT_EQ(axis_from_flags(flags, "probation-memory", 0,
                              probation_memory_slots_from_flags(flags)),
              c.memory)
        << c.value;
  }
}

TEST(axis_flags, default_applies_and_other_values_fail_the_parse) {
  util::flag_set flags("test");
  add_axis_flag(flags, "cm", "both", "manager");
  const char* none[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, none));
  EXPECT_EQ(axis_from_flags(flags, "cm", false, true),
            (std::vector<bool>{false, true}));

  util::flag_set bad("test");
  add_axis_flag(bad, "cm", "off", "manager");
  const char* argv[] = {"prog", "--cm=maybe"};
  EXPECT_FALSE(bad.parse(2, argv));
}

TEST(axis_flags, zero_probation_memory_slots_is_rejected_friendly) {
  util::flag_set flags("test");
  add_probation_memory_slots_flag(flags);
  const char* argv[] = {"prog", "--probation-memory-slots=0"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_EXIT((void)probation_memory_slots_from_flags(flags),
              ::testing::ExitedWithCode(1),
              "bad value for --probation-memory-slots: '0' \\(expected a "
              "slot count in \\[1, 2\\^20\\]\\)");
}

}  // namespace
}  // namespace mcc::exp
