// Adversary subsystem: profile/flag plumbing, the collusion key pool,
// containment-report math on synthetic series, behavioural checks for every
// strategy, and bit-determinism of attack-matrix rows across sweep --jobs
// counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "exp/sweep.h"
#include "exp/testbed.h"

namespace mcc::adversary {
namespace {

TEST(adversary_names, strategy_names_round_trip) {
  for (const strategy_kind k :
       {strategy_kind::honest, strategy_kind::inflate_once,
        strategy_kind::pulse_inflate, strategy_kind::churn_flap,
        strategy_kind::deaf_receiver, strategy_kind::collusion,
        strategy_kind::adaptive_pulse, strategy_kind::adaptive_churn}) {
    const auto back = strategy_from_name(strategy_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(strategy_from_name("inflate").has_value());
  EXPECT_FALSE(strategy_from_name("").has_value());
  // all_attacks excludes honest.
  for (const strategy_kind k : all_attacks()) {
    EXPECT_NE(k, strategy_kind::honest);
  }
  EXPECT_EQ(all_attacks().size(), 7u);
}

TEST(adversary_names, key_mode_names_round_trip) {
  for (const key_mode m :
       {key_mode::best_effort, key_mode::replay, key_mode::guess}) {
    const auto back = key_mode_from_name(key_mode_name(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(key_mode_from_name("random").has_value());
}

TEST(adversary_profiles, factories_fill_their_fields) {
  const profile p = pulse_inflate(sim::seconds(7.0), sim::seconds(2.0),
                                  sim::seconds(3.0), key_mode::replay);
  EXPECT_EQ(p.kind, strategy_kind::pulse_inflate);
  EXPECT_EQ(p.start, sim::seconds(7.0));
  EXPECT_EQ(p.pulse_on, sim::seconds(2.0));
  EXPECT_EQ(p.pulse_off, sim::seconds(3.0));
  EXPECT_EQ(p.keys, key_mode::replay);
  EXPECT_TRUE(p.attacks());
  EXPECT_FALSE(honest().attacks());

  const profile c = collusion(sim::seconds(1.0), 3);
  EXPECT_EQ(c.kind, strategy_kind::collusion);
  EXPECT_EQ(c.coalition, 3);
  EXPECT_EQ(c.keys, key_mode::best_effort);

  const profile f = churn_flap(sim::seconds(2.0), 4, 6);
  EXPECT_EQ(f.flap_period_slots, 4);
  EXPECT_EQ(f.flap_depth, 6);

  const profile a = adaptive_pulse(sim::seconds(3.0), sim::seconds(8.0),
                                   key_mode::best_effort);
  EXPECT_EQ(a.kind, strategy_kind::adaptive_pulse);
  EXPECT_EQ(a.start, sim::seconds(3.0));
  EXPECT_EQ(a.pulse_on, sim::seconds(8.0));
  EXPECT_EQ(a.keys, key_mode::best_effort);

  const profile g = adaptive_churn(sim::seconds(4.0));
  EXPECT_EQ(g.kind, strategy_kind::adaptive_churn);
  EXPECT_EQ(g.start, sim::seconds(4.0));
  EXPECT_TRUE(g.attacks());
}

TEST(collusion_coordinator_pool, deposit_lookup_and_pruning) {
  collusion_coordinator pool;
  const crypto::group_key k1{0xabcd};
  pool.deposit(10, 3, k1);
  const crypto::group_key* hit = pool.lookup(10, 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, k1);
  EXPECT_EQ(pool.lookup(10, 4), nullptr);
  EXPECT_EQ(pool.lookup(11, 3), nullptr);
  // A deposit far in the future prunes stale slots.
  pool.deposit(100, 1, k1);
  EXPECT_EQ(pool.lookup(10, 3), nullptr);
  EXPECT_EQ(pool.stats().deposits, 2u);
  EXPECT_EQ(pool.stats().lookups, 4u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(collusion_coordinator_pool, interface_scopes_partition_the_pool) {
  // Under interface keying every deposit is tagged with the interface it is
  // valid at; a lookup from any other interface must miss — this is the
  // mechanism that drives pool hits to zero when the countermeasure is on.
  collusion_coordinator pool;
  const crypto::group_key k5{0x1111};
  const crypto::group_key k6{0x2222};
  pool.deposit(10, 3, k5, 5);
  pool.deposit(10, 3, k6, 6);
  const crypto::group_key* own = pool.lookup(10, 3, 5);
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(*own, k5);
  const crypto::group_key* other = pool.lookup(10, 3, 6);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(*other, k6);
  // Foreign and universal scopes see nothing.
  EXPECT_EQ(pool.lookup(10, 3, 7), nullptr);
  EXPECT_EQ(pool.lookup(10, 3), nullptr);
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().lookups, 4u);
}

TEST(containment_metrics, synthetic_series_yields_exact_report) {
  // Honest flow: steady 100 Kbps. Attacker: 100 Kbps until t=10s, 1000 Kbps
  // over [10, 30), then back to 100 Kbps. All values land on 1-second bins.
  sim::scheduler sched;
  sim::throughput_monitor attacker(sched);
  sim::throughput_monitor honest(sched);
  for (int t = 0; t < 60; ++t) {
    const std::int64_t atk = (t >= 10 && t < 30) ? 125'000 : 12'500;
    sched.at(sim::seconds(static_cast<double>(t)) + 1, [&, atk] {
      honest.on_bytes(12'500);
      attacker.on_bytes(atk);
    });
  }
  sched.run();

  containment_config cfg;
  cfg.attack_start = sim::seconds(10.0);
  cfg.horizon = sim::seconds(60.0);
  cfg.settle = sim::seconds(10.0);
  cfg.pre = sim::seconds(10.0);
  cfg.bin = sim::seconds(1.0);
  cfg.smooth = sim::seconds(1.0);
  cfg.bound_factor = 1.6;
  cfg.floor_kbps = 50.0;
  const containment_report rep =
      measure_containment(attacker, {&honest}, cfg);

  // After window [20, 60): attacker carried 10 s at 1000 and 30 s at 100.
  EXPECT_NEAR(rep.attacker_kbps, (10.0 * 1000.0 + 30.0 * 100.0) / 40.0, 1e-9);
  EXPECT_NEAR(rep.honest_kbps, 100.0, 1e-9);
  EXPECT_NEAR(rep.attacker_share, 325.0 / 425.0, 1e-9);
  EXPECT_NEAR(rep.honest_before_kbps, 100.0, 1e-9);
  EXPECT_NEAR(rep.honest_damage, 0.0, 1e-9);
  EXPECT_NEAR(rep.containment_bound_kbps, 160.0, 1e-9);
  // The last offending bin ends at t=30s; the attack started at 10s.
  EXPECT_TRUE(rep.contained);
  EXPECT_NEAR(rep.time_to_containment_s, 20.0, 1e-9);
}

TEST(containment_metrics, attacker_above_bound_at_horizon_is_uncontained) {
  sim::scheduler sched;
  sim::throughput_monitor attacker(sched);
  sim::throughput_monitor honest(sched);
  for (int t = 0; t < 40; ++t) {
    const std::int64_t atk = t >= 10 ? 125'000 : 12'500;
    sched.at(sim::seconds(static_cast<double>(t)) + 1, [&, atk] {
      honest.on_bytes(12'500);
      attacker.on_bytes(atk);
    });
  }
  sched.run();
  containment_config cfg;
  cfg.attack_start = sim::seconds(10.0);
  cfg.horizon = sim::seconds(40.0);
  const containment_report rep =
      measure_containment(attacker, {&honest}, cfg);
  EXPECT_FALSE(rep.contained);
  EXPECT_DOUBLE_EQ(rep.time_to_containment_s, -1.0);
  EXPECT_DOUBLE_EQ(rep.honest_damage, 0.0);  // honest flow held steady
}

TEST(adversary_behaviour, pulse_inflate_oscillates_subscription) {
  // Roomy bottleneck so the oscillation is driven by the script, not by
  // congestion: the level history must repeatedly hit the ceiling and fall
  // back to the minimal layer.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = pulse_inflate(sim::seconds(10.0), sim::seconds(4.0),
                                  sim::seconds(4.0));
  auto& session = d.add_flid_session(exp::flid_mode::dl, {attacker});
  d.run_until(sim::seconds(50.0));

  const int n = session.config.num_groups;
  int peaks = 0;
  int troughs = 0;
  bool at_peak = false;
  for (const auto& [t, lvl] : session.receiver().level_history()) {
    if (t < sim::seconds(10.0)) continue;
    if (lvl == n && !at_peak) {
      ++peaks;
      at_peak = true;
    } else if (lvl == 1 && at_peak) {
      ++troughs;
      at_peak = false;
    }
  }
  // 40 s of 4s/4s pulsing = 5 cycles; allow slack for slot rounding.
  EXPECT_GE(peaks, 3);
  EXPECT_GE(troughs, 3);
}

TEST(adversary_behaviour, capped_pulse_sheds_layers_climbed_before_onset) {
  // Honest phase on a roomy bottleneck climbs to the top; a pulse capped at
  // level 2 must LEAVE the higher groups when the attack starts, not just
  // lower its claimed level — leaked memberships would keep drawing all ten
  // groups' bandwidth forever.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = pulse_inflate(sim::seconds(20.0), sim::seconds(4.0),
                                  sim::seconds(4.0));
  attacker.attack.inflate_level = 2;
  auto& session = d.add_flid_session(exp::flid_mode::dl, {attacker});
  d.run_until(sim::seconds(60.0));
  // Cumulative level-2 rate is 150 Kbps; the pre-attack honest climb ran at
  // up to ~3.8 Mbps. Anywhere near the former means the leave really
  // happened on the wire.
  const double late = session.receiver().monitor().average_kbps(
      sim::seconds(30.0), sim::seconds(60.0));
  EXPECT_LT(late, 400.0);
  EXPECT_GT(late, 50.0);
  EXPECT_GT(d.igmp().stats().leaves, 5u);
}

TEST(adversary_behaviour, capped_inflate_sheds_layers_climbed_before_onset) {
  // The inflate_once twin of the pulse case above: the honest phase climbs
  // well past level 2, so an inflater capped at level 2 must leave the
  // higher groups at onset, or their memberships keep pulling them across
  // the bottleneck.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = inflate_once(sim::seconds(20.0), key_mode::guess, 2);
  d.add_flid_session(exp::flid_mode::dl, {attacker});
  d.run_until(sim::seconds(30.0));
  const std::int64_t before = d.bottleneck()->stats().bytes_delivered;
  d.run_until(sim::seconds(60.0));
  const double kbps = static_cast<double>(
                          d.bottleneck()->stats().bytes_delivered - before) *
                      8.0 / 30.0 / 1e3;
  // Level 2 is 150 Kbps cumulative; the honest climb reached ~3.8 Mbps.
  EXPECT_LT(kbps, 400.0);
  EXPECT_GT(d.igmp().stats().leaves, 0u);
}

TEST(adversary_behaviour, churn_flap_thrashes_graft_prune_state) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options churner;
  churner.attack = churn_flap(sim::seconds(5.0), 1, 0);
  d.add_flid_session(exp::flid_mode::dl, {churner});
  d.run_until(sim::seconds(45.0));
  // 80 slots of flapping across ~9 upper groups: the edge processed a
  // couple hundred membership changes (an honest receiver needs ~10 joins
  // for the whole run).
  EXPECT_GT(d.igmp().stats().joins, 100u);
  EXPECT_GT(d.igmp().stats().leaves, 100u);
}

TEST(adversary_behaviour, churn_flap_cycles_sigma_subscription_state) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 5;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options churner;
  churner.attack = churn_flap(sim::seconds(5.0), 1, 0);
  auto& session = d.add_flid_session(exp::flid_mode::ds, {churner});
  d.run_until(sim::seconds(45.0));
  // Down phases explicitly unsubscribe whatever the up phases climbed to;
  // climbing in DS is upgrade-authorization-limited (~0.15/slot), so the
  // cycle count is protocol-bounded — DELTA itself damps SIGMA-side churn.
  EXPECT_GT(d.sigma().stats().unsubscribes, 5u);
  EXPECT_GT(d.sigma().stats().subscribe_msgs, 50u);
  EXPECT_GT(session.receiver().monitor().total_bytes(), 0);
}

TEST(adversary_behaviour, deaf_receiver_is_contained_under_sigma) {
  // Same invariant as the containment matrix, for the deaf shape: never
  // dropping layers must not hold more than the contested fair share.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 7;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options deaf;
  deaf.attack = deaf_receiver(sim::seconds(30.0));
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {deaf});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(120.0));
  const double rogue_kbps = rogue.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(120.0));
  const double honest_kbps = honest.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(120.0));
  EXPECT_LT(rogue_kbps, 750.0) << "honest " << honest_kbps;
  EXPECT_GT(honest_kbps, 100.0);
}

TEST(adversary_behaviour, colluders_share_keys_across_edges) {
  // Two colluders on different tree branches: the one on the uncontested
  // branch proves high-layer keys and feeds the pool; the contested one
  // replays them at its own edge. The honest receiver and TCP load the
  // contested branch.
  exp::tree_config cfg;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.seed = 7;
  exp::testbed d(exp::balanced_tree(cfg));
  exp::receiver_options contested;
  contested.at = "t2_1";
  contested.attack = collusion(sim::seconds(20.0), 1);
  exp::receiver_options clean;
  clean.at = "t2_2";
  clean.attack = collusion(sim::seconds(20.0), 1);
  d.add_flid_session(exp::flid_mode::ds, {contested, clean});
  d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  d.add_tcp_flow();
  d.run_until(sim::seconds(90.0));

  const auto& pool = d.coordinator(1).stats();
  EXPECT_GT(pool.deposits, 100u);
  EXPECT_GT(pool.lookups, 0u);
  EXPECT_GT(pool.hits, 0u) << "deposits " << pool.deposits << " lookups "
                           << pool.lookups;
}

namespace {

struct keying_run {
  double attacker_kbps = 0.0;
  double ttc_s = -1.0;
  bool contained = false;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_deposits = 0;
};

/// The ISSUE-5 acceptance scenario: cross-edge collusion on the tree, with
/// the honest receiver and TCP loading the contested branch, run with the
/// countermeasure off or on (same topology, same seeds).
keying_run run_tree_collusion(bool keying) {
  exp::tree_config cfg;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.seed = 7;
  cfg.interface_keying = keying;
  exp::testbed d(exp::balanced_tree(cfg));
  exp::receiver_options contested;
  contested.at = "t2_1";
  contested.attack = collusion(sim::seconds(20.0), 1);
  exp::receiver_options clean;
  clean.at = "t2_2";
  clean.attack = collusion(sim::seconds(20.0), 1);
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {contested, clean});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  auto& tcp = d.add_tcp_flow();
  d.run_until(sim::seconds(120.0));

  containment_config ccfg;
  ccfg.attack_start = sim::seconds(20.0);
  ccfg.horizon = sim::seconds(120.0);
  // Like the attack matrix: three parties (rogue session, honest session,
  // TCP) share the 1 Mbps contested edge, so the fair-share floor keeps the
  // bound honest even though the damaged honest flows run well below it.
  ccfg.floor_kbps = 1e6 / 1e3 / 3.0;
  const containment_report rep = measure_containment(
      rogue.receiver(0).monitor(),
      {&honest.receiver(0).monitor(), &tcp.sink->monitor()},
      {&honest.receiver(0).monitor()}, ccfg);

  keying_run out;
  out.attacker_kbps = rep.attacker_kbps;
  out.ttc_s = rep.time_to_containment_s;
  out.contained = rep.contained;
  out.pool_hits = d.coordinator(1).stats().hits;
  out.pool_deposits = d.coordinator(1).stats().deposits;
  return out;
}

}  // namespace

TEST(interface_keying, closes_cross_edge_collusion_on_the_tree) {
  const keying_run off = run_tree_collusion(false);
  const keying_run on = run_tree_collusion(true);

  // Without the countermeasure the clean-branch colluder's keys open the
  // contested edge: the pool serves hits and the contested colluder holds
  // layers its own congestion state never earned.
  EXPECT_GT(off.pool_hits, 0u);

  // With keying, deposits still happen (each colluder banks its own
  // interface's key images) but no query is ever answered across
  // interfaces: the section-4.2 channel is closed.
  EXPECT_GT(on.pool_deposits, 0u);
  EXPECT_EQ(on.pool_hits, 0u);

  // And the contested colluder is reined in strictly faster (an uncontained
  // keying-off run counts as slower than any contained time).
  ASSERT_TRUE(on.contained);
  if (off.contained) {
    EXPECT_LT(on.ttc_s, off.ttc_s);
  }
  EXPECT_LT(on.attacker_kbps, off.attacker_kbps);
}

TEST(interface_keying, honest_and_entitled_attacker_keys_still_validate) {
  // Scenario-wide keying must stay invisible to receivers playing the
  // protocol correctly for their entitlement: the honest receiver climbs,
  // and a guessing attacker still proves its *earned* prefix (valid keys at
  // the edge) while its guesses fail exactly as before.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 7;
  cfg.interface_keying = true;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = inflate_once(sim::seconds(30.0), key_mode::guess);
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {attacker});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(90.0));

  EXPECT_TRUE(d.sigma().interface_keying());
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);  // the guesses
  EXPECT_GT(honest.receiver().level(), 1);
  EXPECT_GT(honest.receiver().monitor().total_bytes(), 0);
  // The attacker holds no more than the contested fair share.
  const double rogue_kbps = rogue.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(90.0));
  EXPECT_LT(rogue_kbps, 750.0);
}

TEST(adversary_behaviour, adaptive_pulse_cycles_with_the_enforcement_lag) {
  // The adaptive pulse must actually close the loop: attack phases (claimed
  // level = all groups) alternating with honest recovery phases (lower
  // levels), driven by observed claw-backs rather than a wall-clock script.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 7;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = adaptive_pulse(sim::seconds(30.0), sim::seconds(5.0));
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {attacker});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(120.0));

  const int n = rogue.config.num_groups;
  int on_phases = 0;
  int off_phases = 0;
  bool at_peak = false;
  for (const auto& [t, lvl] : rogue.receiver().level_history()) {
    if (t < sim::seconds(30.0)) continue;
    if (lvl == n && !at_peak) {
      ++on_phases;
      at_peak = true;
    } else if (lvl < n && at_peak) {
      ++off_phases;
      at_peak = false;
    }
  }
  EXPECT_GE(on_phases, 3) << "adaptive pulse never cycled";
  EXPECT_GE(off_phases, 3);
  // Recovery phases re-prove keys (valid submissions at the edge), attack
  // phases guess (invalid ones).
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);
  // And the protocol still holds it near the fair share.
  const double rogue_kbps = rogue.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(120.0));
  const double honest_kbps = honest.receiver().monitor().average_kbps(
      sim::seconds(45.0), sim::seconds(120.0));
  EXPECT_LT(rogue_kbps, 750.0) << "honest " << honest_kbps;
  EXPECT_GT(honest_kbps, 100.0);
}

TEST(adversary_behaviour, adaptive_churn_rides_grace_without_ever_proving_keys) {
  // The grace free-rider: only keyless session-joins, no subscribe messages
  // with keys, yet data keeps arriving through repeated two-slot grace
  // windows (the unsubscribe wipes the pending probation each cycle).
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 5;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options churner;
  churner.attack = adaptive_churn(0);
  auto& session = d.add_flid_session(exp::flid_mode::ds, {churner});
  d.run_until(sim::seconds(45.0));

  const auto& sg = d.sigma().stats();
  EXPECT_EQ(sg.valid_keys, 0u);
  EXPECT_EQ(sg.invalid_keys, 0u);
  EXPECT_GT(sg.session_joins, 10u);
  EXPECT_GT(sg.unsubscribes, 10u);
  EXPECT_GT(sg.grace_forwards, 50u);
  // Free bytes: the minimal group flows during every grace window.
  EXPECT_GT(session.receiver().monitor().total_bytes(), 100'000);
  // But never more than the minimal group: the payoff is bounded.
  const double kbps = session.receiver().monitor().average_kbps(
      sim::seconds(10.0), sim::seconds(45.0));
  EXPECT_LT(kbps, 150.0);
  EXPECT_GT(kbps, 20.0);
}

TEST(adversary_behaviour, competing_coalitions_have_isolated_pools) {
  // Two coalitions in one session on the tree: each colluding pair shares
  // its own coordinator, and each coalition's containment/cost is
  // measurable per receiver. Coalition 1 contests the honest branch
  // (t2_1 + clean partner t2_2); coalition 2 contests it from the honest
  // receiver's own leaf (t2_0 + clean partner t2_3).
  exp::tree_config cfg;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.seed = 7;
  exp::testbed d(exp::balanced_tree(cfg));
  const auto member = [](const std::string& at, int coalition) {
    exp::receiver_options o;
    o.at = at;
    o.attack = collusion(sim::seconds(20.0), coalition);
    return o;
  };
  auto& rogue = d.add_flid_session(
      exp::flid_mode::ds, {member("t2_1", 1), member("t2_2", 1),
                           member("t2_0", 2), member("t2_3", 2)});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  auto& tcp = d.add_tcp_flow();
  d.run_until(sim::seconds(90.0));

  // Distinct pools, both active, with independent counters.
  const auto& p1 = d.coordinator(1).stats();
  const auto& p2 = d.coordinator(2).stats();
  EXPECT_NE(&d.coordinator(1), &d.coordinator(2));
  EXPECT_GT(p1.deposits, 100u);
  EXPECT_GT(p2.deposits, 100u);
  EXPECT_GT(p1.hits, 0u);
  EXPECT_GT(p2.hits, 0u);
  // Pool isolation: every query is answered from the coalition's own pool,
  // so the sum of per-pool hits can never exceed per-pool lookups (a shared
  // pool would show cross-coalition hits inflating one side).
  EXPECT_LE(p1.hits, p1.lookups);
  EXPECT_LE(p2.hits, p2.lookups);

  // Per-coalition containment + cost rows: the contested member of each
  // coalition gets its own report with its own spend attached.
  containment_config ccfg;
  ccfg.attack_start = sim::seconds(20.0);
  ccfg.horizon = sim::seconds(90.0);
  const std::vector<const sim::throughput_monitor*> honest_monitors = {
      &honest.receiver(0).monitor(), &tcp.sink->monitor()};
  const std::vector<const sim::throughput_monitor*> reference = {
      &honest.receiver(0).monitor()};
  for (const int contested : {0, 2}) {
    containment_report rep = measure_containment(
        rogue.receiver(contested).monitor(), honest_monitors, reference,
        ccfg);
    attach_cost(rep, measure_cost(rogue.receiver(contested)));
    EXPECT_GT(rep.attacker_kbps, 0.0) << "coalition member " << contested;
    EXPECT_GT(rep.cost.ctrl_msgs, 0u) << "coalition member " << contested;
    EXPECT_GT(rep.profit_kbps_per_msg, 0.0);
  }
}

TEST(attacker_cost, sigma_guessing_attacker_reports_its_spend) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 7;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = inflate_once(sim::seconds(20.0), key_mode::guess);
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {attacker});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(60.0));

  const attacker_cost cost = measure_cost(rogue.receiver());
  EXPECT_GT(cost.ctrl_msgs, 50u);
  EXPECT_GT(cost.useless_keys, 1000u);  // 8 guesses per unproven group/slot
  // An honest receiver subscribes every slot too (similar message count),
  // but its spend is entirely key-free: useless_keys is what separates an
  // attacker's control plane from an honest one.
  const attacker_cost honest_cost = measure_cost(honest.receiver());
  EXPECT_EQ(honest_cost.useless_keys, 0u);
  EXPECT_GT(honest_cost.ctrl_msgs, 0u);
}

TEST(attacker_cost, plain_world_cost_is_the_igmp_message_count) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options churner;
  churner.attack = churn_flap(sim::seconds(5.0), 1, 0);
  auto& session = d.add_flid_session(exp::flid_mode::dl, {churner});
  d.run_until(sim::seconds(45.0));

  const attacker_cost cost = measure_cost(session.receiver());
  const auto& m = session.receiver().membership().stats();
  EXPECT_EQ(cost.ctrl_msgs, m.joins + m.leaves);
  EXPECT_GT(cost.ctrl_msgs, 200u);  // the flap thrashes membership
  EXPECT_EQ(cost.useless_keys, 0u);  // no keys exist in the plain world
  EXPECT_EQ(cost.cutoff_slots, 0u);  // the router honours every join
}

TEST(attacker_cost, attach_cost_derives_profit_exactly) {
  containment_report rep;
  rep.attacker_kbps = 500.0;
  attacker_cost cost;
  cost.ctrl_msgs = 250;
  cost.useless_keys = 7;
  cost.cutoff_slots = 3;
  attach_cost(rep, cost);
  EXPECT_DOUBLE_EQ(rep.profit_kbps_per_msg, 2.0);
  EXPECT_EQ(rep.cost.useless_keys, 7u);
  EXPECT_EQ(rep.cost.cutoff_slots, 3u);
  // Zero messages must not divide by zero: profit is the raw goodput.
  containment_report free_rep;
  free_rep.attacker_kbps = 100.0;
  attach_cost(free_rep, attacker_cost{});
  EXPECT_DOUBLE_EQ(free_rep.profit_kbps_per_msg, 100.0);
}

TEST(adversary_determinism, attack_matrix_rows_bit_identical_across_jobs) {
  // One row per strategy on a short dumbbell scenario; --jobs 4 must
  // serialize byte-for-byte like --jobs 1 (same contract as every bench).
  const auto matrix = [](int jobs) {
    const std::vector<strategy_kind>& kinds = all_attacks();
    std::vector<double> xs(kinds.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = static_cast<double>(i);
    }
    exp::sweep_options opts;
    opts.jobs = jobs;
    opts.base_seed = 17;
    const auto rows =
        exp::run_sweep(xs, opts, [&](const exp::sweep_point& pt) {
          exp::dumbbell_config cfg;
          cfg.bottleneck_bps = 1e6;
          cfg.seed = pt.seed;
          exp::testbed d(exp::dumbbell(cfg));
          profile p;
          p.kind = kinds[pt.index];
          p.start = sim::seconds(10.0);
          p.pulse_on = sim::seconds(3.0);
          p.pulse_off = sim::seconds(3.0);
          exp::receiver_options attacker;
          attacker.attack = p;
          std::vector<exp::receiver_options> rogues = {attacker};
          if (p.kind == strategy_kind::collusion) rogues.push_back(attacker);
          auto& rogue = d.add_flid_session(exp::flid_mode::ds, rogues);
          auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                            {exp::receiver_options{}});
          d.run_until(sim::seconds(40.0));
          exp::sweep_row row;
          row.label = strategy_name(p.kind);
          row.value("attacker_bytes",
                    static_cast<double>(
                        rogue.receiver().monitor().total_bytes()));
          row.value("honest_bytes",
                    static_cast<double>(
                        honest.receiver().monitor().total_bytes()));
          row.value("invalid_keys",
                    static_cast<double>(d.sigma().stats().invalid_keys));
          row.value("igmp_joins",
                    static_cast<double>(d.igmp().stats().joins));
          return row;
        });
    std::ostringstream os;
    exp::write_json(os, "adversary_matrix", rows);
    return os.str();
  };
  const std::string serial = matrix(1);
  EXPECT_EQ(serial, matrix(4));
  EXPECT_NE(serial.find("pulse_inflate"), std::string::npos);
}

}  // namespace
}  // namespace mcc::adversary
