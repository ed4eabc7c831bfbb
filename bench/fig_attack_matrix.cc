// Attack matrix: every adversary strategy x topology x queue discipline x
// interface keying, with per-cell containment AND attacker-cost metrics.
//
// Not a paper figure — the systematic sweep the adversary subsystem exists
// for. Each cell builds one testbed (dumbbell / parking_lot / tree), attaches
// one FLID session with an honest receiver and one attacker (two colluders
// for the collusion strategy, placed at different edges where the topology
// has them), plus a TCP victim over the full path, and reports
// adversary::containment_report metrics:
//
//   attacker_share   attacker goodput share of everything measured
//   honest_damage    fraction of the honest flows' pre-attack goodput lost
//   ttc_s            time-to-containment (s); -1 = not contained by horizon
//   cost_*           attacker spend: control messages, control-plane wire
//                    bytes, useless key submissions, slots spent cut off
//   profit           attacker goodput per control message (Kbps/msg) and per
//                    control kilobyte (Kbps/KB). The ranking below sorts by
//                    the per-KB metric: messages are not fungible — a
//                    key-stuffed guessing subscribe costs an order of
//                    magnitude more wire than an IGMP join, and byte pricing
//                    is what exposes that.
//
// Under --mode=ds (default) the expectation is containment everywhere: the
// SIGMA edge holds every strategy near the honest share. Under --mode=dl the
// same grid shows the unprotected world: inflation-style strategies take the
// bottleneck. --interface-keying=both (the default in ds mode) additionally
// runs every cell with the section-4.2 countermeasure switched on; the
// headline comparison is the collusion/tree cell, whose cross-edge key pool
// goes from the matrix's worst containment time to pool_hits == 0 and a
// strictly faster claw-back. --probation-memory=both (also the default)
// additionally runs every cell with the router probation memory on; the
// headline comparison is the adaptive_churn cells, whose keyless grace
// throughput collapses once rejoins inherit the probation debt. Strategy timing parameters (pulse phases, flap
// period, adaptive probe) are flag-tunable; collusion always pools keys
// best-effort (the pool IS its key source), the other key-backed strategies
// follow --attack-keys.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

/// Every topology's contested links run at this rate; the containment
/// bound's fair-share floor is derived from it below.
constexpr double path_bps = 1e6;

struct site_plan {
  std::string honest;    // honest receiver's edge
  std::string attacker;  // attacker's edge
  std::string second;    // second colluder's edge (collusion only)
};

struct cell {
  adversary::strategy_kind strategy;
  std::string topo;
  sim::qdisc queue;
  bool keying = false;  // interface-keying countermeasure on
  int memory = 0;       // probation-memory window, slots (0 = off)
  bool cm = false;      // shared congestion manager on
  // Seed index counting only the cm-off grid: a "/cm" cell simulates the
  // SAME world as its plain twin (the pair comparison isolates the
  // manager), and plain cells keep the exact seeds they had before the cm
  // axis existed, so the rolling bench baseline keeps matching.
  std::size_t seed_index = 0;
};

exp::testbed_config make_config(const std::string& topo,
                                const exp::world_options& w,
                                const sim::aqm_config& aqm, site_plan& sites) {
  if (topo == "dumbbell") {
    exp::dumbbell_config cfg{w};
    cfg.bottleneck_bps = path_bps;
    cfg.aqm = aqm;
    sites = {"r", "r", "r"};
    return exp::dumbbell(cfg);
  }
  if (topo == "parking_lot") {
    exp::parking_lot_config cfg{w};
    cfg.bottlenecks = 2;
    cfg.bottleneck_bps = path_bps;
    cfg.aqm = aqm;
    // The attacker sits behind both bottlenecks; its colluding partner
    // behind only the first, so the partner's cleaner congestion state
    // feeds the key pool.
    sites = {"r1", "r2", "r1"};
    return exp::parking_lot(cfg);
  }
  if (topo == "tree") {
    exp::tree_config cfg{w};
    cfg.depth = 2;
    cfg.fanout = 2;
    cfg.edge_bps = path_bps;
    cfg.aqm = aqm;
    // Attacker on a sibling leaf of the honest receiver: they share the
    // root->t1_0 edge (the contested link) and split below it. The second
    // colluder sits in the other subtree, where its cleaner congestion
    // state feeds the key pool.
    sites = {"t2_0", "t2_1", "t2_2"};
    return exp::balanced_tree(cfg);
  }
  std::fprintf(stderr,
               "bad value for --topos: '%s' (expected dumbbell, parking_lot, "
               "tree, a comma list, or all)\n",
               topo.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Attack matrix: adversary strategy x topology x qdisc containment");
  flags.add("duration", "120", "experiment length, seconds");
  flags.add("attack-at", "40", "attack onset, seconds");
  flags.add("strategies", "all",
            "comma list of inflate_once|pulse_inflate|churn_flap|"
            "deaf_receiver|collusion|adaptive_pulse|adaptive_churn, or all");
  flags.add("topos", "all",
            "comma list of dumbbell|parking_lot|tree, or all");
  flags.add("mode", "ds", "protocol world: ds (SIGMA-protected) or dl (plain)");
  flags.add("attack-keys", "guess",
            "key mode for inflate_once/pulse_inflate: best_effort|replay|guess");
  flags.add("pulse-on", "5",
            "pulse_inflate: attack phase; adaptive_pulse: max probe, seconds");
  flags.add("pulse-off", "5", "pulse_inflate: recovery phase, seconds");
  flags.add("flap-period", "1", "churn_flap: slots per phase");
  flags.add("seed", "7", "simulation seed");
  exp::add_axis_flag(flags, "interface-keying", "both",
                     "collusion countermeasure (section 4.2)");
  exp::add_axis_flag(flags, "probation-memory", "both",
                     "router probation memory (adaptive_churn countermeasure)");
  exp::add_probation_memory_slots_flag(flags);
  // Default off: the matrix is a single-receiver-per-edge study outside the
  // dumbbell, where the manager is provably inert; --cm=both adds the
  // shared-manager twin of every cell for the never-worsens-ttc pin.
  exp::add_axis_flag(flags, "cm", "off",
                     "shared congestion manager across co-located sessions");
  exp::add_cm_flags(flags);
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const double attack_at_s = flags.f64("attack-at");
  if (duration <= attack_at_s + 10.0) {
    std::fprintf(stderr,
                 "bad value for --duration/--attack-at: %g/%g (need duration "
                 "> attack-at + 10 s so the containment window is non-empty)\n",
                 duration, attack_at_s);
    return 1;
  }
  const std::string mode_name = flags.str("mode");
  if (mode_name != "ds" && mode_name != "dl") {
    std::fprintf(stderr, "bad value for --mode: '%s' (expected ds or dl)\n",
                 mode_name.c_str());
    return 1;
  }
  const exp::flid_mode mode =
      mode_name == "ds" ? exp::flid_mode::ds : exp::flid_mode::dl;
  const adversary::key_mode keys =
      adversary::key_mode_from_flag(flags.str("attack-keys"));
  const sim::time_ns pulse_on = sim::seconds(flags.f64("pulse-on"));
  const sim::time_ns pulse_off = sim::seconds(flags.f64("pulse-off"));
  if (pulse_on <= 0 || pulse_off <= 0) {
    // Validate here with the friendly flag UX: the strategy constructor
    // also checks, but that invariant_error would surface as an unhandled
    // exception out of run_sweep instead of a flag message.
    std::fprintf(stderr,
                 "bad value for --pulse-on/--pulse-off: %g/%g (expected "
                 "positive seconds)\n",
                 flags.f64("pulse-on"), flags.f64("pulse-off"));
    return 1;
  }
  const int flap_period = static_cast<int>(flags.i64("flap-period"));

  std::vector<adversary::strategy_kind> strategies;
  if (flags.str("strategies") == "all") {
    strategies = adversary::all_attacks();
  } else {
    for (const std::string& name : util::split_csv(flags.str("strategies"))) {
      const auto k = adversary::strategy_from_name(name);
      if (!k.has_value() || *k == adversary::strategy_kind::honest) {
        std::fprintf(stderr,
                     "bad value for --strategies: '%s' (expected "
                     "inflate_once, pulse_inflate, churn_flap, deaf_receiver, "
                     "collusion, a comma list, or all)\n",
                     name.c_str());
        return 1;
      }
      strategies.push_back(*k);
    }
  }
  const std::vector<std::string> topos =
      flags.str("topos") == "all"
          ? std::vector<std::string>{"dumbbell", "parking_lot", "tree"}
          : util::split_csv(flags.str("topos"));
  const std::vector<sim::qdisc> qdiscs = exp::qdisc_list_from_flags(flags);
  const sim::aqm_config aqm_base = exp::aqm_config_from_flags(flags);
  std::vector<bool> keyings =
      exp::axis_from_flags(flags, "interface-keying", false, true);
  if (mode == exp::flid_mode::dl && (keyings.size() > 1 || keyings.front())) {
    // Keys do not exist in the plain world; the axis would duplicate cells.
    std::fprintf(stderr,
                 "note: --interface-keying has no effect under --mode=dl; "
                 "running the axis off\n");
    keyings = {false};
  }
  std::vector<int> memories = exp::axis_from_flags(
      flags, "probation-memory", 0,
      exp::probation_memory_slots_from_flags(flags));
  if (mode == exp::flid_mode::dl &&
      (memories.size() > 1 || memories.front() != 0)) {
    // No SIGMA router in the plain world; the axis would duplicate cells.
    std::fprintf(stderr,
                 "note: --probation-memory has no effect under --mode=dl; "
                 "running the axis off\n");
    memories = {0};
  }
  const std::vector<bool> cms = exp::axis_from_flags(flags, "cm", false, true);
  const cm::cm_config cm_params = exp::cm_config_from_flags(flags);

  std::vector<cell> cells;
  std::size_t seed_index = 0;
  for (const adversary::strategy_kind s : strategies) {
    for (const std::string& t : topos) {
      // Validate topology names up front (before worker threads).
      site_plan probe;
      (void)make_config(t, {}, aqm_base, probe);
      for (const sim::qdisc q : qdiscs) {
        for (const bool k : keyings) {
          for (const int m : memories) {
            // All cm variants of a grid point share one seed_index, and the
            // index advances only per cm-OFF point: "/cm" rows simulate
            // their twin's exact world, plain rows keep their historical
            // seeds no matter what --cm says.
            for (const bool c : cms) {
              cells.push_back({s, t, q, k, m, c, seed_index});
            }
            ++seed_index;
          }
        }
      }
    }
  }

  std::vector<double> xs(cells.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const auto opts = exp::sweep_options_from_flags(
      flags, static_cast<std::uint64_t>(flags.i64("seed")));

  const sim::time_ns attack_at = sim::seconds(attack_at_s);
  const sim::time_ns horizon = sim::seconds(duration);

  const auto rows = exp::run_sweep(xs, opts, [&](const exp::sweep_point& pt) {
    const cell& c = cells[pt.index];
    site_plan sites;
    exp::world_options w;
    w.seed = exp::point_seed(opts.base_seed, c.seed_index);
    w.interface_keying = c.keying;
    w.probation_memory_slots = c.memory;
    w.cm = c.cm;
    w.cm_params = cm_params;
    sim::aqm_config aqm = aqm_base;
    aqm.discipline = c.queue;
    exp::testbed d(make_config(c.topo, w, aqm, sites));

    adversary::profile attack;
    switch (c.strategy) {
      case adversary::strategy_kind::inflate_once:
        attack = adversary::inflate_once(attack_at, keys);
        break;
      case adversary::strategy_kind::pulse_inflate:
        attack = adversary::pulse_inflate(attack_at, pulse_on, pulse_off, keys);
        break;
      case adversary::strategy_kind::churn_flap:
        attack = adversary::churn_flap(attack_at, flap_period);
        break;
      case adversary::strategy_kind::deaf_receiver:
        attack = adversary::deaf_receiver(attack_at);
        break;
      case adversary::strategy_kind::collusion:
        attack = adversary::collusion(attack_at);
        break;
      case adversary::strategy_kind::adaptive_pulse:
        attack = adversary::adaptive_pulse(attack_at, pulse_on, keys);
        break;
      case adversary::strategy_kind::adaptive_churn:
        attack = adversary::adaptive_churn(attack_at);
        break;
      default:
        // A new attack kind in all_attacks() without a cell recipe here
        // must fail loudly, not run under a borrowed name.
        util::require(false, "fig_attack_matrix: unhandled strategy",
                      adversary::strategy_name(c.strategy));
    }

    // Two sessions share the path, mirroring Figure 7 and the containment
    // matrix test: the rogue session carries the attacker(s), the honest
    // session a well-behaved receiver, and TCP is the unicast victim.
    exp::receiver_options attacker;
    attacker.at = sites.attacker;
    attacker.attack = attack;
    std::vector<exp::receiver_options> rogues = {attacker};
    const bool colluding = c.strategy == adversary::strategy_kind::collusion;
    if (colluding) {
      exp::receiver_options partner;
      partner.at = sites.second;
      partner.attack = attack;
      rogues.push_back(partner);
    }
    auto& rogue = d.add_flid_session(mode, rogues);
    exp::receiver_options honest;
    honest.at = sites.honest;
    auto& honest_session = d.add_flid_session(mode, {honest});
    auto& tcp = d.add_tcp_flow();
    d.run_until(horizon);

    adversary::containment_config ccfg;
    ccfg.attack_start = attack_at;
    ccfg.horizon = horizon;
    // Three parties (rogue session, honest session, TCP) share the path
    // rate, so the fair share is a third of it. The floor keeps the bound
    // honest even when the honest flows are damaged.
    ccfg.floor_kbps = path_bps / 1e3 / 3.0;
    const std::vector<const sim::throughput_monitor*> honest_monitors = {
        &honest_session.receiver(0).monitor(), &tcp.sink->monitor()};
    // The containment bound tracks the honest session's receiver: its
    // layered rate is the attacker's natural yardstick (TCP still counts
    // toward share and damage).
    const std::vector<const sim::throughput_monitor*> reference = {
        &honest_session.receiver(0).monitor()};

    exp::sweep_row row;
    // Keyed cells carry a "/keyed" suffix and probation-memory cells a
    // "/mem" suffix; plain labels stay as before so cross-commit baseline
    // diffs keep matching the historical rows.
    row.label = std::string(adversary::strategy_name(c.strategy)) + "/" +
                c.topo + "/" + sim::qdisc_name(c.queue) +
                (c.keying ? "/keyed" : "") + (c.memory > 0 ? "/mem" : "") +
                (c.cm ? "/cm" : "");
    double attacker_sum = 0.0;
    double honest_sum = 0.0;
    for (const sim::throughput_monitor* m : honest_monitors) {
      honest_sum += m->average_kbps(attack_at + ccfg.settle, horizon);
    }
    double damage = 0.0;
    double ttc = 0.0;
    double profit = 0.0;
    double profit_kb = 0.0;
    bool contained = true;
    const int attackers = colluding ? 2 : 1;
    for (int a = 0; a < attackers; ++a) {
      adversary::containment_report rep = adversary::measure_containment(
          rogue.receiver(a).monitor(), honest_monitors, reference, ccfg);
      adversary::attach_cost(rep, adversary::measure_cost(rogue.receiver(a)));
      attacker_sum += rep.attacker_kbps;
      damage = rep.honest_damage;  // same honest set for every attacker
      // The cell verdict judges the attacker on the contested path
      // (receiver 0). A colluding partner may sit on an uncontested branch
      // by design — its clean congestion state is what feeds the key pool —
      // so its own high rate is entitlement, not escape; it is still
      // reported as attacker1_*.
      if (a == 0) {
        contained = rep.contained;
        ttc = rep.time_to_containment_s;
        profit = rep.profit_kbps_per_msg;
        profit_kb = rep.profit_kbps_per_kb;
      }
      const std::string p = "attacker" + std::to_string(a) + "_";
      row.value(p + "kbps", rep.attacker_kbps);
      row.value(p + "share", rep.attacker_share);
      row.value(p + "ttc_s", rep.time_to_containment_s);
      row.value(p + "bound_kbps", rep.containment_bound_kbps);
      row.value(p + "cost_msgs", static_cast<double>(rep.cost.ctrl_msgs));
      row.value(p + "cost_bytes", static_cast<double>(rep.cost.ctrl_bytes));
      row.value(p + "cost_useless_keys",
                static_cast<double>(rep.cost.useless_keys));
      row.value(p + "cost_cutoff_slots",
                static_cast<double>(rep.cost.cutoff_slots));
      row.value(p + "profit_kbps_per_msg", rep.profit_kbps_per_msg);
      row.value(p + "profit_kbps_per_kb", rep.profit_kbps_per_kb);
    }
    row.value("attacker_share",
              attacker_sum + honest_sum > 0.0
                  ? attacker_sum / (attacker_sum + honest_sum)
                  : 0.0);
    row.value("honest_damage", damage);
    row.value("ttc_s", contained ? ttc : -1.0);
    row.value("contained", contained ? 1.0 : 0.0);
    row.value("interface_keying", c.keying ? 1.0 : 0.0);
    row.value("probation_memory", static_cast<double>(c.memory));
    row.value("cm", c.cm ? 1.0 : 0.0);
    // Zero bindings across every receiver in the cell ⇒ the manager never
    // changed an auth mask ⇒ the whole run is byte-identical to the plain
    // twin. That is the predicate the cm compatibility pin below keys on.
    std::uint64_t cm_bindings = honest_session.receiver(0).stats().cm_bindings;
    for (int a = 0; a < attackers; ++a) {
      cm_bindings += rogue.receiver(a).stats().cm_bindings;
    }
    row.value("cm_bindings", static_cast<double>(cm_bindings));
    // Sustained late-window rate: everything after the attack's first grace
    // windows and escalation rounds have played out. Under probation memory
    // the churn strategies must collapse to ~0 here.
    const sim::time_ns late_from =
        attack_at + std::min(sim::seconds(20.0), (horizon - attack_at) / 2);
    row.value("attacker_late_kbps",
              rogue.receiver(0).monitor().average_kbps(late_from, horizon));
    row.value("profit_kbps_per_msg", profit);
    row.value("profit_kbps_per_kb", profit_kb);
    row.value("honest_kbps",
              honest_session.receiver(0).monitor().average_kbps(
                  attack_at + ccfg.settle, horizon));
    row.value("tcp_kbps",
              tcp.sink->monitor().average_kbps(attack_at + ccfg.settle,
                                               horizon));
    // Control-plane pressure at the attacker's edge: churn shows up here
    // long before it shows up in goodput.
    row.value("edge_igmp_joins",
              static_cast<double>(d.igmp(sites.attacker).stats().joins));
    row.value("edge_igmp_leaves",
              static_cast<double>(d.igmp(sites.attacker).stats().leaves));
    if (mode == exp::flid_mode::ds) {
      const auto& edge = d.sigma(sites.attacker).stats();
      row.value("edge_invalid_keys", static_cast<double>(edge.invalid_keys));
      row.value("edge_memory_refusals",
                static_cast<double>(edge.memory_refusals));
      row.value("edge_memory_inherits",
                static_cast<double>(edge.memory_inherits));
    }
    if (colluding) {
      const auto& pool = d.coordinator(attack.coalition).stats();
      row.value("pool_deposits", static_cast<double>(pool.deposits));
      row.value("pool_hits", static_cast<double>(pool.hits));
      // Cross-edge = the colluders sit at different edge routers (tree,
      // parking lot) — the placement section 4.2's key-sharing attack and
      // its countermeasure are about. Dumbbell colluders share one edge, so
      // keying closes their pool too but containment there is congestion-
      // dominated and need not speed up.
      row.value("cross_edge", sites.attacker != sites.second ? 1.0 : 0.0);
    }
    row.trace("attacker_kbps_series", rogue.receiver(0).monitor().series_kbps());
    row.trace("honest_kbps_series",
              honest_session.receiver(0).monitor().series_kbps());
    return row;
  });

  std::printf("# attack matrix (%s): strategy/topology/qdisc[/keyed]\n",
              mode_name.c_str());
  std::printf("# %-44s %9s %9s %8s %9s %11s\n", "cell", "atk_share", "damage",
              "ttc_s", "contained", "profit");
  for (const auto& row : rows) {
    std::printf("  %-44s %9.3f %9.3f %8.1f %9.0f %11.3f\n", row.label.c_str(),
                row.value_of("attacker_share"), row.value_of("honest_damage"),
                row.value_of("ttc_s"), row.value_of("contained"),
                row.value_of("profit_kbps_per_msg"));
  }

  // Profitability ranking: which strategy extracts the most goodput per
  // control-plane kilobyte. Byte pricing (not message counting) is the fair
  // comparison across strategies: a key-stuffed guessing subscribe carries an
  // order of magnitude more wire than an IGMP join or a sparse replay. High
  // profit + contained = a cheap nuisance; high profit + uncontained = the
  // cell to worry about.
  std::vector<const exp::sweep_row*> ranked;
  ranked.reserve(rows.size());
  for (const auto& row : rows) ranked.push_back(&row);
  std::sort(ranked.begin(), ranked.end(),
            [](const exp::sweep_row* a, const exp::sweep_row* b) {
              const double pa = a->value_of("profit_kbps_per_kb");
              const double pb = b->value_of("profit_kbps_per_kb");
              return pa != pb ? pa > pb : a->label < b->label;
            });
  std::printf("\n# profitability ranking (attacker Kbps per control KB)\n");
  std::printf("# %-44s %11s %11s %10s %11s %13s %13s\n", "cell", "profit_kb",
              "profit_msg", "cost_msgs", "cost_bytes", "useless_keys",
              "cutoff_slots");
  for (const exp::sweep_row* row : ranked) {
    std::printf("  %-44s %11.3f %11.3f %10.0f %11.0f %13.0f %13.0f\n",
                row->label.c_str(), row->value_of("profit_kbps_per_kb"),
                row->value_of("profit_kbps_per_msg"),
                row->value_of("attacker0_cost_msgs"),
                row->value_of("attacker0_cost_bytes"),
                row->value_of("attacker0_cost_useless_keys"),
                row->value_of("attacker0_cost_cutoff_slots"));
  }

  if (mode == exp::flid_mode::ds) {
    int held = 0;
    for (const auto& row : rows) {
      if (row.value_of("contained") > 0.5) ++held;
    }
    exp::print_check(std::cout, "cells contained under SIGMA",
                     "all of them", static_cast<double>(held),
                     "of " + std::to_string(rows.size()));
    // The countermeasure study: for every collusion cell run both with and
    // without keying, the keyed run must close the key-sharing channel (no
    // pool hits — checked for every placement, same-edge included). The
    // time-to-containment claim is anchored on the tree — the matrix's
    // historical worst cell, where cross-edge colluders split below the
    // contested link exactly as in section 4.2: there, keying must rein the
    // contested colluder in strictly faster. (On other topologies the
    // claw-back is congestion-dominated and the comparison is seed-noisy.)
    if (keyings.size() > 1) {
      int pairs = 0;
      int closed = 0;
      int tree_cells = 0;
      int faster = 0;
      for (const auto& row : rows) {
        if (row.label.rfind("collusion/", 0) != 0) continue;
        if (row.value_of("interface_keying") != 0.0) continue;
        const exp::sweep_row* keyed = nullptr;
        for (const auto& other : rows) {
          if (other.label == row.label + "/keyed") keyed = &other;
        }
        if (keyed == nullptr) continue;
        ++pairs;
        if (keyed->value_of("pool_hits") == 0.0) ++closed;
        if (row.label.rfind("collusion/tree/", 0) != 0) continue;
        ++tree_cells;
        const double ttc_off = row.value_of("ttc_s");
        const double ttc_on = keyed->value_of("ttc_s");
        // -1 (uncontained) is worse than any contained time.
        if (ttc_on >= 0.0 && (ttc_off < 0.0 || ttc_on < ttc_off)) ++faster;
      }
      // A claim only prints when its cells actually ran: "0 of 0" reads as
      // the study passing when nothing was checked.
      if (pairs > 0) {
        exp::print_check(std::cout,
                         "keyed collusion cells with pool_hits == 0",
                         "all of them", static_cast<double>(closed),
                         "of " + std::to_string(pairs));
      }
      if (tree_cells > 0) {
        exp::print_check(std::cout,
                         "keyed collusion/tree contained strictly faster",
                         "all of them", static_cast<double>(faster),
                         "of " + std::to_string(tree_cells));
      }
    }
    // The churn-countermeasure study: for every adaptive_churn cell run both
    // with and without probation memory, the memory run must show the grace
    // free-ride collapsing — no sustained keyless throughput once the first
    // window's debt is remembered — and the strategy dropping down the
    // profitability ranking.
    if (memories.size() > 1) {
      int churn_pairs = 0;
      int collapsed = 0;
      int less_profitable = 0;
      for (const auto& row : rows) {
        if (row.label.rfind("adaptive_churn/", 0) != 0) continue;
        if (row.value_of("probation_memory") != 0.0) continue;
        const exp::sweep_row* mem = nullptr;
        for (const auto& other : rows) {
          if (other.label == row.label + "/mem") mem = &other;
        }
        if (mem == nullptr) continue;
        ++churn_pairs;
        if (mem->value_of("attacker_late_kbps") < 10.0) ++collapsed;
        if (mem->value_of("profit_kbps_per_kb") <
            row.value_of("profit_kbps_per_kb")) {
          ++less_profitable;
        }
      }
      if (churn_pairs > 0) {
        exp::print_check(std::cout,
                         "churn cells under memory: late grace Kbps < 10",
                         "all of them", static_cast<double>(collapsed),
                         "of " + std::to_string(churn_pairs));
        exp::print_check(std::cout,
                         "churn cells strictly less profitable under memory",
                         "all of them", static_cast<double>(less_profitable),
                         "of " + std::to_string(churn_pairs));
      }
    }
    // The shared-manager compatibility pin: every "/cm" cell simulates its
    // plain twin's exact world (same seed by construction). Wherever the
    // manager stayed inert — zero cap bindings, which structurally covers
    // every cell whose honest receiver and attacker sit at different edges
    // (one session per path) — the run must be indistinguishable from the
    // twin, so turning cm on must not move time-to-containment at all.
    // Dumbbell cells where the cap actually bound are a different experiment
    // (fig_session_farm's) and are reported, not claimed.
    if (cms.size() > 1) {
      int inert_pairs = 0;
      int unchanged = 0;
      int bound_pairs = 0;
      for (const auto& row : rows) {
        if (row.value_of("cm") != 0.0) continue;
        const exp::sweep_row* cm_row = nullptr;
        for (const auto& other : rows) {
          if (other.label == row.label + "/cm") cm_row = &other;
        }
        if (cm_row == nullptr) continue;
        if (cm_row->value_of("cm_bindings") > 0.0) {
          ++bound_pairs;
          continue;
        }
        ++inert_pairs;
        if (cm_row->value_of("ttc_s") == row.value_of("ttc_s")) ++unchanged;
      }
      if (inert_pairs > 0) {
        exp::print_check(
            std::cout,
            "cm-inert cells (zero cap bindings) with ttc unchanged",
            "all of them", static_cast<double>(unchanged),
            "of " + std::to_string(inert_pairs));
        std::printf("  (cells where the shared cap bound: %d — see "
                    "fig_session_farm for that study)\n",
                    bound_pairs);
      }
    }
  }
  exp::maybe_write_json(flags, "fig_attack_matrix", rows, opts);
  exp::maybe_write_trace(flags, rows);
  return 0;
}
