// Session farm: 2..64 concurrent FLID sessions sharing one set of
// bottlenecks, one adversarial session among honest neighbours, sweeping the
// shared congestion manager x queue discipline x attack.
//
// Not a paper figure — the cross-session question the paper's single-session
// experiments cannot express: when a misbehaving receiver inflates ONE
// session's subscription, how much collateral damage do honest *neighbour
// sessions* take, and does DS containment plus a shared congestion manager
// (src/cm) limit it? Each cell builds one testbed whose bottleneck is sized
// to --per-session-kbps per session, adds the rogue session first (session 0)
// and an add_session_array of honest neighbours behind the same contested
// edge, and reports:
//
//   neighbour_damage   fraction of the honest sessions' pre-attack goodput
//                      lost over the post-attack window (0 = no collateral)
//   honest_jain        Jain fairness index across the honest sessions
//   s<i>_kbps          per-session throughput columns (exp::session_rollup)
//   attacker_kbps      the rogue session's post-attack goodput
//   cm.*               shared-manager metrics (row "metrics" object): cache
//                      occupancy, lookups, and how often the cap bound
//
// The headline CHECK: at >= --check-sessions concurrent sessions, honest-
// neighbour damage under DS+CM must sit strictly below DS-alone — the shared
// fair-rate estimate stops every honest session from probing into the
// attacker's overload at once, so the collateral loss cycle never starts.
// CM cells carry a "/cm" label suffix; plain labels stay as before so
// cross-commit baseline diffs keep matching historical rows.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {
struct site_plan {
  std::string shared;  // the contested edge every session's receiver sits at
};

struct cell {
  int sessions = 2;
  std::string topo;
  sim::qdisc queue;
  std::string attack;
  bool cm = false;  // shared congestion manager on
};

// World seed from the cell's cm-free coordinates (FNV-1a): a "/cm" row and
// its plain twin simulate the SAME world, so their pair comparison isolates
// the manager's effect instead of folding in seed noise. Worker-independent,
// which the --jobs byte-equality contract needs.
std::uint64_t cell_seed(std::uint64_t base, const cell& c) {
  std::uint64_t h = 1469598103934665603ull ^ (base * 1099511628211ull);
  const auto fold = [&h](const std::string& s) {
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  };
  fold(c.topo);
  fold(c.attack);
  h ^= static_cast<std::uint64_t>(c.sessions);
  h *= 1099511628211ull;
  h ^= static_cast<std::uint64_t>(c.queue);
  h *= 1099511628211ull;
  return h;
}

exp::testbed_config make_config(const std::string& topo,
                                const exp::world_options& w,
                                const sim::aqm_config& aqm, double path_bps,
                                site_plan& sites) {
  if (topo == "dumbbell") {
    exp::dumbbell_config cfg{w};
    cfg.bottleneck_bps = path_bps;
    cfg.aqm = aqm;
    sites = {"r"};
    return exp::dumbbell(cfg);
  }
  if (topo == "parking_lot") {
    exp::parking_lot_config cfg{w};
    cfg.bottlenecks = 2;
    cfg.bottleneck_bps = path_bps;
    cfg.aqm = aqm;
    sites = {"r2"};
    return exp::parking_lot(cfg);
  }
  std::fprintf(stderr,
               "bad value for --topos: '%s' (expected dumbbell, parking_lot, "
               "or a comma list)\n",
               topo.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Session farm: N concurrent sessions x cm x qdisc x attack collateral");
  flags.add("duration", "120", "experiment length, seconds");
  flags.add("attack-at", "40", "attack onset, seconds");
  flags.add("damage-window", "40",
            "collateral damage is measured over [attack-at, attack-at + "
            "this], seconds");
  flags.add("sessions", "2,8",
            "concurrent session count(s), comma-separated (2..64 each)");
  flags.add("attacks", "none,inflate_once",
            "comma list of none|inflate_once|pulse_inflate|deaf_receiver");
  flags.add("topos", "dumbbell,parking_lot",
            "comma list of dumbbell|parking_lot");
  flags.add("mode", "ds", "protocol world: ds (SIGMA-protected) or dl (plain)");
  flags.add("attack-keys", "guess",
            "key mode for inflate_once/pulse_inflate: best_effort|replay|guess");
  flags.add("per-session-kbps", "250",
            "bottleneck capacity budgeted per session (link = N x this)");
  flags.add("check-sessions", "8",
            "the collateral-damage CHECK applies at this many sessions or "
            "more");
  flags.add("seed", "21", "simulation seed");
  exp::add_axis_flag(flags, "cm", "both",
                     "shared congestion manager across co-located sessions");
  exp::add_cm_flags(flags);
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const double attack_at_s = flags.f64("attack-at");
  const double damage_window_s = flags.f64("damage-window");
  if (!(damage_window_s >= 5.0)) {
    std::fprintf(stderr,
                 "bad value for --damage-window: %g (expected >= 5 s)\n",
                 damage_window_s);
    return 1;
  }
  if (duration <= attack_at_s + 10.0) {
    std::fprintf(stderr,
                 "bad value for --duration/--attack-at: %g/%g (need duration "
                 "> attack-at + 10 s so the damage window is non-empty)\n",
                 duration, attack_at_s);
    return 1;
  }
  if (attack_at_s <= 15.0) {
    std::fprintf(stderr,
                 "bad value for --attack-at: %g (need > 15 s so the "
                 "pre-attack baseline window is non-empty)\n",
                 attack_at_s);
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
  const double per_session_kbps = flags.f64("per-session-kbps");
  if (!(per_session_kbps >= 50.0 && per_session_kbps <= 10e3)) {
    std::fprintf(stderr,
                 "bad value for --per-session-kbps: %g (expected a rate in "
                 "[50, 10000])\n",
                 per_session_kbps);
    return 1;
  }
  const int check_sessions = static_cast<int>(flags.i64("check-sessions"));

  std::vector<int> session_counts;
  for (const std::string& tok : util::split_csv(flags.str("sessions"))) {
    const int n = std::atoi(tok.c_str());
    if (n < 2 || n > 64) {
      std::fprintf(stderr,
                   "bad value for --sessions: '%s' (expected counts in "
                   "[2, 64])\n",
                   tok.c_str());
      return 1;
    }
    session_counts.push_back(n);
  }
  std::vector<std::string> attacks = util::split_csv(flags.str("attacks"));
  for (const std::string& name : attacks) {
    if (name == "none") continue;
    const auto k = adversary::strategy_from_name(name);
    if (!k.has_value() || *k == adversary::strategy_kind::honest) {
      std::fprintf(stderr,
                   "bad value for --attacks: '%s' (expected none, "
                   "inflate_once, pulse_inflate, deaf_receiver, or a comma "
                   "list)\n",
                   name.c_str());
      return 1;
    }
  }
  const std::vector<std::string> topos = util::split_csv(flags.str("topos"));
  const std::vector<sim::qdisc> qdiscs = exp::qdisc_list_from_flags(flags);
  const sim::aqm_config aqm_base = exp::aqm_config_from_flags(flags);
  const std::vector<bool> cms = exp::axis_from_flags(flags, "cm", false, true);
  const cm::cm_config cm_params = exp::cm_config_from_flags(flags);

  std::vector<cell> cells;
  for (const int n : session_counts) {
    for (const std::string& t : topos) {
      // Validate topology names up front (before worker threads).
      site_plan probe;
      (void)make_config(t, {}, aqm_base, 1e6, probe);
      for (const sim::qdisc q : qdiscs) {
        for (const std::string& a : attacks) {
          for (const bool c : cms) cells.push_back({n, t, q, a, c});
        }
      }
    }
  }

  std::vector<double> xs(cells.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const std::uint64_t base_seed = static_cast<std::uint64_t>(flags.i64("seed"));
  const auto opts = exp::sweep_options_from_flags(flags, base_seed);

  const sim::time_ns attack_at = sim::seconds(attack_at_s);
  const sim::time_ns horizon = sim::seconds(duration);

  const auto rows = exp::run_sweep(
      xs, opts,
      [&](const exp::sweep_point& pt) {
    const cell& c = cells[pt.index];
    site_plan sites;
    // The bottleneck grows with the farm so the per-session fair share
    // stays put: the sessions axis varies contention structure, not the
    // per-session budget.
    const double path_bps =
        per_session_kbps * 1e3 * static_cast<double>(c.sessions);
    exp::world_options w;
    w.seed = cell_seed(base_seed, c);
    w.cm = c.cm;
    w.cm_params = cm_params;
    sim::aqm_config aqm = aqm_base;
    aqm.discipline = c.queue;
    exp::testbed d(make_config(c.topo, w, aqm, path_bps, sites));

    // Session 0 carries the farm's one misbehaving receiver; every other
    // session is an honest neighbour at the same contested edge.
    std::vector<exp::flid_session*> honest;
    exp::flid_session* rogue = nullptr;
    if (c.attack != "none") {
      exp::receiver_options attacker;
      attacker.at = sites.shared;
      const auto kind = *adversary::strategy_from_name(c.attack);
      switch (kind) {
        case adversary::strategy_kind::inflate_once:
          attacker.attack = adversary::inflate_once(attack_at, keys);
          break;
        case adversary::strategy_kind::pulse_inflate:
          attacker.attack = adversary::pulse_inflate(
              attack_at, sim::seconds(5.0), sim::seconds(5.0), keys);
          break;
        case adversary::strategy_kind::deaf_receiver:
          attacker.attack = adversary::deaf_receiver(attack_at);
          break;
        default:
          util::require(false, "fig_session_farm: unhandled strategy",
                        c.attack);
      }
      rogue = &d.add_flid_session(mode, {attacker});
    }
    exp::receiver_options neighbour;
    neighbour.at = sites.shared;
    const int honest_count = c.sessions - (rogue != nullptr ? 1 : 0);
    honest = d.add_session_array(honest_count, mode, {neighbour});
    d.run_until(horizon);

    // Pre-attack baseline vs the attack-transient window. The damage window
    // opens AT the attack and spans its transient plus the recovery: that is
    // where collateral loss lives. Measuring long after containment would
    // mostly re-measure steady state and dilute the effect under study.
    const sim::time_ns pre0 = sim::seconds(15.0);
    const sim::time_ns post0 = attack_at;
    const sim::time_ns post1 =
        std::min(horizon, attack_at + sim::seconds(damage_window_s));
    const exp::session_rollup pre =
        exp::session_rollup_for(honest, pre0, attack_at);
    const exp::session_rollup post =
        exp::session_rollup_for(honest, post0, post1);

    exp::sweep_row row;
    row.label = c.topo + "/" + std::string(sim::qdisc_name(c.queue)) + "/n" +
                std::to_string(c.sessions) + "/" + c.attack +
                (c.cm ? "/cm" : "");
    row.value("sessions", static_cast<double>(c.sessions));
    row.value("cm", c.cm ? 1.0 : 0.0);
    row.value("attacked", c.attack != "none" ? 1.0 : 0.0);
    const double n_honest = static_cast<double>(honest.size());
    const double pre_mean = pre.total_rate / n_honest;
    const double post_mean = post.total_rate / n_honest;
    row.value("honest_pre_kbps", pre_mean);
    row.value("honest_kbps", post_mean);
    row.value("neighbour_damage",
              pre_mean > 0.0 ? std::max(0.0, 1.0 - post_mean / pre_mean)
                             : 0.0);
    row.value("honest_jain", post.jain);
    row.value("attacker_kbps",
              rogue != nullptr
                  ? rogue->receiver(0).monitor().average_kbps(post0, post1)
                  : 0.0);
    if (rogue != nullptr) {
      row.value("attacker_level",
                static_cast<double>(rogue->receiver(0).level()));
    }
    // Per-session throughput columns, in session-id order (the roll-up's
    // input order): the cross-session containment picture at full width.
    for (const exp::session_column& s : post.sessions) {
      row.value(s.name + "_kbps", s.rate);
    }
    std::uint64_t bindings = 0;
    for (exp::flid_session* s : honest) {
      bindings += s->receiver(0).stats().cm_bindings;
    }
    row.value("cm_bindings", static_cast<double>(bindings));
    row.value("events", static_cast<double>(d.sched().executed_events()));
    row.trace("honest_session0_kbps_series", post.sessions.front().smoothed);
    row.metrics = d.metrics().snapshot();
    return row;
  });

  std::printf("# session farm (%s): topo/qdisc/nN/attack[/cm]\n",
              mode_name.c_str());
  std::printf("# %-42s %8s %10s %10s %9s %9s %11s\n", "cell", "sessions",
              "honest_kbps", "atk_kbps", "damage", "jain", "cm_bindings");
  for (const auto& row : rows) {
    std::printf("  %-42s %8.0f %10.2f %10.2f %9.3f %9.4f %11.0f\n",
                row.label.c_str(), row.value_of("sessions"),
                row.value_of("honest_kbps"), row.value_of("attacker_kbps"),
                row.value_of("neighbour_damage"), row.value_of("honest_jain"),
                row.value_of("cm_bindings"));
  }

  // The headline collateral-damage study: pair every attacked DS-alone cell
  // with its "/cm" twin (same world seed by construction — cell_seed skips
  // the cm coordinate). At farm sizes >= --check-sessions the shared manager
  // must strictly reduce MEAN honest-neighbour damage across the farm cells.
  // The claim is aggregate rather than per-pair because in some worlds the
  // cap only ever bound at levels the receivers were not about to join —
  // a behavioural no-op, which ties the pair and says nothing either way.
  // Smaller farms are reported but not claimed (two sessions leave the
  // estimate noisy).
  if (cms.size() > 1) {
    int pairs = 0;
    int worse = 0;
    int bound_cells = 0;
    double dmg_off_sum = 0.0;
    double dmg_on_sum = 0.0;
    for (const auto& row : rows) {
      if (row.value_of("attacked") != 1.0) continue;
      if (row.value_of("cm") != 0.0) continue;
      if (row.value_of("sessions") < static_cast<double>(check_sessions)) {
        continue;
      }
      const exp::sweep_row* cm_row = nullptr;
      for (const auto& other : rows) {
        if (other.label == row.label + "/cm") cm_row = &other;
      }
      if (cm_row == nullptr) continue;
      ++pairs;
      // Matched-pair damage against a COMMON baseline — the DS-alone cell's
      // own pre-attack goodput. The per-row neighbour_damage column is
      // self-normalised, which is right for reading one cell but wrong for
      // the pair comparison: the manager shifts the pre-attack window too,
      // and that shift would launder into the ratio.
      const double base = row.value_of("honest_pre_kbps");
      const double dmg_off =
          std::max(0.0, 1.0 - row.value_of("honest_kbps") / base);
      const double dmg_on =
          std::max(0.0, 1.0 - cm_row->value_of("honest_kbps") / base);
      dmg_off_sum += dmg_off;
      dmg_on_sum += dmg_on;
      if (dmg_on > dmg_off) ++worse;
      if (cm_row->value_of("cm_bindings") > 0.0) ++bound_cells;
    }
    // A claim only prints when its cells actually ran: "0 of 0" reads as
    // the study passing when nothing was checked.
    if (pairs > 0) {
      const double reduction = (dmg_off_sum - dmg_on_sum) / pairs;
      exp::print_check(
          std::cout,
          "mean honest-neighbour damage reduction, DS+CM vs DS-alone "
          "(n >= " + std::to_string(check_sessions) + ")",
          "strictly > 0", reduction,
          "damage fraction over " + std::to_string(pairs) + " pairs");
      exp::print_check(std::cout,
                       "cm farms where the shared cap actually bound",
                       "all of them", static_cast<double>(bound_cells),
                       "of " + std::to_string(pairs));
      std::printf("  (pairs where cm made damage worse: %d of %d)\n", worse,
                  pairs);
    }
  }
  exp::maybe_write_json(flags, "fig_session_farm", rows, opts);
  exp::maybe_write_trace(flags, rows);
  return 0;
}
