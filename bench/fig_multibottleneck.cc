// Multi-bottleneck extension: inflated subscription on a parking-lot path.
//
// Not a paper figure — the first scenario the topology-agnostic testbed can
// express that the hard-wired dumbbell could not. A FLID session is sourced
// at r0 of a k=2 parking lot (two 1 Mbps bottlenecks in series) with two
// receivers of the SAME session: an honest one behind the first bottleneck
// (edge r1) and a misbehaving one behind the second (edge r2). TCP crosses
// the full path and per-segment TCP cross traffic loads each bottleneck.
//
// The attack inflates at t = 100 s. Under FLID-DL (plain IGMP) the far
// receiver's inflation drags the shared tree up: the extra layers cross BOTH
// bottlenecks, so even the near (honest, congestion-respecting) receiver's
// segment is collateral damage. Under FLID-DS the far edge router (r2)
// refuses the unearned layers, the tree above the split never carries them,
// and both segments keep their fair allocations — multicast containment is
// per edge, exactly as paper section 3.2 promises.
//
// `--qdisc` adds the bottleneck discipline as a second sweep axis: the
// containment story must survive RED early drops and CoDel sojourn drops,
// and each row reports both bottlenecks' ECN-vs-loss split and average
// queue occupancy.
#include <array>
#include <iostream>

#include "adversary/adversary.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/stats.h"
#include "util/flags.h"

using namespace mcc;

namespace {

exp::sweep_row run(exp::flid_mode mode, double duration_s, double inflate_at_s,
                   std::uint64_t seed, const sim::aqm_config& aqm) {
  exp::parking_lot_config cfg;
  cfg.bottlenecks = 2;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = seed;
  cfg.aqm = aqm;
  exp::testbed d(exp::parking_lot(cfg));

  exp::receiver_options honest_near;
  honest_near.at = "r1";
  exp::receiver_options attacker_far;
  attacker_far.at = "r2";
  // All groups: the strongest attack.
  attacker_far.attack = adversary::inflate_once(
      sim::seconds(inflate_at_s), adversary::key_mode::guess, 0);
  auto& session = d.add_flid_session(mode, {honest_near, attacker_far});

  // TCP over the whole path plus one flow per segment, so each bottleneck
  // has its own unicast victim.
  auto& tcp_full = d.add_tcp_flow();  // r0 -> r2 (both bottlenecks)
  exp::flow_options seg1;
  seg1.src_at = "r0";
  seg1.dst_at = "r1";
  auto& tcp_seg1 = d.add_tcp_flow(seg1);
  exp::flow_options seg2;
  seg2.src_at = "r1";
  seg2.dst_at = "r2";
  auto& tcp_seg2 = d.add_tcp_flow(seg2);

  const sim::time_ns horizon = sim::seconds(duration_s);
  d.run_until(horizon);

  exp::sweep_row row;
  const sim::time_ns t0 = sim::seconds(inflate_at_s + 10.0);
  const double honest = session.receiver(0).monitor().average_kbps(t0, horizon);
  const double attacker =
      session.receiver(1).monitor().average_kbps(t0, horizon);
  const double tcp_full_kbps = tcp_full.sink->monitor().average_kbps(t0, horizon);
  const double tcp_seg2_kbps = tcp_seg2.sink->monitor().average_kbps(t0, horizon);
  row.value("honest_near_kbps", honest);
  row.value("attacker_far_kbps", attacker);
  row.value("tcp_full_path_kbps", tcp_full_kbps);
  row.value("tcp_seg1_kbps", tcp_seg1.sink->monitor().average_kbps(t0, horizon));
  row.value("tcp_seg2_kbps", tcp_seg2_kbps);
  const std::array<double, 4> rates = {honest, attacker, tcp_full_kbps,
                                       tcp_seg2_kbps};
  row.value("fairness", sim::jain_fairness_index(rates));
  row.value("invalid_keys_far",
            static_cast<double>(d.sigma("r2").stats().invalid_keys));
  for (int b = 0; b < 2; ++b) {
    const std::string prefix = "bn" + std::to_string(b + 1) + "_";
    const sim::link_stats& bn = d.bottleneck(b)->stats();
    row.value(prefix + "dropped", static_cast<double>(bn.dropped));
    row.value(prefix + "aqm_dropped", static_cast<double>(bn.aqm_dropped));
    row.value(prefix + "ecn_marked", static_cast<double>(bn.ecn_marked));
    row.value(prefix + "avg_queue_bytes",
              d.bottleneck(b)->time_avg_queued_bytes(horizon));
  }
  return row;
}

void print(const std::string& title, const exp::sweep_row& w) {
  std::cout << "# " << title << "\n";
  std::printf("honest (behind bottleneck 1)   : %7.1f Kbps\n",
              w.value_of("honest_near_kbps"));
  std::printf("attacker (behind bottleneck 2) : %7.1f Kbps\n",
              w.value_of("attacker_far_kbps"));
  std::printf("TCP r0->r2 (both bottlenecks)  : %7.1f Kbps\n",
              w.value_of("tcp_full_path_kbps"));
  std::printf("TCP r0->r1 / r1->r2            : %7.1f / %7.1f Kbps\n",
              w.value_of("tcp_seg1_kbps"), w.value_of("tcp_seg2_kbps"));
  std::printf("fairness index                 : %7.2f\n",
              w.value_of("fairness"));
  std::printf("bn1 drops/aqm/ecn, avg queue   : %5.0f /%5.0f /%5.0f, %7.0f B\n",
              w.value_of("bn1_dropped"), w.value_of("bn1_aqm_dropped"),
              w.value_of("bn1_ecn_marked"), w.value_of("bn1_avg_queue_bytes"));
  std::printf("bn2 drops/aqm/ecn, avg queue   : %5.0f /%5.0f /%5.0f, %7.0f B\n\n",
              w.value_of("bn2_dropped"), w.value_of("bn2_aqm_dropped"),
              w.value_of("bn2_ecn_marked"), w.value_of("bn2_avg_queue_bytes"));
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Parking-lot extension: inflated subscription across two bottlenecks");
  flags.add("duration", "200", "experiment length, seconds");
  flags.add("inflate_at", "100", "attack start, seconds");
  flags.add("seed", "47", "simulation seed");
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const double inflate_at = flags.f64("inflate_at");
  const auto opts = exp::sweep_options_from_flags(
      flags, static_cast<std::uint64_t>(flags.i64("seed")));
  const sim::aqm_config base_aqm = exp::aqm_config_from_flags(flags);
  const std::vector<sim::qdisc> qdiscs = exp::qdisc_list_from_flags(flags);

  // Grid: (qdisc, protocol mode) pairs; x encodes the flattened index.
  std::vector<double> grid(qdiscs.size() * 2);
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = static_cast<double>(i);

  const auto rows = exp::run_sweep(
      grid, opts, [&](const exp::sweep_point& pt) {
        const auto mode =
            pt.index % 2 == 0 ? exp::flid_mode::dl : exp::flid_mode::ds;
        sim::aqm_config aqm = base_aqm;
        aqm.discipline = qdiscs[pt.index / 2];
        exp::sweep_row row = run(mode, duration, inflate_at, pt.seed, aqm);
        row.label = std::string(pt.index % 2 == 0 ? "FLID-DL/" : "FLID-DS/") +
                    sim::qdisc_name(aqm.discipline);
        return row;
      });

  for (std::size_t q = 0; q < qdiscs.size(); ++q) {
    const exp::sweep_row& dl = rows[q * 2];
    const exp::sweep_row& ds = rows[q * 2 + 1];
    const std::string qd = sim::qdisc_name(qdiscs[q]);
    print("FLID-DL over IGMP (unprotected) [qdisc=" + qd + "]", dl);
    print("FLID-DS = FLID-DL + DELTA + SIGMA [qdisc=" + qd + "]", ds);

    exp::print_check(std::cout, "DL: attacker grabs the shared tree (" + qd + ")",
                     "inflated (>450)", dl.value_of("attacker_far_kbps"), "Kbps");
    exp::print_check(std::cout, "DS: attacker contained at its own edge (" + qd + ")",
                     "fair (<450)", ds.value_of("attacker_far_kbps"), "Kbps");
    exp::print_check(std::cout, "DS: honest receiver keeps its segment (" + qd + ")",
                     "alive (>150)", ds.value_of("honest_near_kbps"), "Kbps");
    exp::print_check(std::cout, "DS beats DL on fairness (" + qd + ")",
                     "higher is better",
                     ds.value_of("fairness") - dl.value_of("fairness"), "delta");
    exp::print_check(std::cout, "invalid keys rejected at far edge (DS, " + qd + ")",
                     "> 0", ds.value_of("invalid_keys_far"), "");
  }
  exp::maybe_write_json(flags, "fig_multibottleneck", rows, opts);
  exp::maybe_write_trace(flags, rows);
  return 0;
}
