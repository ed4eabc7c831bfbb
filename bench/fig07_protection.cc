// Figure 7: protection with DELTA and SIGMA.
//
// Same scenario as Figure 1 but with FLID-DS (FLID-DL + DELTA + SIGMA,
// 250 ms slots): at t = 100 s receiver F1 tries to inflate its subscription
// (claiming the maximal level and flooding random key guesses). The paper
// shows the fair allocation preserved for all four receivers.
#include <array>
#include <iostream>

#include "adversary/adversary.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/stats.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("Figure 7: FLID-DS under the inflated-subscription attack");
  flags.add("duration", "200", "experiment length, seconds");
  flags.add("inflate_at", "100", "attack start, seconds");
  flags.add("attack-keys", "guess",
            "how unprovable layers are backed: best_effort|replay|guess");
  flags.add("seed", "7", "simulation seed");
  // One scenario per run, so no "both": the flag parser rejects it.
  flags.add_enum("interface-keying", "off",
                 "collusion countermeasure (section 4.2)", {"off", "on"});
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const double inflate_at_s = flags.f64("inflate_at");
  const adversary::key_mode keys =
      adversary::key_mode_from_flag(flags.str("attack-keys"));
  // Off (the paper's setup) unless asked for.
  const bool keying = flags.str("interface-keying") == "on";
  const auto opts = exp::sweep_options_from_flags(
      flags, static_cast<std::uint64_t>(flags.i64("seed")));

  const auto rows = exp::run_sweep(
      {1.0}, opts,
      [&](const exp::sweep_point& pt) {
        exp::dumbbell_config cfg;
        cfg.bottleneck_bps = 1e6;
        cfg.seed = pt.seed;
        cfg.interface_keying = keying;
        exp::testbed d(exp::dumbbell(cfg));

        exp::receiver_options attacker;
        attacker.attack =
            adversary::inflate_once(sim::seconds(inflate_at_s), keys);
        auto& f1 = d.add_flid_session(exp::flid_mode::ds, {attacker});
        auto& f2 = d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
        auto& t1 = d.add_tcp_flow();
        auto& t2 = d.add_tcp_flow();

        const sim::time_ns horizon = sim::seconds(duration);
        d.run_until(horizon);

        const sim::time_ns t0 = attacker.attack.start + sim::seconds(10.0);
        exp::sweep_row row;
        row.label = "fig07";
        row.trace("F1_kbps", f1.receiver().monitor().series_kbps());
        row.trace("F2_kbps", f2.receiver().monitor().series_kbps());
        row.trace("T1_kbps", t1.sink->monitor().series_kbps());
        row.trace("T2_kbps", t2.sink->monitor().series_kbps());
        const std::array<double, 4> rates = {
            f1.receiver().monitor().average_kbps(t0, horizon),
            f2.receiver().monitor().average_kbps(t0, horizon),
            t1.sink->monitor().average_kbps(t0, horizon),
            t2.sink->monitor().average_kbps(t0, horizon)};
        row.value("F1_after", rates[0]);
        row.value("F2_after", rates[1]);
        row.value("T1_after", rates[2]);
        row.value("T2_after", rates[3]);
        row.value("fairness", sim::jain_fairness_index(rates));
        row.value("invalid_keys",
                  static_cast<double>(d.sigma().stats().invalid_keys));
        row.metrics = d.metrics().snapshot();
        return row;
      });
  const exp::sweep_row& row = rows.front();

  exp::print_series(std::cout, "Fig 7: F1 (misbehaving FLID-DS) Kbps vs s",
                    *row.trace_of("F1_kbps"));
  exp::print_series(std::cout, "Fig 7: F2 (FLID-DS) Kbps vs s",
                    *row.trace_of("F2_kbps"));
  exp::print_series(std::cout, "Fig 7: T1 (TCP) Kbps vs s",
                    *row.trace_of("T1_kbps"));
  exp::print_series(std::cout, "Fig 7: T2 (TCP) Kbps vs s",
                    *row.trace_of("T2_kbps"));

  exp::print_check(std::cout, "F1 after attempting to inflate",
                   "fair (~250, attack has no effect)", row.value_of("F1_after"),
                   "Kbps");
  exp::print_check(std::cout, "F2 after the attack", "fair (~250)",
                   row.value_of("F2_after"), "Kbps");
  exp::print_check(std::cout, "Jain fairness across F1,F2,T1,T2",
                   "high (allocation preserved)", row.value_of("fairness"), "");
  exp::print_check(std::cout, "invalid keys rejected by SIGMA", "> 0",
                   row.value_of("invalid_keys"), "");
  exp::maybe_write_json(flags, "fig07_protection", rows, opts);
  exp::maybe_write_trace(flags, rows);
  return 0;
}
