// Figure 1: impact of inflated subscription on FLID-DL.
//
// Two FLID-DL sessions (receivers F1, F2) and two TCP Reno receivers (T1,
// T2) share a 1 Mbps bottleneck; the fair share is 250 Kbps each. At t = 100s
// receiver F1 inflates its subscription in violation of the protocol. The
// paper reports F1 boosted to ~690 Kbps at the expense of F2, T1, T2.
//
// The paper does not state the level F1 inflates to; we default to level 6
// (cumulative rate ~759 Kbps), which reproduces the reported magnitude.
// --inflate_level=0 subscribes to all 10 groups (the strongest attack, which
// starves the competition almost completely).
#include <iostream>

#include "adversary/adversary.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("Figure 1: inflated subscription under FLID-DL");
  flags.add("duration", "200", "experiment length, seconds");
  flags.add("inflate_at", "100", "attack start, seconds");
  flags.add_range("inflate_level", "6",
                  "subscription level the attacker jumps to (0 = all)",
                  {.lo = 0, .integer = true});
  exp::add_sweep_flags(flags, 7);
  if (!flags.parse(argc, argv)) return 1;
  if (!exp::attack_window_ok(flags, "inflate_at")) return 1;

  const double duration = flags.f64("duration");
  const double inflate_at_s = flags.f64("inflate_at");
  const int inflate_level = static_cast<int>(flags.i64("inflate_level"));
  const auto opts = exp::sweep_options_from_flags(flags);

  const auto rows = exp::run_sweep(
      {1.0}, opts, [&](const exp::sweep_point& pt) {
        exp::dumbbell_config cfg;
        cfg.bottleneck_bps = 1e6;
        cfg.seed = pt.seed;
        exp::testbed d(exp::dumbbell(cfg));

        exp::receiver_options attacker;
        attacker.attack = adversary::inflate_once(
            sim::seconds(inflate_at_s), adversary::key_mode::guess,
            inflate_level);
        auto& f1 = d.add_flid_session(exp::flid_mode::dl, {attacker});
        auto& f2 = d.add_flid_session(exp::flid_mode::dl, {exp::receiver_options{}});
        auto& t1 = d.add_tcp_flow();
        auto& t2 = d.add_tcp_flow();

        const sim::time_ns horizon = sim::seconds(duration);
        d.run_until(horizon);

        const sim::time_ns t0 = attacker.attack.start + sim::seconds(10.0);
        exp::sweep_row row;
        row.label = "fig01";
        row.trace("F1_kbps", f1.receiver().monitor().series_kbps());
        row.trace("F2_kbps", f2.receiver().monitor().series_kbps());
        row.trace("T1_kbps", t1.sink->monitor().series_kbps());
        row.trace("T2_kbps", t2.sink->monitor().series_kbps());
        row.value("F1_after", f1.receiver().monitor().average_kbps(t0, horizon));
        row.value("F2_after", f2.receiver().monitor().average_kbps(t0, horizon));
        row.value("T1_after", t1.sink->monitor().average_kbps(t0, horizon));
        row.value("T2_after", t2.sink->monitor().average_kbps(t0, horizon));
        return row;
      });
  const exp::sweep_row& row = rows.front();

  exp::print_series(std::cout, "Fig 1: F1 (misbehaving FLID-DL) Kbps vs s",
                    *row.trace_of("F1_kbps"));
  exp::print_series(std::cout, "Fig 1: F2 (FLID-DL) Kbps vs s",
                    *row.trace_of("F2_kbps"));
  exp::print_series(std::cout, "Fig 1: T1 (TCP) Kbps vs s",
                    *row.trace_of("T1_kbps"));
  exp::print_series(std::cout, "Fig 1: T2 (TCP) Kbps vs s",
                    *row.trace_of("T2_kbps"));

  exp::print_check(std::cout, "F1 throughput after inflating", "~690",
                   row.value_of("F1_after"), "Kbps");
  exp::print_check(std::cout, "F2 throughput after the attack", "~100 (crushed)",
                   row.value_of("F2_after"), "Kbps");
  exp::print_check(std::cout, "T1 throughput after the attack", "~100 (crushed)",
                   row.value_of("T1_after"), "Kbps");
  exp::print_check(std::cout, "T2 throughput after the attack", "~100 (crushed)",
                   row.value_of("T2_after"), "Kbps");
  exp::write_outputs(flags, "fig01_inflated_subscription", rows, opts);
  return 0;
}
