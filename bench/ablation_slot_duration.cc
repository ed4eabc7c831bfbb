// Ablation: FLID-DS slot duration.
//
// SIGMA enforces access with a responsiveness of two time slots (the s -> s+2
// timeline), so the slot duration trades enforcement latency and overhead
// against control-plane load. We sweep the FLID-DS slot and report honest
// throughput, attacker containment, and SIGMA control overhead.
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
  util::flag_set flags("Slot-duration ablation for FLID-DS");
  flags.add("duration", "120", "seconds per run");
  flags.add("inflate_at", "40", "attack start, seconds");
  exp::add_sweep_flags(flags, 37);
  if (!flags.parse(argc, argv)) return 1;
  if (!exp::attack_window_ok(flags, "inflate_at")) return 1;

  const double duration = flags.f64("duration");
  const auto inflate_at = sim::seconds(flags.f64("inflate_at"));
  const auto opts = exp::sweep_options_from_flags(flags);

  const auto rows = exp::run_sweep(
      {250.0, 375.0, 500.0, 750.0, 1000.0}, opts,
      [&](const exp::sweep_point& pt) {
        const int slot_ms = static_cast<int>(pt.x);
        exp::dumbbell_config cfg;
        cfg.bottleneck_bps = 1e6;
        cfg.seed = pt.seed;
        exp::testbed d(exp::dumbbell(cfg));

        flid::flid_config fc = d.default_flid_config(exp::flid_mode::ds);
        fc.slot_duration = sim::milliseconds(slot_ms);
        // Keep the real-time upgrade frequency constant across slot sizes.
        fc.upgrade_prob = 0.3 * slot_ms / 500.0;

        exp::receiver_options attacker;
        attacker.attack = adversary::inflate_once(inflate_at);
        auto& f1 = d.add_flid_session(exp::flid_mode::ds, fc, {attacker});
        auto& f2 = d.add_flid_session(exp::flid_mode::ds, fc,
                                      {exp::receiver_options{}});
        auto& t1 = d.add_tcp_flow();
        auto& t2 = d.add_tcp_flow();
        d.run_until(sim::seconds(duration));

        const sim::time_ns t0 = inflate_at + sim::seconds(10.0);
        const sim::time_ns te = sim::seconds(duration);
        const std::array<double, 4> rates = {
            f1.receiver().monitor().average_kbps(t0, te),
            f2.receiver().monitor().average_kbps(t0, te),
            t1.sink->monitor().average_kbps(t0, te),
            t2.sink->monitor().average_kbps(t0, te)};
        const auto& em = f2.ds.emitter->stats();
        const auto& snd = f2.sender->stats();
        exp::sweep_row row;
        row.value("honest_kbps", rates[1]);
        row.value("attacker_kbps", rates[0]);
        row.value("fairness", sim::jain_fairness_index(rates));
        row.value("sigma_overhead_pct",
                  100.0 * static_cast<double>(em.ctrl_bytes) /
                      static_cast<double>(snd.data_bytes));
        return row;
      });

  std::cout << "# slot(ms)  honest_kbps  attacker_kbps  fairness  sigma_overhead(%)\n";
  for (const auto& row : rows) {
    std::printf("%d %.1f %.1f %.3f %.3f\n", static_cast<int>(row.x),
                row.value_of("honest_kbps"), row.value_of("attacker_kbps"),
                row.value_of("fairness"), row.value_of("sigma_overhead_pct"));
  }
  std::cout << "# expectation: fairness stays high at every slot size; SIGMA\n"
               "# overhead shrinks as slots lengthen (fewer key rotations).\n";
  exp::write_outputs(flags, "ablation_slot_duration", rows, opts);
  return 0;
}
