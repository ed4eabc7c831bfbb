// Figure 8(g)/(h): subscription convergence.
//
// One multicast session with four receivers behind the same bottleneck,
// joining at t = 0, 10, 20, 30 s. The paper shows all receivers converging
// to the same fair subscription, both in FLID-DL (g) and FLID-DS (h).
#include <iostream>
#include <string>
#include <vector>

#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("Figure 8(g)/(h): subscription convergence with staggered joins");
  flags.add("duration", "40", "experiment length, seconds");
  exp::add_sweep_flags(flags, 23);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);

  // Grid: one point per panel (x = 0: FLID-DL panel g, x = 1: FLID-DS panel h).
  const auto rows = exp::run_sweep(
      {0.0, 1.0}, opts, [&](const exp::sweep_point& pt) {
        const auto mode =
            pt.index == 0 ? exp::flid_mode::dl : exp::flid_mode::ds;
        exp::dumbbell_config cfg;
        cfg.bottleneck_bps = 250e3;
        cfg.seed = pt.seed;
        exp::testbed d(exp::dumbbell(cfg));
        std::vector<exp::receiver_options> receivers(4);
        for (int i = 0; i < 4; ++i) {
          receivers[static_cast<std::size_t>(i)].start_time =
              sim::seconds(10.0 * i);
        }
        auto& session = d.add_flid_session(mode, receivers);
        d.run_until(sim::seconds(duration));

        exp::sweep_row row;
        row.label = pt.index == 0 ? "FLID-DL" : "FLID-DS";
        for (int i = 0; i < 4; ++i) {
          row.trace("receiver" + std::to_string(i + 1),
                    session.receivers[static_cast<std::size_t>(i)]
                        ->monitor()
                        .series_kbps(sim::milliseconds(3000)));
        }
        bool converged = true;
        const int reference = session.receiver(0).level();
        for (int i = 1; i < 4; ++i) {
          if (session.receiver(i).level() != reference) converged = false;
        }
        row.value("converged", converged ? 1.0 : 0.0);
        row.value("final_level", reference);
        return row;
      });

  for (std::size_t m = 0; m < rows.size(); ++m) {
    const exp::sweep_row& row = rows[m];
    const char* panel = m == 0 ? "g" : "h";
    for (int i = 1; i <= 4; ++i) {
      exp::print_series(std::cout,
                        std::string("Fig 8(") + panel + "): receiver " +
                            std::to_string(i) + " Kbps vs s (" + row.label + ")",
                        *row.trace_of("receiver" + std::to_string(i)), 0.0,
                        duration);
    }
    exp::print_check(std::cout,
                     std::string("Fig 8(") + panel + ") receivers at same level",
                     "yes (converged)", row.value_of("converged"), "(1 = yes)");
    std::cout << "\n";
  }
  exp::write_outputs(flags, "fig08gh_convergence", rows, opts);
  return 0;
}
