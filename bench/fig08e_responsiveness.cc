// Figure 8(e): responsiveness.
//
// One multicast session shares the bottleneck with an on-off CBR session
// that transmits 800 Kbps between t = 45 s and t = 75 s. The paper shows
// FLID-DS tracking FLID-DL's reaction: both shed layers during the burst and
// recover after it.
//
// The paper's default "fair share 250 Kbps" sizing cannot apply here (the
// multicast session reaches ~1 Mbps before the burst in the paper's plot);
// we use a 1.25 Mbps bottleneck, which reproduces the figure's scale.
#include <iostream>

#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

exp::series run(exp::flid_mode mode, double duration_s, std::uint64_t seed) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1.25e6;
  cfg.seed = seed;
  exp::testbed d(exp::dumbbell(cfg));
  auto& session = d.add_flid_session(mode, {exp::receiver_options{}});
  traffic::cbr_config cbr;
  cbr.rate_bps = 800e3;
  cbr.start_time = sim::seconds(45.0);
  cbr.stop_time = sim::seconds(75.0);
  d.add_cbr(cbr);
  d.run_until(sim::seconds(duration_s));
  return session.receiver().monitor().series_kbps();
}

double window_avg(const exp::series& s, double t0, double t1) {
  double sum = 0.0;
  int n = 0;
  for (const auto& [t, v] : s) {
    if (t < t0 || t > t1) continue;
    sum += v;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("Figure 8(e): responsiveness to an 800 Kbps CBR burst");
  flags.add("duration", "100", "experiment length, seconds");
  exp::add_sweep_flags(flags, 17);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);

  // Grid: one point per protocol mode (x = 0 DL, x = 1 DS).
  const auto rows = exp::run_sweep(
      {0.0, 1.0}, opts, [&](const exp::sweep_point& pt) {
        const auto mode =
            pt.index == 0 ? exp::flid_mode::dl : exp::flid_mode::ds;
        exp::series s = run(mode, duration, pt.seed);
        exp::sweep_row row;
        row.label = pt.index == 0 ? "FLID-DL" : "FLID-DS";
        row.value("before", window_avg(s, 35.0, 44.0));
        row.value("during", window_avg(s, 55.0, 74.0));
        row.value("after", window_avg(s, 85.0, duration));
        row.trace("kbps", std::move(s));
        return row;
      });

  for (const auto& row : rows) {
    exp::print_series(std::cout,
                      "Fig 8(e): " + row.label + " Kbps vs s (burst 45-75 s)",
                      *row.trace_of("kbps"), 30.0, duration);
  }
  for (const auto& row : rows) {
    exp::print_check(std::cout, row.label + " before burst", "high (~1000)",
                     row.value_of("before"), "Kbps");
    exp::print_check(std::cout, row.label + " during burst",
                     "sheds layers (~300-400)", row.value_of("during"), "Kbps");
    exp::print_check(std::cout, row.label + " after burst", "recovers",
                     row.value_of("after"), "Kbps");
  }
  exp::write_outputs(flags, "fig08e_responsiveness", rows, opts);
  return 0;
}
