// Figure 8(f): heterogeneous round-trip times.
//
// One multicast session with 20 receivers whose RTTs spread uniformly
// between 30 ms and 220 ms (bottleneck propagation 5 ms; receiver access
// delays provide the spread). The paper shows the average throughput of
// FLID-DS receivers almost constant across RTTs and close to FLID-DL's.
#include <cmath>
#include <iostream>
#include <vector>

#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

exp::series run(exp::flid_mode mode, double duration_s, std::uint64_t seed) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;
  cfg.bottleneck_delay = sim::milliseconds(5);
  cfg.seed = seed;
  exp::testbed d(exp::dumbbell(cfg));

  // RTT = 2 * (source access 10 ms + bottleneck 5 ms + receiver access x):
  // x_i chosen so RTTs cover [30, 220] ms uniformly across 20 receivers.
  std::vector<exp::receiver_options> receivers;
  std::vector<double> rtts_ms;
  for (int i = 0; i < 20; ++i) {
    const double rtt_ms = 30.0 + (220.0 - 30.0) * i / 19.0;
    rtts_ms.push_back(rtt_ms);
    exp::receiver_options opt;
    opt.access_delay = sim::milliseconds(
        static_cast<std::int64_t>((rtt_ms - 30.0) / 2.0));
    receivers.push_back(opt);
  }
  auto& session = d.add_flid_session(mode, receivers);
  const sim::time_ns horizon = sim::seconds(duration_s);
  d.run_until(horizon);

  exp::series out;
  const sim::time_ns t0 = sim::seconds(duration_s * 0.15);
  for (std::size_t i = 0; i < session.receivers.size(); ++i) {
    out.emplace_back(rtts_ms[i],
                     session.receivers[i]->monitor().average_kbps(t0, horizon));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("Figure 8(f): average throughput vs receiver RTT");
  flags.add("duration", "200", "experiment length, seconds");
  exp::add_sweep_flags(flags, 19);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);

  // Grid: one point per protocol mode (x = 0 DL, x = 1 DS).
  const auto rows = exp::run_sweep(
      {0.0, 1.0}, opts, [&](const exp::sweep_point& pt) {
        const auto mode =
            pt.index == 0 ? exp::flid_mode::dl : exp::flid_mode::ds;
        exp::series s = run(mode, duration, pt.seed);
        double mean = 0.0;
        for (const auto& [rtt, v] : s) mean += v;
        mean /= static_cast<double>(s.size());
        double worst = 0.0;
        for (const auto& [rtt, v] : s) {
          worst = std::max(worst, std::abs(v - mean) / std::max(mean, 1.0));
        }
        exp::sweep_row row;
        row.label = pt.index == 0 ? "FLID-DL" : "FLID-DS";
        row.value("mean", mean);
        row.value("max_deviation", worst);
        row.trace("kbps_vs_rtt", std::move(s));
        return row;
      });

  exp::print_columns(std::cout,
                     "Fig 8(f): average throughput (Kbps) vs RTT (ms)",
                     {"FLID-DL", "FLID-DS"},
                     {*rows[0].trace_of("kbps_vs_rtt"),
                      *rows[1].trace_of("kbps_vs_rtt")});

  // Flatness check: max deviation from the mean across RTTs.
  for (const auto& row : rows) {
    exp::print_check(std::cout,
                     row.label + " max deviation from mean across RTTs",
                     "small (throughput independent of RTT)",
                     row.value_of("max_deviation"), "fraction");
    exp::print_check(std::cout, row.label + " mean across receivers",
                     "~200-250", row.value_of("mean"), "Kbps");
  }
  exp::write_outputs(flags, "fig08f_heterogeneous_rtt", rows, opts);
  return 0;
}
