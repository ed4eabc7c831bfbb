// Figure 9: communication overhead of DELTA and SIGMA.
//
// A FLID-DS session transmits 500-byte data packets (s = 4000 bits) at a
// cumulative rate R = 4 Mbps; the minimal group sends r = 100 Kbps; keys are
// 16 bits, the slot number 8 bits, and FEC overcomes 50% loss (z = 2).
// (a) overhead vs number of groups, N = 2..20 at t = 250 ms;
// (b) overhead vs slot duration, t = 0.2..1 s at N = 10.
// The paper reports DELTA ~0.8% and SIGMA under 0.6% throughout.
//
// Analytic values use the closed forms of section 5.4 with f_g, z, h
// observed from a simulation run; measured values count actual field and
// control-packet bits on the wire. Both sub-sweeps run as one exp::sweep
// grid (points 0-9 are panel a, the rest panel b).
#include <cmath>
#include <iostream>

#include "core/overhead.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

struct point_result {
  double analytic_delta;
  double analytic_sigma;
  double measured_delta;
  double measured_sigma;
};

point_result run(int num_groups, double slot_seconds, double duration_s,
                 std::uint64_t seed) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;  // uncongested: overhead is a sender property
  cfg.seed = seed;
  exp::testbed d(exp::dumbbell(cfg));

  flid::flid_config fc = d.default_flid_config(exp::flid_mode::ds);
  fc.num_groups = num_groups;
  fc.packet_bytes = 500;
  fc.base_rate_bps = 100e3;
  // R = r * m^(N-1) = 4 Mbps fixes the multiplier per N (Equation 10).
  fc.rate_multiplier =
      num_groups > 1 ? std::pow(40.0, 1.0 / (num_groups - 1)) : 1.0;
  fc.slot_duration = sim::seconds(slot_seconds);
  auto& session =
      d.add_flid_session(exp::flid_mode::ds, fc, {exp::receiver_options{}});
  d.run_until(sim::seconds(duration_s));

  const auto& snd = session.sender->stats();
  const auto& em = session.ds.emitter->stats();

  core::overhead_params p;
  p.num_groups = num_groups;
  p.base_rate_bps = fc.base_rate_bps;
  p.session_rate_bps = fc.cumulative_rate_bps(num_groups);
  p.packet_data_bits = fc.packet_bytes * 8;
  p.key_bits = fc.key_bits;
  p.slot_number_bits = 8;
  p.slot_seconds = slot_seconds;
  p.fec_expansion = session.ds.emitter->expansion_factor();
  p.header_bits_per_slot =
      em.slots > 0
          ? 8.0 * static_cast<double>(em.header_bytes) / static_cast<double>(em.slots)
          : 0.0;
  p.sum_upgrade_freq = 0.0;
  for (int g = 2; g <= num_groups; ++g) {
    p.sum_upgrade_freq +=
        static_cast<double>(snd.auth_count[static_cast<std::size_t>(g)]) /
        static_cast<double>(std::max<std::uint64_t>(snd.slots, 1));
  }

  point_result out{};
  out.analytic_delta = core::delta_overhead(p);
  out.analytic_sigma = core::sigma_overhead(p);

  // Measured DELTA: b bits per packet (component) + b per packet of groups
  // >= 2 (decrease field).
  double group1_packets = 0;
  for (std::uint64_t s = 0; s < snd.slots; ++s) {
    group1_packets +=
        session.sender->packets_in_slot(1, static_cast<std::int64_t>(s));
  }
  const double b = fc.key_bits;
  out.measured_delta =
      b * (2.0 * static_cast<double>(snd.data_packets) - group1_packets) /
      (8.0 * static_cast<double>(snd.data_bytes));
  out.measured_sigma = static_cast<double>(em.ctrl_bytes) /
                       static_cast<double>(snd.data_bytes);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("Figure 9: DELTA/SIGMA communication overhead");
  flags.add("duration", "30", "seconds simulated per point");
  exp::add_sweep_flags(flags, 29);
  if (!flags.parse(argc, argv)) return 1;
  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);

  // One combined grid: panel (a) sweeps N at t = 250 ms, panel (b) sweeps
  // the slot duration at N = 10.
  std::vector<double> xs;
  std::size_t panel_a_points = 0;
  for (int n = 2; n <= 20; n += 2) {
    xs.push_back(n);
    ++panel_a_points;
  }
  for (double t = 0.2; t <= 1.001; t += 0.1) xs.push_back(t);

  const auto rows = exp::run_sweep(
      xs, opts, [&](const exp::sweep_point& pt) {
        const bool panel_a = pt.index < panel_a_points;
        const int n = panel_a ? static_cast<int>(pt.x) : 10;
        const double slot_s = panel_a ? 0.25 : pt.x;
        const point_result r = run(n, slot_s, duration, pt.seed);
        exp::sweep_row row;
        row.label = panel_a ? "a" : "b";
        row.value("analytic_delta", r.analytic_delta);
        row.value("analytic_sigma", r.analytic_sigma);
        row.value("measured_delta", r.measured_delta);
        row.value("measured_sigma", r.measured_sigma);
        return row;
      });

  std::cout << "# Fig 9(a): overhead (percent) vs number of groups, t = 250 ms\n"
               "# N  DELTA(analytic)  SIGMA(analytic)  DELTA(measured)  SIGMA(measured)\n";
  double worst_delta = 0.0;
  double worst_sigma = 0.0;
  for (const auto& row : rows) {
    if (row.label != "a") continue;
    std::printf("%d %.4f %.4f %.4f %.4f\n", static_cast<int>(row.x),
                100 * row.value_of("analytic_delta"),
                100 * row.value_of("analytic_sigma"),
                100 * row.value_of("measured_delta"),
                100 * row.value_of("measured_sigma"));
    worst_delta = std::max(worst_delta, row.value_of("analytic_delta"));
    worst_sigma = std::max(worst_sigma, row.value_of("analytic_sigma"));
  }
  std::cout << "\n# Fig 9(b): overhead (percent) vs slot duration, N = 10\n"
               "# t(s)  DELTA(analytic)  SIGMA(analytic)  DELTA(measured)  SIGMA(measured)\n";
  for (const auto& row : rows) {
    if (row.label != "b") continue;
    std::printf("%.1f %.4f %.4f %.4f %.4f\n", row.x,
                100 * row.value_of("analytic_delta"),
                100 * row.value_of("analytic_sigma"),
                100 * row.value_of("measured_delta"),
                100 * row.value_of("measured_sigma"));
    worst_delta = std::max(worst_delta, row.value_of("analytic_delta"));
    worst_sigma = std::max(worst_sigma, row.value_of("analytic_sigma"));
  }
  std::cout << "\n";
  exp::print_check(std::cout, "DELTA overhead across both sweeps",
                   "about 0.8%", 100 * worst_delta, "% (max)");
  exp::print_check(std::cout, "SIGMA overhead across both sweeps",
                   "under 0.6%", 100 * worst_sigma, "% (max)");
  exp::write_outputs(flags, "fig09_overhead", rows, opts);
  return 0;
}
