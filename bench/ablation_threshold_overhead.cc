// Ablation: per-packet key-distribution cost, XOR DELTA vs threshold DELTA.
//
// The paper notes that Shamir's scheme "does not enable a reuse of the
// components from lower subscription levels and, therefore, has high
// communication overhead" in layered sessions (section 3.1.2), and leaves
// efficient threshold schemes as an open problem. This bench quantifies the
// gap: XOR DELTA costs at most 2b bits per packet regardless of the session
// size; threshold DELTA costs one share (~61-bit y value) per level the
// packet belongs to, i.e. up to N shares on base-layer packets.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("Threshold-vs-XOR DELTA per-packet overhead");
  flags.add("key_bits", "16", "XOR DELTA key width b");
  flags.add("share_bits", "61", "threshold share size (GF(2^61-1) y value)");
  flags.add("packet_data_bits", "4000", "data payload per packet");
  exp::add_sweep_flags(flags, std::nullopt);
  if (!flags.parse(argc, argv)) return 1;

  const double b = flags.f64("key_bits");
  const double share = flags.f64("share_bits");
  const double s_bits = flags.f64("packet_data_bits");
  const auto opts = exp::sweep_options_from_flags(flags);

  std::vector<double> xs;
  for (int n = 2; n <= 20; n += 2) xs.push_back(n);

  // Analytic model only — no simulation — but still sweep-driven so the
  // table parallelizes and serializes like every other bench.
  const auto rows = exp::run_sweep(
      xs, opts, [&](const exp::sweep_point& pt) {
        const int n = static_cast<int>(pt.x);
        // Packet population: group rates of the paper's session (r = 100
        // Kbps, R = 4 Mbps, m^(N-1) = 40): group j's share of packets equals
        // its share of the session rate.
        const double m = std::pow(40.0, 1.0 / (n - 1));
        double total_rate = 0.0;
        std::vector<double> group_rate(static_cast<std::size_t>(n) + 1, 0.0);
        for (int j = 1; j <= n; ++j) {
          const double cum_j = 100e3 * std::pow(m, j - 1);
          const double cum_below = j > 1 ? 100e3 * std::pow(m, j - 2) : 0.0;
          group_rate[static_cast<std::size_t>(j)] = cum_j - cum_below;
          total_rate += group_rate[static_cast<std::size_t>(j)];
        }
        // XOR DELTA: component (b) on every packet, decrease (b) on groups
        // >= 2. Threshold DELTA: (N - j + 1) shares on a group-j packet.
        double xor_bits = 0.0;
        double thr_bits = 0.0;
        for (int j = 1; j <= n; ++j) {
          const double frac =
              group_rate[static_cast<std::size_t>(j)] / total_rate;
          xor_bits += frac * (b + (j >= 2 ? b : 0.0));
          thr_bits += frac * share * (n - j + 1);
        }
        exp::sweep_row row;
        row.value("xor_bits", xor_bits);
        row.value("xor_pct", 100.0 * xor_bits / s_bits);
        row.value("threshold_bits", thr_bits);
        row.value("threshold_pct", 100.0 * thr_bits / s_bits);
        row.value("ratio", thr_bits / xor_bits);
        return row;
      });

  std::cout << "# average per-packet key-distribution bits and overhead\n"
               "# N  xor_bits  xor_pct  threshold_bits  threshold_pct  ratio\n";
  for (const auto& row : rows) {
    std::printf("%d %.1f %.3f %.1f %.3f %.1fx\n", static_cast<int>(row.x),
                row.value_of("xor_bits"), row.value_of("xor_pct"),
                row.value_of("threshold_bits"), row.value_of("threshold_pct"),
                row.value_of("ratio"));
  }
  exp::print_check(std::cout, "XOR DELTA per-packet cost",
                   "<= 2b bits (paper: ~0.8% of data)", 2 * b, "bits");
  std::cout << "# threshold DELTA pays an order of magnitude more on small\n"
               "# sessions and grows with N on the base layer - the paper's\n"
               "# open problem, quantified.\n";
  exp::write_outputs(flags, "ablation_threshold_overhead", rows, opts);
  return 0;
}
