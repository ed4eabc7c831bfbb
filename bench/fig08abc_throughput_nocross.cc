// Figure 8(a)-(c): multicast throughput without cross traffic.
//
// n FLID sessions (n = 1..18) share a bottleneck sized so each session's
// fair share is 250 Kbps. For every session count we report individual
// receiver throughputs and the average — once for FLID-DL (Fig 8a), once for
// FLID-DS (Fig 8b) — and the DL-vs-DS averages side by side (Fig 8c). The
// paper's claim: receivers achieve similar average throughput in FLID-DL and
// FLID-DS.
//
// The session-count grid runs under exp::sweep: each grid point simulates
// both modes in an isolated world, so --jobs N parallelizes the sweep with
// bit-identical output.
#include <cmath>
#include <iostream>
#include <vector>

#include "crypto/prng.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

struct run_result {
  exp::series individual_kbps;  // x = receiver number (1-based)
  double average_kbps = 0.0;
};

run_result run(exp::flid_mode mode, int sessions, double duration_s,
               std::uint64_t seed) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3 * sessions;
  cfg.seed = seed;
  exp::testbed d(exp::dumbbell(cfg));
  std::vector<exp::flid_session*> handles;
  for (int i = 0; i < sessions; ++i) {
    handles.push_back(&d.add_flid_session(mode, {exp::receiver_options{}}));
  }
  const sim::time_ns horizon = sim::seconds(duration_s);
  d.run_until(horizon);

  run_result r;
  const sim::time_ns t0 = sim::seconds(duration_s * 0.1);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const double kbps =
        handles[i]->receiver().monitor().average_kbps(t0, horizon);
    r.individual_kbps.emplace_back(static_cast<double>(i + 1), kbps);
    r.average_kbps += kbps;
  }
  r.average_kbps /= sessions;
  return r;
}

void print_individual(const char* title, const std::vector<exp::sweep_row>& rows,
                      const char* trace_name) {
  std::cout << title;
  for (const auto& row : rows) {
    std::cout << static_cast<int>(row.x);
    for (const auto& [idx, v] : *row.trace_of(trace_name)) {
      (void)idx;
      std::cout << " " << v;
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("Figure 8(a)-(c): throughput vs session count, no cross traffic");
  flags.add("duration", "200", "experiment length, seconds");
  flags.add_range("max_sessions", "18", "largest session count",
                  {.lo = 1, .integer = true});
  exp::add_sweep_flags(flags, 11);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);
  std::vector<double> counts;
  for (int n = 1; n <= flags.i64("max_sessions");
       n += (n == 1 ? 1 : 2)) {  // 1, 2, 4, 6, ..., like the paper's x axis
    counts.push_back(n);
  }

  const auto rows = exp::run_sweep(
      counts, opts, [&](const exp::sweep_point& pt) {
        const int n = static_cast<int>(pt.x);
        // Independent sub-streams for the two modes of this grid point.
        std::uint64_t sm = pt.seed;
        const std::uint64_t dl_seed = crypto::splitmix64(sm);
        const std::uint64_t ds_seed = crypto::splitmix64(sm);
        const run_result dl = run(exp::flid_mode::dl, n, duration, dl_seed);
        const run_result ds = run(exp::flid_mode::ds, n, duration, ds_seed);
        exp::sweep_row row;
        row.value("dl_avg", dl.average_kbps);
        row.value("ds_avg", ds.average_kbps);
        row.trace("dl_individual", dl.individual_kbps);
        row.trace("ds_individual", ds.individual_kbps);
        return row;
      });

  print_individual(
      "# Fig 8(a): FLID-DL individual rates (Kbps) per session count\n", rows,
      "dl_individual");
  print_individual(
      "\n# Fig 8(b): FLID-DS individual rates (Kbps) per session count\n", rows,
      "ds_individual");
  std::cout << "\n";
  const exp::series dl_avg = exp::column(rows, "dl_avg");
  const exp::series ds_avg = exp::column(rows, "ds_avg");
  exp::print_columns(std::cout,
                     "Fig 8(c): average throughput (Kbps) vs #sessions",
                     {"FLID-DL", "FLID-DS"}, {dl_avg, ds_avg});

  // The paper's check: similar averages for DL and DS at every point.
  double worst_gap = 0.0;
  for (std::size_t i = 0; i < dl_avg.size(); ++i) {
    const double gap = std::abs(dl_avg[i].second - ds_avg[i].second) /
                       std::max(dl_avg[i].second, 1.0);
    worst_gap = std::max(worst_gap, gap);
  }
  exp::print_check(std::cout, "max relative DL-vs-DS average gap",
                   "small (curves overlap)", worst_gap, "fraction");
  exp::write_outputs(flags, "fig08abc_throughput_nocross", rows, opts);
  return 0;
}
