// Figure 8(d): average multicast throughput with cross traffic.
//
// n multicast sessions compete with n TCP sessions plus an on-off CBR
// session (on-rate 10% of the bottleneck capacity, 5 s on / 5 s off).
// Bottleneck capacity keeps the 250 Kbps fair share per session. The paper's
// claim: the multicast allocation depends on the session count, but FLID-DL
// and FLID-DS receivers see similar averages.
//
// The bottleneck queue discipline is a sweep axis: `--qdisc=droptail,red`
// (or `all`) re-runs the whole session-count grid once per discipline, and
// every row reports the bottleneck's ECN-vs-loss split plus a sampled
// queue-occupancy trace in the BENCH JSON.
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
  double avg_kbps = 0.0;
  sim::link_stats bottleneck;
  double avg_queue_bytes = 0.0;
  exp::series queue_trace;  // (seconds, queued bytes), 1 Hz
};

run_result run(exp::flid_mode mode, int sessions, double duration_s,
               std::uint64_t seed, const sim::aqm_config& aqm,
               bool want_trace) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3 * (2 * sessions);
  cfg.seed = seed;
  cfg.aqm = aqm;
  exp::testbed d(exp::dumbbell(cfg));
  std::vector<exp::flid_session*> handles;
  for (int i = 0; i < sessions; ++i) {
    handles.push_back(&d.add_flid_session(mode, {exp::receiver_options{}}));
  }
  for (int i = 0; i < sessions; ++i) d.add_tcp_flow();
  traffic::cbr_config cbr;
  cbr.rate_bps = 0.1 * cfg.bottleneck_bps;
  cbr.on_duration = sim::seconds(5.0);
  cbr.off_duration = sim::seconds(5.0);
  d.add_cbr(cbr);

  run_result res;
  if (want_trace) {
    sim::link* bn = d.bottleneck();
    for (int t = 1; t < static_cast<int>(duration_s); ++t) {
      d.sched().at(sim::seconds(static_cast<double>(t)), [&res, bn, t] {
        res.queue_trace.emplace_back(static_cast<double>(t),
                                     static_cast<double>(bn->queued_bytes()));
      });
    }
  }

  const sim::time_ns horizon = sim::seconds(duration_s);
  d.run_until(horizon);
  const sim::time_ns t0 = sim::seconds(duration_s * 0.1);
  for (auto* s : handles) {
    res.avg_kbps += s->receiver().monitor().average_kbps(t0, horizon);
  }
  res.avg_kbps /= sessions;
  res.bottleneck = d.bottleneck()->stats();
  res.avg_queue_bytes = d.bottleneck()->time_avg_queued_bytes(horizon);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("Figure 8(d): average multicast throughput with cross traffic");
  flags.add("duration", "200", "experiment length, seconds");
  flags.add_range("max_sessions", "18", "largest multicast session count",
                  {.lo = 1, .integer = true});
  flags.add_range("repeats", "3", "seeds averaged per data point",
                  {.lo = 1, .integer = true});
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags, 13);
  if (!flags.parse(argc, argv)) return 1;

  const double duration = flags.f64("duration");
  const int repeats = static_cast<int>(flags.i64("repeats"));
  const auto opts = exp::sweep_options_from_flags(flags);
  const auto base_aqm = exp::aqm_config_from_flags(flags);
  if (!base_aqm) return 1;
  const std::vector<sim::qdisc> qdiscs = exp::qdisc_list_from_flags(flags);
  std::vector<double> counts;
  for (int n = 1; n <= flags.i64("max_sessions"); n += (n == 1 ? 1 : 2)) {
    counts.push_back(n);
  }

  // Grid: session counts x queue disciplines, flattened in qdisc-major order
  // so every discipline sweeps the full count range.
  std::vector<double> grid;
  for (std::size_t q = 0; q < qdiscs.size(); ++q) {
    grid.insert(grid.end(), counts.begin(), counts.end());
  }

  const auto rows = exp::run_sweep(
      grid, opts, [&](const exp::sweep_point& pt) {
        const int n = static_cast<int>(pt.x);
        sim::aqm_config aqm = *base_aqm;
        aqm.discipline = qdiscs[pt.index / counts.size()];
        double dl = 0.0;
        double ds = 0.0;
        run_result ds_probe;  // stats/trace from the first DS repeat
        std::uint64_t sm = pt.seed;  // per-repeat sub-streams of this point
        for (int rep = 0; rep < repeats; ++rep) {
          dl += run(exp::flid_mode::dl, n, duration, crypto::splitmix64(sm),
                    aqm, false)
                    .avg_kbps;
          run_result ds_run = run(exp::flid_mode::ds, n, duration,
                                  crypto::splitmix64(sm), aqm, rep == 0);
          if (rep == 0) ds_probe = ds_run;
          ds += ds_run.avg_kbps;
        }
        exp::sweep_row row;
        row.label = sim::qdisc_name(aqm.discipline);
        row.value("dl_avg", dl / repeats);
        row.value("ds_avg", ds / repeats);
        const sim::link_stats& bn = ds_probe.bottleneck;
        row.value("ds_bn_dropped", static_cast<double>(bn.dropped));
        row.value("ds_bn_aqm_dropped", static_cast<double>(bn.aqm_dropped));
        row.value("ds_bn_ecn_marked", static_cast<double>(bn.ecn_marked));
        row.value("ds_bn_bytes_dropped", static_cast<double>(bn.bytes_dropped));
        row.value("ds_bn_avg_queue_bytes", ds_probe.avg_queue_bytes);
        row.trace("ds_bn_queue_bytes", std::move(ds_probe.queue_trace));
        return row;
      });

  double worst_gap = 0.0;
  for (std::size_t q = 0; q < qdiscs.size(); ++q) {
    const std::vector<exp::sweep_row> slice(
        rows.begin() + static_cast<std::ptrdiff_t>(q * counts.size()),
        rows.begin() + static_cast<std::ptrdiff_t>((q + 1) * counts.size()));
    const exp::series dl_avg = exp::column(slice, "dl_avg");
    const exp::series ds_avg = exp::column(slice, "ds_avg");
    exp::print_columns(
        std::cout,
        std::string("Fig 8(d): average multicast throughput (Kbps) vs "
                    "#sessions, with n TCP + on-off CBR [qdisc=") +
            sim::qdisc_name(qdiscs[q]) + "]",
        {"FLID-DL", "FLID-DS"}, {dl_avg, ds_avg});
    for (std::size_t i = 0; i < dl_avg.size(); ++i) {
      const double gap = std::abs(dl_avg[i].second - ds_avg[i].second) /
                         std::max(dl_avg[i].second, 1.0);
      worst_gap = std::max(worst_gap, gap);
    }
  }
  exp::print_check(std::cout, "max relative DL-vs-DS average gap",
                   "small (curves overlap)", worst_gap, "fraction");
  exp::write_outputs(flags, "fig08d_average_with_cross", rows, opts);
  return 0;
}
