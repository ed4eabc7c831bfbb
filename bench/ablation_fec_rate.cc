// Ablation: SIGMA control-channel FEC expansion.
//
// Key tuple blocks cross the (congested) distribution tree in special
// packets. We sweep the FEC expansion z = (k + m) / k under a bottleneck
// kept hot by CBR cross traffic and report the tuple-block decode rate at
// the edge router and the honest receiver's throughput. The paper's choice
// (z = 2, "error correction overcomes 50% packet loss") should decode
// essentially every block; z = 1 (no parity) degrades under loss.
#include <iostream>

#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("FEC-rate ablation for SIGMA control packets");
  flags.add("duration", "120", "seconds per run");
  exp::add_sweep_flags(flags, 41);
  if (!flags.parse(argc, argv)) return 1;
  const double duration = flags.f64("duration");
  const auto opts = exp::sweep_options_from_flags(flags);

  // Grid: parity shard count m at fixed k = 4 (x = m).
  constexpr int k = 4;
  const auto rows = exp::run_sweep(
      {0.0, 2.0, 4.0, 8.0}, opts, [&](const exp::sweep_point& pt) {
        const int m = static_cast<int>(pt.x);
        exp::dumbbell_config cfg;
        cfg.bottleneck_bps = 500e3;
        // Same seed for every FEC configuration: identical cross traffic, so
        // the decode rates are directly comparable (deliberately NOT the
        // per-point seed).
        cfg.seed = opts.base_seed;
        exp::testbed d(exp::dumbbell(cfg));

        // Hand-build the session so we control the emitter's FEC parameters.
        flid::flid_config fc = d.default_flid_config(exp::flid_mode::ds);
        fc.session_id = 90;
        fc.group_addr_base = 40'000;
        const auto src = d.attach_host("fec_src", "l");
        flid::flid_sender sender(d.net(), src, fc, cfg.seed);
        core::sigma_emitter_config em_cfg;
        em_cfg.data_shards = k;
        em_cfg.parity_shards = m;
        auto ds = core::make_flid_ds_sender(d.net(), src, sender, cfg.seed + 1,
                                            em_cfg);
        sender.start(0);

        const auto rcv = d.attach_host("fec_rcv", "r");
        flid::flid_receiver receiver(
            d.net(), rcv, d.router("r"), fc,
            std::make_unique<core::honest_sigma_strategy>());
        receiver.start(0);

        // Aggressive on-off CBR overloads the bottleneck during on-periods
        // so control packets face real loss.
        traffic::cbr_config cbr;
        cbr.rate_bps = 520e3;
        cbr.on_duration = sim::seconds(2.0);
        cbr.off_duration = sim::seconds(1.0);
        d.add_cbr(cbr);
        d.run_until(sim::seconds(duration));

        const auto& rstats = d.sigma().stats();
        const auto& estats = ds.emitter->stats();
        exp::sweep_row row;
        row.value("k", k);
        row.value("m", m);
        row.value("z", ds.emitter->expansion_factor());
        row.value("decode_rate",
                  static_cast<double>(rstats.blocks_decoded) /
                      static_cast<double>(
                          std::max<std::uint64_t>(estats.slots, 1)));
        row.value("honest_kbps",
                  receiver.monitor().average_kbps(
                      sim::seconds(duration * 0.2), sim::seconds(duration)));
        return row;
      });

  std::cout << "# k  m  z  blocks_decoded/slots  honest_kbps\n";
  for (const auto& row : rows) {
    std::printf("%d %d %.2f %.3f %.1f\n", static_cast<int>(row.value_of("k")),
                static_cast<int>(row.value_of("m")), row.value_of("z"),
                row.value_of("decode_rate"), row.value_of("honest_kbps"));
  }
  std::cout << "# expectation: z >= 2 decodes ~every slot's block (the paper's\n"
               "# choice). Below z = 2 more blocks are lost to the loss on the\n"
               "# hot bottleneck; a slot whose block is lost withholds that\n"
               "# slot's authorizations, and the receiver re-enters through\n"
               "# keyless session-join.\n";
  exp::write_outputs(flags, "ablation_fec_rate", rows, opts);
  return 0;
}
