// Replicated multicast (destination-set grouping) over plain IGMP.
//
// The session offers the same content in N groups at increasing rates; a
// receiver subscribes to exactly one group and switches down/up as its path
// dictates. This example runs the replicated protocol in the simulator
// (flid_sender and flid_receiver with the honest plain strategy, both
// configured with session_structure::replicated). DELTA and SIGMA protect
// cumulative sessions only: the paper's replicated key algebra (Figure 5) is
// not implemented, and make_flid_ds_sender refuses a replicated session.
#include <cstdio>
#include <memory>

#include "exp/testbed.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "mcast/igmp.h"

using namespace mcc;

int main() {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 400e3;
  cfg.seed = 99;
  exp::testbed net(exp::dumbbell(cfg));

  flid::flid_config fc;
  fc.session_id = 601;
  fc.structure = flid::session_structure::replicated;
  fc.group_addr_base = 60'000;
  fc.num_groups = 6;
  fc.base_rate_bps = 100e3;
  fc.rate_multiplier = 1.4;
  fc.slot_duration = sim::milliseconds(500);

  const sim::node_id src = net.attach_host("rep_src", "l");
  flid::flid_sender sender(net.net(), src, fc, cfg.seed);
  sender.start(0);

  const sim::node_id dst = net.attach_host("rep_rcv", "r");
  flid::flid_receiver receiver(net.net(), dst, net.router("r"), fc,
                               std::make_unique<flid::honest_plain_strategy>());
  receiver.start(0);

  net.run_until(sim::seconds(60.0));
  std::printf("replicated session: %d groups, rates", fc.num_groups);
  for (int g = 1; g <= fc.num_groups; ++g) {
    std::printf(" %.0fK", fc.cumulative_rate_bps(g) / 1e3);
  }
  std::printf("\nbottleneck 400 Kbps -> receiver settled in group %d "
              "(%.0f Kbps content rate), goodput %.0f Kbps\n",
              receiver.level(),
              fc.cumulative_rate_bps(receiver.level()) / 1e3,
              receiver.monitor().average_kbps(sim::seconds(30.0),
                                              sim::seconds(60.0)));
  return 0;
}
