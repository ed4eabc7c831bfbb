// Replicated multicast (destination-set grouping) with the Figure-5 DELTA
// instantiation.
//
// The session offers the same content in N groups at increasing rates; a
// receiver subscribes to exactly one group and switches down/up as its path
// dictates. This example runs the replicated protocol over IGMP in the
// simulator (flid_sender and flid_receiver with the honest plain strategy,
// both configured with session_structure::replicated) and, alongside it,
// walks the Figure-5 key algebra over a receiver's slot summary to show which
// keys a receiver can prove in each state.
#include <cstdio>
#include <memory>

#include "core/delta_layered.h"
#include "exp/testbed.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "mcast/igmp.h"

using namespace mcc;

int main() {
  // --- part 1: the protocol in the network ---------------------------------
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
              "(%.0f Kbps content rate), goodput %.0f Kbps\n\n",
              receiver.level(),
              fc.cumulative_rate_bps(receiver.level()) / 1e3,
              receiver.monitor().average_kbps(sim::seconds(30.0),
                                              sim::seconds(60.0)));

  // --- part 2: the Figure-5 key algebra, step by step -----------------------
  std::printf("Figure-5 DELTA walkthrough (replicated, 4 groups, slot 0):\n");
  core::delta_layered_sender delta(601, 4, 16, 7,
                                  flid::session_structure::replicated);
  std::vector<int> counts = {0, 5, 5, 5, 5};
  delta.begin_slot(0, /*upgrade to group 3 authorized=*/1u << 3, counts);

  // A receiver holding group 2 for the whole slot collects that group's
  // packets; we also build the summary of an unlucky twin that lost packet #2.
  flid::slot_summary rec;
  rec.level = 2;
  rec.auth_mask = 1u << 3;
  rec.groups.resize(5);
  flid::slot_summary lossy = rec;
  const auto collect = [](flid::slot_summary& s, const sim::flid_data& hdr) {
    flid::group_slot_record& held = s.groups[2];
    ++held.received;
    held.expected = 5;
    held.xor_components ^= hdr.component;
    held.decrease = hdr.decrease;  // group 2's own decrease field
  };
  for (int i = 0; i < 5; ++i) {
    sim::flid_data hdr;
    delta.fill_fields(0, 2, i, i == 4, hdr);
    collect(rec, hdr);
    if (i != 2) collect(lossy, hdr);
  }
  const auto keys = delta.keys_for(2);  // keys guarding slot 2
  auto uncongested = core::reconstruct_replicated(rec, 4);
  std::printf("  uncongested in group 2, upgrade to 3 authorized:\n");
  std::printf("    reconstructs key %04llx -> next group %d (tau_2 = iota_3: "
              "%s)\n",
              static_cast<unsigned long long>(uncongested.key->value),
              uncongested.next_group,
              (*uncongested.key == keys->top[2] &&
               keys->increase[3].has_value() &&
               *uncongested.key == *keys->increase[3])
                  ? "one value opens both doors"
                  : "MISMATCH");

  auto congested = core::reconstruct_replicated(lossy, 4);
  std::printf("  congested in group 2 (1 loss):\n");
  std::printf("    falls back to decrease key %04llx -> group %d "
              "(matches delta_1: %s)\n",
              static_cast<unsigned long long>(congested.key->value),
              congested.next_group,
              (*congested.key == keys->decrease[1]) ? "yes" : "NO");
  const crypto::group_key lossy_xor = lossy.groups[2].xor_components;
  std::printf("    the lossy component XOR %04llx does NOT open group 2: %s\n",
              static_cast<unsigned long long>(lossy_xor.value),
              (lossy_xor == keys->top[2]) ? "FAILED" : "correct");
  return 0;
}
