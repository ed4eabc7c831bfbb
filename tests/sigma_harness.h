// A SIGMA edge router driven by hand: one announced protected session
// (id 5, groups 901..904, 250 ms slots), one receiver host, and helpers that
// build the control shards of a slot's key block and the receiver's raw
// subscription messages, so a test feeds the router exactly what it wants.
#ifndef MCC_TESTS_SIGMA_HARNESS_H
#define MCC_TESTS_SIGMA_HARNESS_H

#include <memory>
#include <utility>
#include <vector>

#include "core/delta_layered.h"
#include "core/sigma_emitter.h"
#include "core/sigma_router.h"
#include "crypto/rs_code.h"
#include "mcast/igmp.h"
#include "sim/network.h"

namespace mcc::testing {

struct sigma_harness {
  static constexpr int session_id = 5;

  sigma_harness() : net(sched) {
    router = net.add_router("edge");
    host = net.add_host("h");
    src = net.add_host("src");
    net.connect(router, host, sim::link_config{});
    net.connect(src, router, sim::link_config{});
    net.finalize_routing();
    igmp = std::make_unique<mcast::igmp_agent>(net, router);
    sigma = std::make_unique<core::sigma_router_agent>(net, router, *igmp);
    iface = net.next_hop(router, host);

    // Announce a protected session so joins/validations resolve.
    sim::session_announcement ann;
    ann.session_id = session_id;
    std::vector<sim::group_addr> groups;
    for (int g = 1; g <= 4; ++g) {
      groups.push_back(group(g));
      net.register_group_source(group(g), src);
    }
    ann.groups = std::move(groups);
    ann.slot_duration = sim::milliseconds(250);
    ann.sigma_protected = true;
    net.announce_session(ann);
  }

  static sim::group_addr group(int g) { return sim::group_addr{900 + g}; }

  /// Starts `slot` on `delta` and builds the k + m control shards of the key
  /// block it emits (target slot + key_lead_slots).
  std::vector<sim::packet> make_shards(core::delta_layered_sender& delta,
                                       std::int64_t slot, int k, int m) {
    std::vector<sim::group_addr> groups;
    for (int g = 1; g <= 4; ++g) groups.push_back(group(g));
    std::vector<int> counts = {0, 3, 3, 3, 3};
    delta.begin_slot(slot, 0, counts);
    const core::delta_slot_keys* keys =
        delta.keys_for(slot + core::key_lead_slots);

    const core::sigma_key_block block =
        core::block_from_keys(*keys, groups, sim::milliseconds(250), 16);
    const auto payload = core::serialize(block);
    const auto data = crypto::split_into_shards(payload, k);
    crypto::rs_code code(k, m);
    const auto codeword = code.encode(data);

    std::vector<sim::packet> out;
    for (int i = 0; i < k + m; ++i) {
      sim::sigma_ctrl hdr;
      hdr.session_id = session_id;
      hdr.emitted_slot = slot;
      hdr.target_slot = slot + core::key_lead_slots;
      hdr.slot_duration = sim::milliseconds(250);
      hdr.shard_index = i;
      hdr.data_shards = k;
      hdr.total_shards = k + m;
      hdr.payload_size = payload.size();
      hdr.shard_bytes = codeword[static_cast<std::size_t>(i)];
      sim::packet p;
      p.size_bytes = 40 + static_cast<int>(hdr.shard_bytes.size());
      p.dst = sim::dest::to_group(groups.front());
      p.router_alert = true;
      p.hdr = std::move(hdr);
      out.push_back(std::move(p));
    }
    return out;
  }

  /// Delivers a control shard as it arrives from `src`, the session source,
  /// first advancing the clock to the start of the slot it was emitted in
  /// (the router refuses shards off the session's slot clock).
  void feed(const sim::packet& p) {
    const auto* hdr = sim::header_as<sim::sigma_ctrl>(p);
    const sim::time_ns emitted = hdr->emitted_slot * hdr->slot_duration;
    if (sched.now() < emitted) sched.run_until(emitted);
    deliver(p);
  }

  /// Delivers a control shard as it arrives from `src`, at the current time.
  void deliver(const sim::packet& p) {
    sigma->handle_packet(p, net.next_hop(src, router));
  }

  /// Starts `slot` on `delta` and feeds the router every data shard of its
  /// key block, so the block for slot + key_lead_slots decodes.
  void decode_slot(core::delta_layered_sender& delta, std::int64_t slot) {
    const auto shards = make_shards(delta, slot, 4, 4);
    for (int i = 0; i < 4; ++i) feed(shards[static_cast<std::size_t>(i)]);
  }

  /// The receiver host's subscription message for `slot`, as it arrives on
  /// the router's host interface.
  void subscribe(
      int session, std::int64_t slot,
      std::vector<std::pair<sim::group_addr, crypto::group_key>> pairs) {
    sim::sigma_subscribe sub;
    sub.session_id = session;
    sub.slot = slot;
    sub.pairs = std::move(pairs);
    sub.msg_id = ++msg_id;
    sim::packet p;
    p.size_bytes = 40;
    p.src = host;
    p.dst = sim::dest::to_node(router);
    p.hdr = std::move(sub);
    sigma->handle_packet(p, iface->reverse());
  }

  sim::scheduler sched;
  sim::network net;
  sim::node_id router, host, src;
  std::unique_ptr<mcast::igmp_agent> igmp;
  std::unique_ptr<core::sigma_router_agent> sigma;
  sim::link* iface = nullptr;  // the router's interface towards `host`
  std::uint64_t msg_id = 0;
};

}  // namespace mcc::testing

#endif  // MCC_TESTS_SIGMA_HARNESS_H
