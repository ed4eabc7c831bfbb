// Replicated multicast (destination-set-grouping style, paper section 3.1.2
// "Session structure"): each group of the session carries the same content at
// a different rate; a receiver subscribes to exactly one group, switching
// down on congestion and up on authorization.
//
// The sender is flid_sender with flid_config::structure = replicated: same
// slot structure and wire header, but group g transmits at
// cumulative_rate(g), since each group carries the full content at quality
// level g. The subscription level g means "member of group g only" instead
// of "member of groups 1..g".
#ifndef MCC_FLID_REPLICATED_H
#define MCC_FLID_REPLICATED_H

#include <cstdint>
#include <optional>

#include "crypto/key.h"
#include "flid/flid_config.h"
#include "mcast/igmp.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/slot_window.h"
#include "sim/stats.h"

namespace mcc::flid {

/// Honest receiver for the replicated protocol over plain IGMP: one group at
/// a time; down on a lossy slot, up on authorization.
class replicated_receiver : public sim::agent {
 public:
  replicated_receiver(sim::network& net, sim::node_id host,
                      sim::node_id edge_router, const flid_config& cfg);
  ~replicated_receiver() override;

  void start(sim::time_ns at);
  bool handle_packet(const sim::packet& p, sim::link* arrival) override;

  [[nodiscard]] int current_group() const { return group_; }
  [[nodiscard]] sim::throughput_monitor& monitor() { return monitor_; }

  /// Record of one slot for the current group (the input of the replicated
  /// DELTA receiver's key reconstruction).
  struct slot_record {
    int received = 0;
    int expected = -1;
    crypto::group_key xor_components{};
    std::optional<crypto::group_key> decrease;
    std::uint32_t auth_mask = 0;
  };

 private:
  void evaluate_slot(std::int64_t slot);

  sim::network& net_;
  sim::node_id host_;
  flid_config cfg_;
  mcast::membership_client membership_;
  sim::throughput_monitor monitor_;
  int group_ = 0;  // current (only) subscribed group
  sim::time_ns join_time_ = -1;
  sim::slot_window<slot_record> records_;  // slots not yet evaluated
};

}  // namespace mcc::flid

#endif  // MCC_FLID_REPLICATED_H
