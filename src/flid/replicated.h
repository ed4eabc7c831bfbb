// Replicated multicast (destination-set-grouping style, paper section 3.1.2
// "Session structure"): each group of the session carries the same content at
// a different rate; a receiver subscribes to exactly one group, switching
// down on congestion and up on authorization.
//
// Reuses the FLID slot structure and wire header; the subscription level g
// means "member of group g only" instead of "member of groups 1..g".
#ifndef MCC_FLID_REPLICATED_H
#define MCC_FLID_REPLICATED_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "flid/flid_config.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "mcast/igmp.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/slot_window.h"
#include "sim/stats.h"

namespace mcc::flid {

/// Sender: transmits every group at its own (non-cumulative) rate. Group g
/// transmits at cumulative_rate(g) — in replicated multicast each group's
/// rate is the full session rate at quality level g.
class replicated_sender {
 public:
  replicated_sender(sim::network& net, sim::node_id host,
                    const flid_config& cfg, std::uint64_t seed);

  void start(sim::time_ns at = 0);
  void set_delta_hook(delta_sender_hook* hook) { delta_ = hook; }
  void set_sigma_tagging(bool on) { sigma_tagging_ = on; }
  void set_sigma_protected(bool on) { sigma_protected_ = on; }

  [[nodiscard]] const flid_config& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t auth_mask_for_slot(std::int64_t slot);
  [[nodiscard]] int packets_in_slot(int g, std::int64_t slot) const;

 private:
  void begin_slot(std::int64_t slot);
  void send_packet(std::int64_t slot, int g, int seq, int count,
                   std::uint32_t auth_mask);

  sim::network& net_;
  sim::node_id host_;
  flid_config cfg_;
  delta_sender_hook* delta_ = nullptr;
  bool sigma_tagging_ = false;
  bool sigma_protected_ = false;
  bool started_ = false;
  // The slot being paced out, as in flid_sender.
  std::int64_t slot_ = 0;
  std::uint32_t mask_ = 0;
  std::vector<int> counts_;
  std::vector<paced_send> sends_;
  sim::event_series series_;
};

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
