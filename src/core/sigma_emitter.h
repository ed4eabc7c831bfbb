// Sender-side SIGMA: packs each slot's key tuples into FEC-protected special
// packets (router-alert) multicast on the session's minimal group, spread
// across the slot (paper section 3.2.1). Expansion factor z = (k + m) / k;
// the paper's evaluation overcomes 50% packet loss, i.e. z = 2.
#ifndef MCC_CORE_SIGMA_EMITTER_H
#define MCC_CORE_SIGMA_EMITTER_H

#include <cstdint>
#include <vector>

#include "core/delta_layered.h"
#include "core/sigma_wire.h"
#include "crypto/rs_code.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace mcc::core {

struct sigma_emitter_config {
  int data_shards = 4;    // k
  int parity_shards = 4;  // m (k + m = z * k; defaults give z = 2)
  int ctrl_header_bytes = 40;
  int slot_number_bits = 8;  // l in the overhead model
};

class sigma_ctrl_emitter {
 public:
  sigma_ctrl_emitter(sim::network& net, sim::node_id sender_host,
                     std::vector<sim::group_addr> groups,
                     sim::time_ns slot_duration, int key_bits,
                     const sigma_emitter_config& cfg = {});

  /// Registers this emitter as the DELTA sender's per-slot key consumer.
  void attach(delta_layered_sender& delta);

  /// Emits the special packets for one slot's key set (callable directly in
  /// tests).
  void emit(const delta_slot_keys& keys, std::int64_t current_slot);

  /// Protocol-agnostic entry point: FEC-codes and transmits an arbitrary
  /// address-key tuple block (used by the threshold protocol, whose tuples
  /// carry top keys only). SIGMA itself never cares which congestion control
  /// protocol produced the block (Requirement 3).
  void emit_block(const sigma_key_block& block, std::int64_t current_slot);

  [[nodiscard]] double expansion_factor() const {
    return code_.expansion_factor();
  }
  [[nodiscard]] const sigma_emitter_config& config() const { return cfg_; }

  struct counters {
    std::uint64_t ctrl_packets = 0;
    std::int64_t ctrl_bytes = 0;     // total on-wire bytes incl. headers
    std::int64_t payload_bytes = 0;  // pre-FEC serialized tuple bytes
    std::int64_t header_bytes = 0;   // header bytes only (h measurement)
    std::uint64_t slots = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  sim::network& net_;
  sim::node_id host_;
  std::vector<sim::group_addr> groups_;
  sim::time_ns slot_duration_;
  int key_bits_;
  sigma_emitter_config cfg_;
  crypto::rs_code code_;
  counters stats_;
  /// The last block's special packets, sent by series_ one by one.
  std::vector<sim::packet> packets_;
  sim::event_series series_;
};

}  // namespace mcc::core

#endif  // MCC_CORE_SIGMA_EMITTER_H
