// DELTA instantiation for replicated multicast protocols (paper Figure 5 and
// section 3.1.2 "Session structure"): each subscription level is a single
// group carrying the same content at a different rate, so the keys are
// per-group rather than cumulative:
//   top key       tau_g   = XOR of the component fields of group g only
//   decrease key  delta_g = nonce in the decrease field of group g+1 packets
//   increase key  iota_g  = tau_{g-1} (XOR of group g-1's components) when an
//                           upgrade to g is authorized
#ifndef MCC_CORE_DELTA_REPLICATED_H
#define MCC_CORE_DELTA_REPLICATED_H

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/key.h"
#include "crypto/prng.h"
#include "flid/flid_sender.h"
#include "flid/replicated.h"
#include "sim/slot_window.h"

namespace mcc::core {

/// Key set for one future slot of a replicated session (indices 1..N).
struct replicated_slot_keys {
  int session_id = 0;
  std::int64_t target_slot = 0;
  std::vector<crypto::group_key> top;
  std::vector<crypto::group_key> decrease;  // delta_g, 1..N-1
  std::vector<std::optional<crypto::group_key>> increase;  // iota_g, 2..N
};

class delta_replicated_sender : public flid::delta_sender_hook {
 public:
  delta_replicated_sender(int session_id, int num_groups, int key_bits,
                          std::uint64_t seed);

  void begin_slot(std::int64_t slot, std::uint32_t auth_mask,
                  const std::vector<int>& packets_per_group) override;
  void fill_fields(std::int64_t slot, int group, int seq_in_slot,
                   bool last_in_slot, sim::flid_data& hdr) override;

  [[nodiscard]] const replicated_slot_keys* keys_for(
      std::int64_t target_slot) const;

 private:
  [[nodiscard]] crypto::group_key nonce();

  int session_id_;
  int num_groups_;
  int key_bits_;
  crypto::prng rng_;
  std::int64_t current_slot_ = -1;
  std::vector<crypto::group_key> acc_;             // C_g accumulators
  std::vector<crypto::group_key> decrease_field_;  // d_g per group
  sim::slot_window<replicated_slot_keys> recent_;  // by target slot
};

/// Receiver algorithm of Figure 5 as a pure function of one slot's record.
struct replicated_reconstruction {
  int next_group = 0;  // 0 = no keys (receiver must re-enter the session)
  std::optional<crypto::group_key> key;  // key for next_group
};

[[nodiscard]] replicated_reconstruction reconstruct_replicated(
    const flid::replicated_receiver::slot_record& rec, int current_group,
    int num_groups);

}  // namespace mcc::core

#endif  // MCC_CORE_DELTA_REPLICATED_H
