// DELTA instantiation for cumulative layered multicast protocols that define
// congestion as a single packet loss (FLID-DL, RLC) — paper section 3.1.1,
// Figures 3 and 4.
//
// Per slot, each group g is guarded by up to three keys, any of which opens
// the group at the edge router:
//   top key       tau_g   = XOR of all component fields of groups 1..g
//   decrease key  delta_g = nonce carried in the decrease field of group g+1
//   increase key  iota_g  = tau_{g-1}, defined when the protocol authorizes
//                           an upgrade to group g this slot
// so that (1) only an uncongested receiver of g groups reconstructs tau_g,
// (2) a congested receiver of g groups obtains keys for its lower g-1 groups
// from decrease fields, and (3) an authorized uncongested receiver of g
// groups obtains the key for group g+1 from its own components.
//
// Keys harvested from slot-s packets control access during slot s+2
// (Figure 2); the sender precomputes keys at slot start and generates
// component fields in real time, so transmission patterns are unchanged.
#ifndef MCC_CORE_DELTA_LAYERED_H
#define MCC_CORE_DELTA_LAYERED_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "crypto/key.h"
#include "crypto/prng.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "sim/slot_window.h"

namespace mcc::core {

/// How many future slots ahead keys distributed now become valid (Figure 2:
/// keys from slot s guard slot s + 2).
inline constexpr std::int64_t key_lead_slots = 2;

/// Slots of key history kept below the newest slot known (router key store,
/// sender key sets, collusion pool): older keys can never validate again.
inline constexpr std::int64_t key_history_slots = 8;

/// The key set guarding one future slot.
struct delta_slot_keys {
  int session_id = 0;
  std::int64_t target_slot = 0;
  std::vector<crypto::group_key> top;       // index 1..N, tau_g
  std::vector<crypto::group_key> decrease;  // index 1..N-1 meaningful
  std::vector<std::optional<crypto::group_key>> increase;  // index 2..N
  [[nodiscard]] int num_groups() const {
    return static_cast<int>(top.size()) - 1;
  }
};

/// Sender side: plugs into flid_sender as the delta_sender_hook and emits
/// per-slot key sets to SIGMA via a callback.
class delta_layered_sender : public flid::delta_sender_hook {
 public:
  delta_layered_sender(int session_id, int num_groups, int key_bits,
                       std::uint64_t seed);

  using keys_callback =
      std::function<void(const delta_slot_keys&, std::int64_t current_slot)>;
  /// SIGMA's control-packet emitter registers here; called once per slot.
  void set_keys_callback(keys_callback cb) { on_keys_ = std::move(cb); }

  void begin_slot(std::int64_t slot, std::uint32_t auth_mask,
                  const std::vector<int>& packets_per_group) override;
  void fill_fields(std::int64_t slot, int group, int seq_in_slot,
                   bool last_in_slot, sim::flid_data& hdr) override;

  /// Keys valid for access during `target_slot` (retained for a small
  /// window; used by SIGMA tests and the router in unit tests).
  [[nodiscard]] const delta_slot_keys* keys_for(std::int64_t target_slot) const;

  [[nodiscard]] int key_bits() const { return key_bits_; }

 private:
  [[nodiscard]] crypto::group_key nonce();

  int session_id_;
  int num_groups_;
  int key_bits_;
  crypto::prng rng_;
  keys_callback on_keys_;

  std::int64_t current_slot_ = -1;
  // Running XOR accumulators C_g for the current slot (Figure 4 real-time
  // phase); index 1..N.
  std::vector<crypto::group_key> acc_;
  // Decrease field value d_g for the current slot; index 2..N.
  std::vector<crypto::group_key> decrease_field_;
  sim::slot_window<delta_slot_keys> recent_;  // by target slot
};

/// Result of the receiver algorithm of Figure 4 for one slot.
struct delta_reconstruction {
  /// Next top group n (0 = no keys reconstructible; the receiver must
  /// re-enter through SIGMA's session-join).
  int next_level = 0;
  /// (group index, key) pairs the receiver can prove for groups 1..n.
  std::vector<std::pair<int, crypto::group_key>> keys;
  /// Congested, but group `level` retained via its increase key (the
  /// contradiction resolution of section 3.1.1).
  bool retained_via_increase = false;
};

/// Receiver side: a pure function of the per-slot reception records kept by
/// flid_receiver.
class delta_layered_receiver {
 public:
  explicit delta_layered_receiver(int num_groups) : num_groups_(num_groups) {}

  [[nodiscard]] delta_reconstruction reconstruct(
      const flid::slot_summary& s) const;

 private:
  int num_groups_;
};

}  // namespace mcc::core

#endif  // MCC_CORE_DELTA_LAYERED_H
