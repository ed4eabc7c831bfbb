#include "core/delta_replicated.h"

#include "core/delta_layered.h"  // key_lead_slots, key_history_slots
#include "util/require.h"

namespace mcc::core {

delta_replicated_sender::delta_replicated_sender(int session_id,
                                                 int num_groups, int key_bits,
                                                 std::uint64_t seed)
    : session_id_(session_id),
      num_groups_(num_groups),
      key_bits_(key_bits),
      rng_(seed) {
  util::require(num_groups_ >= 1, "delta_replicated_sender: need >= 1 group");
  acc_.assign(static_cast<std::size_t>(num_groups_) + 1, crypto::zero_key);
  decrease_field_.assign(static_cast<std::size_t>(num_groups_) + 1,
                         crypto::zero_key);
}

crypto::group_key delta_replicated_sender::nonce() {
  return crypto::mask_to_bits(crypto::group_key{rng_.next()}, key_bits_);
}

void delta_replicated_sender::begin_slot(std::int64_t slot,
                                         std::uint32_t auth_mask,
                                         const std::vector<int>&) {
  current_slot_ = slot;
  const auto n = static_cast<std::size_t>(num_groups_);

  replicated_slot_keys keys;
  keys.session_id = session_id_;
  keys.target_slot = slot + key_lead_slots;
  keys.top.assign(n + 1, crypto::zero_key);
  keys.decrease.assign(n + 1, crypto::zero_key);
  keys.increase.assign(n + 1, std::nullopt);

  // Figure 5 precomputation: per-group accumulators, per-group decrease
  // nonces, iota_g = tau_{g-1} on authorization.
  for (std::size_t g = 1; g <= n; ++g) {
    acc_[g] = nonce();
    keys.top[g] = acc_[g];
  }
  for (std::size_t g = 2; g <= n; ++g) {
    keys.decrease[g - 1] = nonce();
    decrease_field_[g] = keys.decrease[g - 1];
    if (auth_mask & (1u << g)) keys.increase[g] = keys.top[g - 1];
  }

  recent_.drop_below(keys.target_slot - key_history_slots);
  recent_[keys.target_slot] = std::move(keys);
}

void delta_replicated_sender::fill_fields(std::int64_t slot, int group, int,
                                          bool last_in_slot,
                                          sim::flid_data& hdr) {
  util::require(slot == current_slot_,
                "delta_replicated_sender: packet outside current slot");
  const auto g = static_cast<std::size_t>(group);
  if (!last_in_slot) {
    const crypto::group_key c = nonce();
    acc_[g] ^= c;
    hdr.component = c;
  } else {
    hdr.component = acc_[g];
  }
  if (group >= 2) hdr.decrease = decrease_field_[g];
}

const replicated_slot_keys* delta_replicated_sender::keys_for(
    std::int64_t target_slot) const {
  return recent_.find(target_slot);
}

replicated_reconstruction reconstruct_replicated(
    const flid::replicated_receiver::slot_record& rec, int current_group,
    int num_groups) {
  replicated_reconstruction out;
  const bool congested = rec.expected < 0 || rec.received < rec.expected;
  if (congested) {
    // Figure 5: u_{g-1} <- decrease field from R_g; n <- g - 1 (null at g=1).
    if (current_group <= 1 || !rec.decrease.has_value()) {
      out.next_group = 0;
      return out;
    }
    out.next_group = current_group - 1;
    out.key = rec.decrease;
    return out;
  }
  // Uncongested: u_g = XOR of component fields of the current group.
  const crypto::group_key tau = rec.xor_components;
  if (current_group < num_groups &&
      (rec.auth_mask & (1u << (current_group + 1)))) {
    // u_{g+1} <- u_g: iota_{g+1} equals tau_g.
    out.next_group = current_group + 1;
  } else {
    out.next_group = current_group;
  }
  out.key = tau;
  return out;
}

}  // namespace mcc::core
