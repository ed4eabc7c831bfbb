#include "core/delta_layered.h"

#include "util/require.h"

namespace mcc::core {

delta_layered_sender::delta_layered_sender(int session_id, int num_groups,
                                           int key_bits, std::uint64_t seed)
    : session_id_(session_id),
      num_groups_(num_groups),
      key_bits_(key_bits),
      rng_(seed) {
  util::require(num_groups_ >= 1, "delta_layered_sender: need >= 1 group");
  util::require(key_bits_ == 16 || key_bits_ == 32 || key_bits_ == 64,
                "delta_layered_sender: key_bits must be 16, 32, or 64");
  acc_.assign(static_cast<std::size_t>(num_groups_) + 1, crypto::zero_key);
  decrease_field_.assign(static_cast<std::size_t>(num_groups_) + 1,
                         crypto::zero_key);
}

crypto::group_key delta_layered_sender::nonce() {
  return crypto::mask_to_bits(crypto::group_key{rng_.next()}, key_bits_);
}

void delta_layered_sender::begin_slot(std::int64_t slot,
                                      std::uint32_t auth_mask,
                                      const std::vector<int>&) {
  current_slot_ = slot;
  const auto n = static_cast<std::size_t>(num_groups_);

  // Precomputation phase of Figure 4.
  delta_slot_keys keys;
  keys.session_id = session_id_;
  keys.target_slot = slot + key_lead_slots;
  keys.top.assign(n + 1, crypto::zero_key);
  keys.decrease.assign(n + 1, crypto::zero_key);
  keys.increase.assign(n + 1, std::nullopt);

  // C_g <- nonce; tau_1 = C_1; tau_g = tau_{g-1} XOR C_g.
  for (std::size_t g = 1; g <= n; ++g) acc_[g] = nonce();
  keys.top[1] = acc_[1];
  for (std::size_t g = 2; g <= n; ++g) keys.top[g] = keys.top[g - 1] ^ acc_[g];

  // delta_{g-1} <- nonce; d_g <- delta_{g-1}   (carried by group g packets).
  for (std::size_t g = 2; g <= n; ++g) {
    keys.decrease[g - 1] = nonce();
    decrease_field_[g] = keys.decrease[g - 1];
  }

  // iota_g <- tau_{g-1} when the protocol authorizes an upgrade to g.
  for (std::size_t g = 2; g <= n; ++g) {
    if (auth_mask & (1u << g)) keys.increase[g] = keys.top[g - 1];
  }

  recent_.drop_below(keys.target_slot - key_history_slots);
  delta_slot_keys& kept = recent_[keys.target_slot] = std::move(keys);
  if (on_keys_) on_keys_(kept, slot);
}

void delta_layered_sender::fill_fields(std::int64_t slot, int group, int,
                                       bool last_in_slot,
                                       sim::flid_data& hdr) {
  util::require(slot == current_slot_,
                "delta_layered_sender: packet outside current slot");
  const auto g = static_cast<std::size_t>(group);
  // Real-time phase of Figure 4: fresh nonce per packet, folded into C_g;
  // the last packet carries the accumulator so the XOR of all component
  // fields of the slot equals the precomputed C_g.
  if (!last_in_slot) {
    const crypto::group_key c = nonce();
    acc_[g] ^= c;
    hdr.component = c;
  } else {
    hdr.component = acc_[g];
  }
  if (group >= 2) hdr.decrease = decrease_field_[g];
}

const delta_slot_keys* delta_layered_sender::keys_for(
    std::int64_t target_slot) const {
  return recent_.find(target_slot);
}

// ---------------------------------------------------------------------------
// Receiver (Figure 4, right column)
// ---------------------------------------------------------------------------

delta_reconstruction delta_layered_receiver::reconstruct(
    const flid::slot_summary& s) const {
  delta_reconstruction out;
  const int level = s.level;
  if (level == 0) return out;  // nothing received over a full slot

  const auto rec = [&](int g) -> const flid::group_slot_record& {
    return s.groups[static_cast<std::size_t>(g)];
  };

  // u_{j-1} <- decrease field from R_j (available with >= 1 packet of group j).
  std::vector<std::optional<crypto::group_key>> u(
      static_cast<std::size_t>(num_groups_) + 2, std::nullopt);
  for (int j = 2; j <= level; ++j) {
    if (rec(j).received > 0 && rec(j).decrease.has_value()) {
      u[static_cast<std::size_t>(j - 1)] = rec(j).decrease;
    }
  }

  const auto complete_prefix = [&](int upto) {
    for (int g = 1; g <= upto; ++g) {
      if (!rec(g).complete()) return false;
    }
    return true;
  };
  // XOR of all component fields of groups 1..upto (Equation 3 / 5).
  const auto xor_components = [&](int upto) {
    crypto::group_key k = crypto::zero_key;
    for (int g = 1; g <= upto; ++g) k ^= rec(g).xor_components;
    return k;
  };

  if (!s.congested) {
    // Uncongested: tau_level from own components; lower groups via decrease
    // keys (all present because reception was loss-free).
    const crypto::group_key tau = xor_components(level);
    for (int j = 1; j <= level - 1; ++j) {
      out.keys.emplace_back(j, *u[static_cast<std::size_t>(j)]);
    }
    out.keys.emplace_back(level, tau);
    if (level < num_groups_ && s.upgrade_authorized(level + 1)) {
      // iota_{level+1} = tau_level: reuse the top key for the next group.
      out.keys.emplace_back(level + 1, tau);
      out.next_level = level + 1;
    } else {
      out.next_level = level;
    }
    return out;
  }

  // Congested. Contradiction resolution of section 3.1.1: if the only losses
  // are in group `level`, and the protocol authorizes an upgrade *to* level,
  // the receiver may retain level via iota_level = tau_{level-1} (which is
  // simultaneously the top key of group level-1).
  if (level >= 2 && s.upgrade_authorized(level) && complete_prefix(level - 1)) {
    const crypto::group_key tau_below = xor_components(level - 1);
    for (int j = 1; j <= level - 2; ++j) {
      out.keys.emplace_back(j, *u[static_cast<std::size_t>(j)]);
    }
    out.keys.emplace_back(level - 1, tau_below);  // tau_{level-1}
    out.keys.emplace_back(level, tau_below);      // iota_level, same value
    out.next_level = level;
    out.retained_via_increase = true;
    return out;
  }

  // Plain decrease: keys delta_1..delta_{level-1} from decrease fields; a
  // group that lost all its packets breaks the chain and forces a deeper
  // reduction (section 3.1.1).
  int n = 0;
  for (int j = 1; j <= level - 1; ++j) {
    if (!u[static_cast<std::size_t>(j)].has_value()) break;
    n = j;
  }
  out.next_level = n;
  for (int j = 1; j <= n; ++j) {
    out.keys.emplace_back(j, *u[static_cast<std::size_t>(j)]);
  }
  return out;
}

}  // namespace mcc::core
