// TLM — threshold layered multicast: an RLM/WEBRC-style protocol protected
// by the threshold DELTA instantiation (paper section 3.1.2, "Congested
// state"), running over the same SIGMA infrastructure as FLID-DS.
//
// RLM, MLDA and WEBRC consider a receiver of subscription level g congested
// only when its loss rate over the slot exceeds the level's threshold (RLM
// default 0.25; MLDA/WEBRC-style configs lower the threshold per level).
// DELTA enforces the rule cryptographically: the key for level g is
// Shamir-shared across all n_g packets transmitted to the level (groups
// 1..g) with reconstruction threshold k_g = ceil((1 - threshold_g) * n_g); a
// receiver above the tolerated loss rate simply lacks the shares, and any
// k_g of them give the exact key.
//
// As the paper notes, Shamir's scheme does not allow reusing lower-level
// components in cumulative sessions, so the key of level g covers the whole
// level and a packet of group j carries one share for EVERY level j..N — a
// real per-packet cost (see ablation_threshold_overhead). Designing
// reuse-friendly threshold schemes is the paper's open problem.
//
// Upgrades (rule 3 of section 3.1) use an increase key derived one-way from
// the level below: iota_{g+1} = H(kappa_g), computable by any receiver that
// proved level g, invertible by nobody.
//
// Edge routers are untouched: tuples carry top and increase keys that SIGMA
// validates exactly as it does FLID-DS keys (Requirement 3).
#ifndef MCC_CORE_TLM_H
#define MCC_CORE_TLM_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/flid_ds.h"
#include "core/sigma_emitter.h"
#include "crypto/prng.h"
#include "crypto/shamir.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "sim/slot_window.h"

namespace mcc::core {

struct threshold_config {
  int num_levels = 10;
  /// Loss-rate threshold per level, index 1..num_levels. RLM's default is
  /// 0.25 for every level; MLDA/WEBRC lower it for higher levels.
  std::vector<double> loss_threshold;
  int key_bits = 16;

  /// RLM-style uniform thresholds.
  static threshold_config uniform(int levels, double threshold,
                                  int key_bits = 16);
  /// WEBRC-style decaying thresholds: threshold_g = base * decay^(g-1).
  static threshold_config decaying(int levels, double base, double decay,
                                   int key_bits = 16);
};

/// Reconstruction threshold k for a level with n packets in the slot:
/// k = ceil((1 - threshold) * n), clamped to [1, n].
[[nodiscard]] int shares_required(double loss_threshold, int packets_in_slot);

/// Receiver side: reconstructs the level key from the collected shares.
/// Returns nullopt when fewer than `k` shares are available; with k or more
/// (any subset) it returns the exact key.
[[nodiscard]] std::optional<crypto::group_key> reconstruct_threshold_key(
    std::span<const crypto::shamir_share> collected, int k);

/// Sender-side hook: plugs into flid_sender like the layered DELTA hook, but
/// fills per-packet Shamir shares instead of XOR components.
class tlm_delta_sender : public flid::delta_sender_hook {
 public:
  tlm_delta_sender(int session_id, const threshold_config& cfg,
                   std::vector<sim::group_addr> groups,
                   sim::time_ns slot_duration, std::uint64_t seed);

  /// Key tuples (top keys only) go to edge routers through this emitter.
  void set_emitter(sigma_ctrl_emitter* emitter) { emitter_ = emitter; }

  void begin_slot(std::int64_t slot, std::uint32_t auth_mask,
                  const std::vector<int>& packets_per_group) override;
  void fill_fields(std::int64_t slot, int group, int seq_in_slot,
                   bool last_in_slot, sim::flid_data& hdr) override;

  /// The key guarding level `g` during `target_slot` (for tests).
  [[nodiscard]] std::optional<crypto::group_key> key_for(
      std::int64_t target_slot, int level) const;
  /// Reconstruction threshold k_g of the current slot.
  [[nodiscard]] int threshold_for(int level) const {
    return k_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const threshold_config& config() const { return cfg_; }

 private:
  [[nodiscard]] crypto::group_key nonce();

  int session_id_;
  threshold_config cfg_;
  std::vector<sim::group_addr> groups_;
  sim::time_ns slot_duration_;
  crypto::prng rng_;
  sigma_ctrl_emitter* emitter_ = nullptr;

  std::int64_t current_slot_ = -1;
  // Per-level state for the current slot: group-major packet index offsets,
  // sharing polynomials, thresholds.
  std::vector<std::int64_t> offset_;  // offset_[j] = packets of groups < j
  std::vector<std::optional<crypto::shamir_poly>> poly_;  // per level
  std::vector<int> k_;                                    // per level
  sim::slot_window<std::vector<crypto::group_key>> keys_;  // by target slot
};

/// Honest TLM receiver strategy: per slot, determine the highest level whose
/// key is reconstructible from the collected shares (the cryptographic image
/// of the loss-rate rule), subscribe for slot s+2 with those keys, and probe
/// upward through SIGMA's new-group grace when authorized.
class tlm_sigma_strategy : public honest_sigma_strategy {
 public:
  explicit tlm_sigma_strategy(threshold_config cfg) : cfg_(std::move(cfg)) {}

  struct tlm_counters {
    std::uint64_t levels_reconstructed = 0;
    std::uint64_t levels_denied_by_threshold = 0;
  };
  [[nodiscard]] const tlm_counters& tlm_stats() const { return tlm_stats_; }

 protected:
  slot_decision decide(const flid::flid_receiver& r,
                       const flid::slot_summary& s,
                       const slot_feedback& fb) override;

 private:
  threshold_config cfg_;
  tlm_counters tlm_stats_;
};

/// Bundle mirroring make_flid_ds_sender for the threshold protocol.
struct tlm_sender_bundle {
  std::unique_ptr<tlm_delta_sender> delta;
  std::unique_ptr<sigma_ctrl_emitter> emitter;
};

/// Wires threshold DELTA + SIGMA onto a flid_sender (before start()). The
/// session must be cumulative, as for make_flid_ds_sender: level g's key is
/// shared over the packets of groups 1..g.
[[nodiscard]] tlm_sender_bundle make_tlm_sender(
    sim::network& net, sim::node_id sender_host, flid::flid_sender& sender,
    const threshold_config& thresholds, std::uint64_t seed,
    const sigma_emitter_config& emitter_cfg = {});

}  // namespace mcc::core

#endif  // MCC_CORE_TLM_H
