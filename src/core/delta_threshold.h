// DELTA instantiation for threshold-based protocols (paper section 3.1.2,
// "Congested state"): RLM, MLDA, and WEBRC consider a receiver congested only
// when its loss rate exceeds a per-level threshold. The key for subscription
// level g is distributed with Shamir's (k, n) scheme across the n packets of
// the level's slot: a receiver reconstructs the key iff it collected at least
// k = ceil((1 - threshold_g) * n) packets, enforcing the loss-rate rule
// cryptographically.
//
// As the paper notes, Shamir's scheme does not allow reusing lower-level
// components in layered sessions, so the per-level key here covers the whole
// subscription level (the component is placed in every packet of the level);
// designing reuse-friendly threshold schemes is the paper's open problem.
#ifndef MCC_CORE_DELTA_THRESHOLD_H
#define MCC_CORE_DELTA_THRESHOLD_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/key.h"
#include "crypto/prng.h"
#include "crypto/shamir.h"
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

class delta_threshold_sender {
 public:
  delta_threshold_sender(const threshold_config& cfg, std::uint64_t seed);

  /// Draws the per-level keys for slot `slot` (valid at slot + 2) and
  /// prepares one share per packet. packets_per_level is indexed 1..L.
  void begin_slot(std::int64_t slot, const std::vector<int>& packets_per_level);

  /// Share carried by packet `packet_index` (0-based) of `level` in the
  /// current slot.
  [[nodiscard]] crypto::shamir_share share_for(int level,
                                               int packet_index) const;

  /// The key that guards `level` during `target_slot`.
  [[nodiscard]] std::optional<crypto::group_key> key_for(
      std::int64_t target_slot, int level) const;

  [[nodiscard]] int threshold_for(int level) const {
    return thresholds_k_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const threshold_config& config() const { return cfg_; }

 private:
  threshold_config cfg_;
  crypto::prng rng_;
  std::int64_t current_slot_ = -1;
  std::vector<std::vector<crypto::shamir_share>> shares_;  // per level
  std::vector<int> thresholds_k_;                          // per level
  sim::slot_window<std::vector<crypto::group_key>> keys_;  // by target slot
};

/// Receiver side: reconstructs the level key from the collected shares.
/// Returns nullopt when fewer than `k` shares are available; with k or more
/// (any subset) it returns the exact key.
[[nodiscard]] std::optional<crypto::group_key> reconstruct_threshold_key(
    std::span<const crypto::shamir_share> collected, int k);

}  // namespace mcc::core

#endif  // MCC_CORE_DELTA_THRESHOLD_H
