#include "core/delta_threshold.h"

#include <cmath>

#include "core/delta_layered.h"  // key_lead_slots, key_history_slots
#include "util/require.h"

namespace mcc::core {

threshold_config threshold_config::uniform(int levels, double threshold,
                                           int key_bits) {
  threshold_config cfg;
  cfg.num_levels = levels;
  cfg.key_bits = key_bits;
  cfg.loss_threshold.assign(static_cast<std::size_t>(levels) + 1, threshold);
  return cfg;
}

threshold_config threshold_config::decaying(int levels, double base,
                                            double decay, int key_bits) {
  threshold_config cfg;
  cfg.num_levels = levels;
  cfg.key_bits = key_bits;
  cfg.loss_threshold.assign(static_cast<std::size_t>(levels) + 1, 0.0);
  for (int g = 1; g <= levels; ++g) {
    cfg.loss_threshold[static_cast<std::size_t>(g)] =
        base * std::pow(decay, g - 1);
  }
  return cfg;
}

int shares_required(double loss_threshold, int packets_in_slot) {
  util::require(packets_in_slot >= 1, "shares_required: empty slot");
  util::require(loss_threshold >= 0.0 && loss_threshold < 1.0,
                "shares_required: threshold must be in [0, 1)");
  const int k = static_cast<int>(
      std::ceil((1.0 - loss_threshold) * packets_in_slot));
  return std::min(std::max(k, 1), packets_in_slot);
}

delta_threshold_sender::delta_threshold_sender(const threshold_config& cfg,
                                               std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  util::require(cfg_.num_levels >= 1, "delta_threshold_sender: no levels");
  util::require(
      cfg_.loss_threshold.size() ==
          static_cast<std::size_t>(cfg_.num_levels) + 1,
      "delta_threshold_sender: threshold vector must have num_levels+1 slots");
  shares_.assign(static_cast<std::size_t>(cfg_.num_levels) + 1, {});
  thresholds_k_.assign(static_cast<std::size_t>(cfg_.num_levels) + 1, 1);
}

void delta_threshold_sender::begin_slot(
    std::int64_t slot, const std::vector<int>& packets_per_level) {
  util::require(packets_per_level.size() >
                    static_cast<std::size_t>(cfg_.num_levels),
                "delta_threshold_sender: packet count vector too short");
  current_slot_ = slot;
  std::vector<crypto::group_key> keys(
      static_cast<std::size_t>(cfg_.num_levels) + 1, crypto::zero_key);
  for (int level = 1; level <= cfg_.num_levels; ++level) {
    const auto li = static_cast<std::size_t>(level);
    const int n = packets_per_level[li];
    util::require(n >= 1, "delta_threshold_sender: level with no packets");
    const int k = shares_required(cfg_.loss_threshold[li], n);
    thresholds_k_[li] = k;
    const crypto::group_key key =
        crypto::mask_to_bits(crypto::group_key{rng_.next()}, cfg_.key_bits);
    keys[li] = key;
    shares_[li] = crypto::shamir_split_key(key, k, n, rng_);
  }
  keys_.drop_below(slot + key_lead_slots - key_history_slots);
  keys_[slot + key_lead_slots] = std::move(keys);
}

crypto::shamir_share delta_threshold_sender::share_for(int level,
                                                       int packet_index) const {
  util::require(level >= 1 && level <= cfg_.num_levels,
                "delta_threshold_sender: bad level");
  const auto& s = shares_[static_cast<std::size_t>(level)];
  util::require(packet_index >= 0 &&
                    packet_index < static_cast<int>(s.size()),
                "delta_threshold_sender: bad packet index");
  return s[static_cast<std::size_t>(packet_index)];
}

std::optional<crypto::group_key> delta_threshold_sender::key_for(
    std::int64_t target_slot, int level) const {
  const auto* keys = keys_.find(target_slot);
  if (keys == nullptr) return std::nullopt;
  if (level < 1 || level > cfg_.num_levels) return std::nullopt;
  return (*keys)[static_cast<std::size_t>(level)];
}

std::optional<crypto::group_key> reconstruct_threshold_key(
    std::span<const crypto::shamir_share> collected, int k) {
  if (static_cast<int>(collected.size()) < k) return std::nullopt;
  // Any k shares determine the polynomial; use the first k.
  return crypto::shamir_reconstruct_key(collected.subspan(0, static_cast<std::size_t>(k)));
}

}  // namespace mcc::core
