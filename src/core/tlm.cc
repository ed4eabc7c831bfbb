#include "core/tlm.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/delta_layered.h"  // key_lead_slots, key_history_slots
#include "crypto/oneway.h"

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

std::optional<crypto::group_key> reconstruct_threshold_key(
    std::span<const crypto::shamir_share> collected, int k) {
  if (static_cast<int>(collected.size()) < k) return std::nullopt;
  // Any k shares determine the polynomial; use the first k.
  return crypto::shamir_reconstruct_key(
      collected.subspan(0, static_cast<std::size_t>(k)));
}

tlm_delta_sender::tlm_delta_sender(int session_id, const threshold_config& cfg,
                                   std::vector<sim::group_addr> groups,
                                   sim::time_ns slot_duration,
                                   std::uint64_t seed)
    : session_id_(session_id),
      cfg_(cfg),
      groups_(std::move(groups)),
      slot_duration_(slot_duration),
      rng_(seed) {
  util::require(static_cast<int>(groups_.size()) == cfg_.num_levels,
                "tlm_delta_sender: one group per level required");
  const auto n = static_cast<std::size_t>(cfg_.num_levels);
  offset_.assign(n + 2, 0);
  poly_.assign(n + 1, std::nullopt);
  k_.assign(n + 1, 1);
}

crypto::group_key tlm_delta_sender::nonce() {
  return crypto::mask_to_bits(crypto::group_key{rng_.next()}, cfg_.key_bits);
}

void tlm_delta_sender::begin_slot(std::int64_t slot, std::uint32_t auth_mask,
                                  const std::vector<int>& packets_per_group) {
  current_slot_ = slot;
  const int levels = cfg_.num_levels;

  // Group-major packet enumeration: packets of group j occupy indices
  // offset_[j]+1 .. offset_[j+1]; level g's packet set is exactly 1..n_g.
  offset_[1] = 0;
  for (int j = 1; j <= levels; ++j) {
    offset_[static_cast<std::size_t>(j + 1)] =
        offset_[static_cast<std::size_t>(j)] +
        packets_per_group[static_cast<std::size_t>(j)];
  }

  std::vector<crypto::group_key> keys(static_cast<std::size_t>(levels) + 1,
                                      crypto::zero_key);
  sigma_key_block block;
  block.session_id = session_id_;
  block.target_slot = slot + key_lead_slots;
  block.slot_duration = slot_duration_;
  block.key_bits = cfg_.key_bits;
  for (int g = 1; g <= levels; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const auto n_g = static_cast<int>(offset_[gi + 1]);
    k_[gi] = shares_required(cfg_.loss_threshold[gi], n_g);
    const crypto::group_key key = nonce();
    keys[gi] = key;
    poly_[gi].emplace(key.value % crypto::shamir_prime, k_[gi], rng_);
    // Tuple for group g: the level-g top key, plus — when the protocol
    // authorizes an upgrade to g — an increase key derived one-way from the
    // level below's key: holders of kappa_{g-1} compute it, nobody can
    // invert it back (the threshold analogue of iota_g = tau_{g-1}).
    key_tuple tuple{key, {}, {}};
    if (g >= 2 && (auth_mask & (1u << g))) {
      tuple.inc = crypto::mask_to_bits(
          crypto::group_key{crypto::oneway_mix(keys[gi - 1].value)},
          cfg_.key_bits);
    }
    block.entries.emplace_back(groups_[gi - 1], tuple);
  }
  keys_.drop_below(block.target_slot - key_history_slots);
  keys_[block.target_slot] = std::move(keys);
  if (emitter_ != nullptr) emitter_->emit_block(block, slot);
}

void tlm_delta_sender::fill_fields(std::int64_t slot, int group,
                                   int seq_in_slot, bool, sim::flid_data& hdr) {
  util::require(slot == current_slot_,
                "tlm_delta_sender: packet outside current slot");
  const auto x = static_cast<std::uint64_t>(
      offset_[static_cast<std::size_t>(group)] + seq_in_slot + 1);
  // One share for every level this packet belongs to (levels group..N) —
  // the per-packet cost of threshold DELTA.
  std::vector<sim::level_share> shares;
  shares.reserve(static_cast<std::size_t>(cfg_.num_levels - group + 1));
  for (int g = group; g <= cfg_.num_levels; ++g) {
    const auto& poly = poly_[static_cast<std::size_t>(g)];
    shares.push_back(sim::level_share{g, x, poly->eval(x)});
  }
  hdr.level_shares = std::move(shares);
}

std::optional<crypto::group_key> tlm_delta_sender::key_for(
    std::int64_t target_slot, int level) const {
  const auto* keys = keys_.find(target_slot);
  if (keys == nullptr) return std::nullopt;
  if (level < 1 || level > cfg_.num_levels) return std::nullopt;
  return (*keys)[static_cast<std::size_t>(level)];
}

tlm_sender_bundle make_tlm_sender(sim::network& net, sim::node_id sender_host,
                                  flid::flid_sender& sender,
                                  const threshold_config& thresholds,
                                  std::uint64_t seed,
                                  const sigma_emitter_config& emitter_cfg) {
  const flid::flid_config& fc = sender.config();
  util::require(fc.structure == flid::session_structure::cumulative,
                "make_tlm_sender: replicated sessions cannot run under "
                "DELTA/SIGMA (DELTA has no replicated key algebra)");
  util::require(thresholds.num_levels == fc.num_groups,
                "make_tlm_sender: one threshold per group required");
  std::vector<sim::group_addr> groups;
  for (int g = 1; g <= fc.num_groups; ++g) groups.push_back(fc.group(g));

  tlm_sender_bundle out;
  out.delta = std::make_unique<tlm_delta_sender>(
      fc.session_id, thresholds, groups, fc.slot_duration, seed);
  out.emitter = std::make_unique<sigma_ctrl_emitter>(
      net, sender_host, groups, fc.slot_duration, thresholds.key_bits,
      emitter_cfg);
  out.delta->set_emitter(out.emitter.get());
  sender.set_delta_hook(out.delta.get());
  sender.set_sigma_tagging(true);
  sender.set_sigma_protected(true);
  return out;
}

// ---------------------------------------------------------------------------
// tlm_sigma_strategy
// ---------------------------------------------------------------------------

slot_decision tlm_sigma_strategy::decide(const flid::flid_receiver& r,
                                         const flid::slot_summary& s,
                                         const slot_feedback&) {
  const flid::flid_config& cfg = r.config();
  slot_decision hold{.level = r.level()};
  if (empty_slot(r, s, hold)) return hold;
  if (s.level == 0) return hold;

  // Collect shares per level across groups 1..level (and any probed group).
  std::map<int, std::vector<crypto::shamir_share>> by_level;
  for (int j = 1; j <= cfg.num_groups; ++j) {
    for (const auto& ls : s.groups[static_cast<std::size_t>(j)].shares) {
      by_level[ls.level].push_back(crypto::shamir_share{ls.x, ls.y});
    }
  }

  // Highest level with a reconstructible key. n_g (and so k_g) derives from
  // the advertised per-group packet counts; a group with no packets at all
  // caps reconstruction below it. Submitted keys carry the interface
  // perturbation when the collusion countermeasure is on.
  key_pairs pairs;
  int entitled = 0;
  crypto::group_key top{};  // raw kappa_entitled
  std::int64_t n_cum = 0;
  for (int g = 1; g <= std::min(r.level() + 1, cfg.num_groups); ++g) {
    const auto& rec = s.groups[static_cast<std::size_t>(g)];
    if (rec.expected < 0) break;  // unknown count: cannot size k_g
    n_cum += rec.expected;
    const int k = shares_required(
        cfg_.loss_threshold[static_cast<std::size_t>(g)],
        static_cast<int>(n_cum));
    const auto shares = by_level.find(g);
    if (shares == by_level.end() ||
        static_cast<int>(shares->second.size()) < k) {
      ++tlm_stats_.levels_denied_by_threshold;
      break;
    }
    const auto key = reconstruct_threshold_key(
        {shares->second.data(), shares->second.size()}, k);
    if (!key.has_value()) break;
    ++tlm_stats_.levels_reconstructed;
    top = crypto::mask_to_bits(*key, cfg_.key_bits);
    pairs.emplace_back(cfg.group(g), maybe_perturb(top));
    entitled = g;
  }

  if (entitled == 0) {
    hold.rejoin = true;
    return hold;
  }

  // Probe upward when the slot authorized an upgrade and we fully hold our
  // current level (RLM's join experiment): the increase key for level g+1 is
  // derived one-way from the raw kappa_g we just reconstructed (the router
  // perturbs the increase key itself, so perturb only the derived key).
  int target = entitled;
  if (entitled >= r.level() && entitled < cfg.num_groups &&
      s.upgrade_authorized(entitled + 1)) {
    const crypto::group_key iota = crypto::mask_to_bits(
        crypto::group_key{crypto::oneway_mix(top.value)}, cfg_.key_bits);
    pairs.emplace_back(cfg.group(entitled + 1), maybe_perturb(iota));
    target = entitled + 1;
  }
  return {.level = target,
          .pairs = std::move(pairs),
          .leave = leaves(r, target, r.level())};
}

}  // namespace mcc::core
