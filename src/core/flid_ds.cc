#include "core/flid_ds.h"

#include <algorithm>

#include "crypto/oneway.h"
#include "util/require.h"

namespace mcc::core {

namespace {
/// Random keys a guessing attacker submits per unproven group per slot.
constexpr int guesses_per_unproven_group = 8;
}  // namespace

flid_ds_sender make_flid_ds_sender(sim::network& net, sim::node_id sender_host,
                                   flid::flid_sender& sender,
                                   std::uint64_t seed,
                                   const sigma_emitter_config& emitter_cfg) {
  const flid::flid_config& cfg = sender.config();
  util::require(cfg.structure == flid::session_structure::cumulative,
                "make_flid_ds_sender: replicated sessions cannot run under "
                "DELTA/SIGMA (DELTA has no replicated key algebra)");
  flid_ds_sender out;
  out.delta = std::make_unique<delta_layered_sender>(
      cfg.session_id, cfg.num_groups, cfg.key_bits, seed);
  std::vector<sim::group_addr> groups;
  for (int g = 1; g <= cfg.num_groups; ++g) groups.push_back(cfg.group(g));
  out.emitter = std::make_unique<sigma_ctrl_emitter>(
      net, sender_host, groups, cfg.slot_duration, cfg.key_bits, emitter_cfg);
  out.emitter->attach(*out.delta);
  sender.set_delta_hook(out.delta.get());
  sender.set_sigma_tagging(true);
  sender.set_sigma_protected(true);
  return out;
}

// ---------------------------------------------------------------------------
// honest_sigma_strategy
// ---------------------------------------------------------------------------

honest_sigma_strategy::~honest_sigma_strategy() {
  *alive_ = false;
  if (net_ != nullptr && receiver_ != nullptr) {
    net_->get(receiver_->host())->remove_agent(this);
  }
}

void honest_sigma_strategy::attach(flid::flid_receiver& r) {
  // Every SIGMA strategy (honest, attacking, TLM, aggregate delegate) enters
  // here, and all of them prove cumulative levels.
  util::require(r.config().structure == flid::session_structure::cumulative,
                "SIGMA receiver strategies need a cumulative session (DELTA "
                "has no replicated key algebra)");
  net_ = &r.net();
  receiver_ = &r;
  delta_ = std::make_unique<delta_layered_receiver>(r.config().num_groups);
  net_->get(r.host())->add_agent(this);
  if ((trace_ = obs::current_trace()) != nullptr) {
    trace_track_ = trace_->track("recv:" + net_->get(r.host())->name());
  }
}

void honest_sigma_strategy::session_start(flid::flid_receiver& r) {
  attach(r);
  r.set_local_level(1);
  send_session_join();
}

crypto::group_key honest_sigma_strategy::maybe_perturb(
    crypto::group_key k) const {
  if (!interface_keying_) return k;
  return crypto::perturb_for_interface(
      k, static_cast<std::uint64_t>(receiver_->host()));
}

bool honest_sigma_strategy::handle_packet(const sim::packet& p, sim::link*) {
  const auto* ack = sim::header_as<sim::sigma_ack>(p);
  if (ack == nullptr) return false;
  auto it = pending_.find(ack->msg_id);
  if (it == pending_.end()) return false;
  it->second.timer.cancel();
  pending_.erase(it);
  return true;
}

void honest_sigma_strategy::arm_retransmit(std::uint64_t msg_id) {
  auto it = pending_.find(msg_id);
  if (it == pending_.end()) return;
  // Retransmit if the ack has not arrived within a conservative local RTT.
  it->second.timer = net_->sched().after(
      sim::milliseconds(100), [this, alive = alive_, msg_id] {
        if (!*alive) return;
        auto p = pending_.find(msg_id);
        if (p == pending_.end()) return;
        if (p->second.retries_left-- <= 0) {
          pending_.erase(p);
          return;
        }
        ++stats_.retransmits;
        stats_.ctrl_bytes += static_cast<std::uint64_t>(p->second.pkt.size_bytes);
        net_->get(receiver_->host())->send(p->second.pkt);
        arm_retransmit(msg_id);
      });
}

void honest_sigma_strategy::send_subscribe(std::int64_t slot,
                                           const key_pairs& pairs) {
  if (pairs.empty()) return;
  ++stats_.subscribes;
  sim::sigma_subscribe msg;
  msg.session_id = receiver_->config().session_id;
  msg.slot = slot;
  msg.pairs = pairs;
  msg.msg_id = (static_cast<std::uint64_t>(receiver_->host()) << 32) |
               next_msg_id_++;

  sim::packet p;
  // Figure 6(b): slot + per-group address-key pair.
  p.size_bytes = 16 + static_cast<int>(pairs.size()) *
                          (4 + receiver_->config().key_bits / 8);
  p.dst = sim::dest::to_node(receiver_->edge_router());
  p.hdr = msg;
  stats_.ctrl_bytes += static_cast<std::uint64_t>(p.size_bytes);
  pending_[msg.msg_id] = pending_msg{p, 2, {}};
  net_->get(receiver_->host())->send(std::move(p));
  arm_retransmit(msg.msg_id);
}

void honest_sigma_strategy::send_unsubscribe(
    const std::vector<sim::group_addr>& groups) {
  if (groups.empty()) return;
  ++stats_.unsubscribes;
  sim::sigma_unsubscribe msg;
  msg.session_id = receiver_->config().session_id;
  msg.groups = groups;
  sim::packet p;
  p.size_bytes = 16 + static_cast<int>(groups.size()) * 4;
  p.dst = sim::dest::to_node(receiver_->edge_router());
  p.hdr = std::move(msg);
  stats_.ctrl_bytes += static_cast<std::uint64_t>(p.size_bytes);
  net_->get(receiver_->host())->send(std::move(p));
}

void honest_sigma_strategy::send_session_join() {
  ++stats_.session_joins;
  last_session_join_ = net_->sched().now();
  sim::sigma_session_join msg;
  msg.session_id = receiver_->config().session_id;
  msg.minimal_group = receiver_->config().group(1);
  sim::packet p;
  p.size_bytes = 20;
  p.dst = sim::dest::to_node(receiver_->edge_router());
  p.hdr = msg;
  stats_.ctrl_bytes += static_cast<std::uint64_t>(p.size_bytes);
  net_->get(receiver_->host())->send(std::move(p));
}

void honest_sigma_strategy::on_slot(flid::flid_receiver& r,
                                    const flid::slot_summary& s) {
  // Observe: the closed-loop feedback record (claimed vs granted levels),
  // once per evaluated slot on every strategy.
  slot_feedback fb;
  fb.slot = s.slot;
  fb.now = net_->sched().now();
  fb.claimed = r.level();
  fb.granted = s.granted();
  if (trace_ != nullptr) {
    trace_->record(fb.now, obs::trace_event::slot_feedback, trace_track_,
                   static_cast<std::uint64_t>(fb.claimed),
                   static_cast<std::uint64_t>(fb.granted));
  }
  on_feedback(fb);
  apply(r, s, decide(r, s, fb));
}

bool honest_sigma_strategy::may_rejoin() const {
  return net_->sched().now() - last_session_join_ >=
         receiver_->config().slot_duration;
}

void honest_sigma_strategy::apply(flid::flid_receiver& r,
                                  const flid::slot_summary& s,
                                  const slot_decision& d) {
  util::require(!d.rejoin || d.level >= 1,
                "SIGMA receiver: session-join at local level 0");
  if (d.rejoin && may_rejoin()) send_session_join();
  send_subscribe(s.slot + key_lead_slots, d.pairs);
  send_unsubscribe(d.leave);
  if (d.fold >= 0) r.set_local_level(d.fold);
  r.set_local_level(d.level);
}

std::vector<sim::group_addr> honest_sigma_strategy::leaves(
    const flid::flid_receiver& r, int n, int held) {
  std::vector<sim::group_addr> out;
  for (int g = n + 1; g <= held; ++g) out.push_back(r.config().group(g));
  return out;
}

bool honest_sigma_strategy::empty_slot(const flid::flid_receiver& r,
                                       const flid::slot_summary& s,
                                       slot_decision& d) {
  const flid::flid_config& cfg = r.config();
  for (int g = 1; g <= cfg.num_groups; ++g) {
    if (s.groups[static_cast<std::size_t>(g)].received > 0) {
      empty_slots_ = 0;
      return false;
    }
  }
  // Nothing received over a full slot: either we just joined (grace period
  // in progress) or the router cut us off. Re-enter via session-join after
  // a cool-down of two slots without data.
  ++stats_.cutoff_slots;
  ++empty_slots_;
  if (empty_slots_ >= 2 &&
      net_->sched().now() - last_session_join_ > 2 * cfg.slot_duration) {
    d.rejoin = true;
    empty_slots_ = 0;
  }
  return true;
}

delta_reconstruction honest_sigma_strategy::prove(
    const flid::slot_summary& eff, key_pairs& pairs) {
  delta_reconstruction rec = delta_->reconstruct(eff);
  on_keys_reconstructed(eff.slot + key_lead_slots, rec.keys);
  pairs.reserve(pairs.size() + rec.keys.size());
  for (const auto& [g, key] : rec.keys) {
    pairs.emplace_back(receiver_->config().group(g), maybe_perturb(key));
  }
  return rec;
}

slot_decision honest_sigma_strategy::decide(const flid::flid_receiver& r,
                                            const flid::slot_summary& s,
                                            const slot_feedback&) {
  slot_decision d{.level = r.level()};
  if (empty_slot(r, s, d)) return d;
  if (s.level == 0) return d;  // partial first slot after a join

  // Groups that were subscribed for the whole slot but delivered nothing are
  // gone (the router withdrew them after an authorization lapse, or the
  // branch broke): without their packets no key for them can ever be proved
  // again, so fold the subscription down to the groups actually flowing and
  // reconstruct relative to that level. Never below the minimal group: a
  // receiver at level 0 asks for re-admission to a group it does not hold.
  const int effective = std::max(1, std::min(s.granted(), s.level));
  flid::slot_summary folded;
  if (effective < s.level) {
    folded = s.at_level(effective);
    d.fold = d.level = effective;
  }
  const flid::slot_summary& eff = d.fold >= 0 ? folded : s;

  const delta_reconstruction rec = prove(eff, d.pairs);
  if (rec.next_level == 0) {
    // Congested at the minimal level: no reconstructible keys, so the
    // current authorization lapses after slot s+1. Request keyless
    // re-admission right away; the grace window bridges the gap, and the
    // next loss-free slot proves a fresh key (section 3.2.2). Keep wanting
    // the minimal level locally.
    d.rejoin = true;
    return d;
  }

  // A group joined mid-slot has not completed a full slot yet, so the
  // reconstruction is computed relative to eff.level < the held level.
  // While uncongested, keep the pending join — its first complete slot will
  // prove its key, and the router's new-group grace bridges the gap
  // (Figure 2).
  int target = rec.next_level;
  if (!eff.congested && d.level > eff.level) {
    target = std::max(target, d.level);
  }

  // Explicitly leave dropped groups for fast congestion relief (the paper's
  // unsubscription message exists exactly "to leave groups even quicker").
  d.leave = leaves(r, target, d.level);
  d.level = target;
  return d;
}

// ---------------------------------------------------------------------------
// misbehaving_sigma_strategy
// ---------------------------------------------------------------------------

misbehaving_sigma_strategy::misbehaving_sigma_strategy(sim::time_ns inflate_at,
                                                       key_mode mode,
                                                       std::uint64_t seed)
    : inflate_at_(inflate_at), mode_(mode), rng_(seed) {}

bool misbehaving_sigma_strategy::attack_active() const {
  return net_->sched().now() >= inflate_at_;
}

slot_decision misbehaving_sigma_strategy::decide(const flid::flid_receiver& r,
                                                 const flid::slot_summary& s,
                                                 const slot_feedback& fb) {
  if (!attack_active()) return honest_sigma_strategy::decide(r, s, fb);
  ++attack_stats_.attack_slots;
  const flid::flid_config& cfg = r.config();
  const int n = cfg.num_groups;

  // The attacker wants everything; locally subscribe to all groups so any
  // packet that leaks through is consumed. Never unsubscribe, never
  // decrease: the receiver ignores congestion.
  slot_decision d{.level = n};

  // Best self-benefical play: reconstruct keys relative to what was actually
  // received (the router-granted subscription), not the claimed level —
  // otherwise the provable prefix shrinks every slot.
  const int achieved = s.granted();
  if (achieved == 0) {
    // Fully cut off: keep hammering session-join (rate limited by router
    // blocking) and guessing.
    ++stats_.cutoff_slots;
    d.rejoin = true;
  }

  // Like the honest path, entitled keys carry the interface perturbation
  // when the countermeasure is on — an attacker plays the protocol
  // correctly for layers it has actually earned.
  int proven = 0;
  if (achieved > 0) {
    const delta_reconstruction rec = prove(s.at_level(achieved), d.pairs);
    proven = rec.next_level;
    // Remember for replay (raw; perturbed on use).
    for (const auto& [g, key] : rec.keys) stale_keys_[g] = key;
    // Congested even at the minimal level: ride keyless re-admission like
    // an honest receiver would.
    if (proven == 0) d.rejoin = true;
  }

  // Inflation attempts for every group beyond the provable prefix.
  for (int g = proven + 1; g <= n; ++g) {
    if (sidechannel_keys(g, s.slot + key_lead_slots, cfg, d.pairs)) continue;
    if (mode_ == key_mode::replay) {
      auto it = stale_keys_.find(g);
      if (it != stale_keys_.end()) {
        d.pairs.emplace_back(cfg.group(g), maybe_perturb(it->second));
        ++attack_stats_.replayed_keys;
      }
    } else if (mode_ == key_mode::guess) {
      for (int i = 0; i < guesses_per_unproven_group; ++i) {
        d.pairs.emplace_back(
            cfg.group(g),
            crypto::mask_to_bits(crypto::group_key{rng_.next()},
                                 cfg.key_bits));
        ++attack_stats_.guessed_keys;
      }
    }
  }
  return d;
}

}  // namespace mcc::core
