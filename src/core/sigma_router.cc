#include "core/sigma_router.h"

#include <algorithm>
#include <utility>

#include "crypto/oneway.h"

namespace mcc::core {

namespace {
/// Cap on the probation-memory cutoff escalation exponent: the k-th keyless
/// rejoin is cut off for slot_duration << min(k, cap) — capped so a single
/// interface cannot be locked out for more than 64 slots at a time.
constexpr int max_block_escalation = 6;

/// The tuple a decoded block holds for `group`; nullptr if none. The last
/// match wins, as when the block's entries were inserted into a map.
const key_tuple* tuple_for(
    const std::vector<std::pair<sim::group_addr, key_tuple>>& keys,
    sim::group_addr group) {
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    if (it->first == group) return &it->second;
  }
  return nullptr;
}
}  // namespace

sigma_router_agent::sigma_router_agent(sim::network& net, sim::node_id router,
                                       mcast::igmp_agent& tree)
    : net_(net), router_(router), tree_(tree) {
  sim::node* r = net_.get(router_);
  r->add_agent(this);
  r->set_alert_interceptor(this);
  r->set_access_policy(this);
  trace_ = obs::current_trace();
}

sigma_router_agent::session_state* sigma_router_agent::session(int id) {
  if (auto it = sessions_.find(id); it != sessions_.end()) return &it->second;
  const sim::session_announcement* ann = net_.find_session(id);
  if (ann == nullptr || ann->slot_duration <= 0) return nullptr;
  session_state& sess = sessions_[id];
  sess.slot_duration = ann->slot_duration;
  return &sess;
}

sigma_router_agent::iface_state& sigma_router_agent::port(sim::link* iface) {
  const std::size_t p = iface->port();
  if (p >= ports_.size()) ports_.resize(p + 1);
  return ports_[p];
}

void sigma_router_agent::trace(obs::trace_event kind, sim::link* iface,
                               std::uint64_t a, std::uint64_t b) {
  if (trace_ == nullptr) return;
  std::optional<std::uint32_t>& track = port(iface).track;
  if (!track) {
    track = trace_->track("sigma:" + net_.get(router_)->name() + ":" +
                          iface->to()->name());
  }
  trace_->record(net_.sched().now(), kind, *track, a, b);
}

bool sigma_router_agent::handle_packet(const sim::packet& p,
                                       sim::link* arrival) {
  if (const auto* ctrl = sim::header_as<sim::sigma_ctrl>(p)) {
    // Key blocks flow down the session's tree from its source: a shard is
    // accepted only on the reverse-path link toward that source, so a
    // receiver host cannot forge blocks or push the session's slots ahead.
    const sim::node_id src = net_.group_source(p.dst.group());
    sim::link* up =
        src == sim::invalid_node ? nullptr : net_.next_hop(router_, src);
    if (arrival == nullptr || up == nullptr || arrival != up->reverse()) {
      ++stats_.ctrl_refused;
      return true;
    }
    on_ctrl(*ctrl);
    return true;
  }
  // Management messages arrive unicast from a local host interface.
  sim::link* iface = arrival != nullptr ? arrival->reverse() : nullptr;
  if (iface == nullptr || !iface->to()->is_host()) return false;
  if (const auto* sub = sim::header_as<sim::sigma_subscribe>(p)) {
    on_subscribe(*sub, iface, p.src);
    return true;
  }
  if (const auto* unsub = sim::header_as<sim::sigma_unsubscribe>(p)) {
    on_unsubscribe(*unsub, iface);
    return true;
  }
  if (const auto* join = sim::header_as<sim::sigma_session_join>(p)) {
    on_session_join(*join, iface);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Control-plane: key distribution to the router
// ---------------------------------------------------------------------------

void sigma_router_agent::on_ctrl(const sim::sigma_ctrl& hdr) {
  // Even on the reverse path a shard is checked against the session's
  // announced slot clock: a shard for a session never announced, with
  // another slot length, or for a slot more than the key history away from
  // the clock is refused, so no shard moves the session's window off it.
  session_state* known = session(hdr.session_id);
  const auto off_clock = [&](std::int64_t slot) {
    const std::int64_t clock = net_.sched().now() / known->slot_duration;
    return slot < clock - key_history_slots || slot > clock + key_history_slots;
  };
  if (known == nullptr || hdr.slot_duration != known->slot_duration ||
      off_clock(hdr.emitted_slot) || off_clock(hdr.target_slot)) {
    ++stats_.ctrl_refused;
    return;
  }
  ++stats_.ctrl_shards;
  session_state& sess = *known;
  sess.max_seen_slot = std::max(sess.max_seen_slot, hdr.emitted_slot);

  // A shard for a slot already out of the key history can never be used.
  if (hdr.target_slot < sess.slots.floor()) return;
  shard_buffer& buf = sess.slots[hdr.target_slot].shards;
  if (buf.decoded) return;
  buf.data_shards = hdr.data_shards;
  buf.payload_size = hdr.payload_size;
  buf.received.push_back(
      crypto::indexed_shard{hdr.shard_index, hdr.shard_bytes});
  if (static_cast<int>(buf.received.size()) >= hdr.data_shards) {
    try_decode(sess, hdr.target_slot);
  }
}

void sigma_router_agent::try_decode(session_state& sess,
                                    std::int64_t target_slot) {
  slot_state& state = *sess.slots.find(target_slot);
  shard_buffer& buf = state.shards;
  if (buf.decoded || buf.received.empty()) return;

  // The decoder only needs the generator rows for the received parity
  // indices, which rs_code derives from (k, m); construct with a parity count
  // covering the largest index seen.
  int max_index = 0;
  for (const auto& s : buf.received) max_index = std::max(max_index, s.index);
  const crypto::rs_code decoder(buf.data_shards,
                                std::max(0, max_index - buf.data_shards + 1));
  auto data = decoder.decode(buf.received);
  if (!data.has_value()) return;
  const auto payload = crypto::join_shards(*data, buf.payload_size);
  auto block = deserialize_key_block(payload);
  // The emitter stamps the block's own slot on every shard; a block that
  // disagrees with its shards is malformed.
  if (!block.has_value() || block->target_slot != target_slot) return;

  buf.decoded = true;
  buf.received.clear();
  ++stats_.blocks_decoded;
  state.keys = std::move(block->entries);

  // Older slots' keys, shards and parked subscriptions go together: a block
  // whose shards are dropped can never decode, so its parked entries cannot
  // either.
  sess.slots.drop_below(target_slot - key_history_slots);

  // Re-validate subscriptions that raced ahead of their tuple block (with
  // the same per-interface comparison the direct path uses — a parked
  // honest key must not turn into a rejected "guess" under keying).
  for (const auto& sub : std::exchange(state.parked, {})) {
    const key_tuple* t =
        tuple_for(state.keys, sim::group_addr{sub.group_value});
    if (t != nullptr && tuple_matches(*t, sub.key, sub.iface)) {
      ++stats_.valid_keys;
      grant(sub.iface, sub.group_value, target_slot);
    } else {
      ++stats_.invalid_keys;
      tally_guess(sub.iface, target_slot);
    }
  }
}

bool sigma_router_agent::tuple_matches(const key_tuple& tuple,
                                       const crypto::group_key& submitted,
                                       sim::link* iface) const {
  if (!interface_keying_) return tuple.matches(submitted);
  // Interface identity = the attached host (one receiver host per interface
  // in our topologies); receivers apply the same perturbation to the keys
  // they reconstruct.
  const auto iface_id = static_cast<std::uint64_t>(iface->to()->id());
  key_tuple perturbed;
  perturbed.top = crypto::perturb_for_interface(tuple.top, iface_id);
  if (tuple.dec) {
    perturbed.dec = crypto::perturb_for_interface(*tuple.dec, iface_id);
  }
  if (tuple.inc) {
    perturbed.inc = crypto::perturb_for_interface(*tuple.inc, iface_id);
  }
  return perturbed.matches(submitted);
}

// ---------------------------------------------------------------------------
// Management-plane: receiver messages (Figure 6)
// ---------------------------------------------------------------------------

void sigma_router_agent::on_subscribe(const sim::sigma_subscribe& msg,
                                      sim::link* iface, sim::node_id from) {
  ++stats_.subscribe_msgs;
  trace(obs::trace_event::subscribe, iface,
        static_cast<std::uint64_t>(msg.session_id), msg.pairs.size());
  // A key for a slot whose block is not decoded yet (control packets still
  // in flight) is parked and re-validated on decode — but only for a known
  // session and a slot within the key history of the newest slot seen: any
  // other key can never validate, and must not hold state.
  session_state* sess = session(msg.session_id);
  const bool parkable = sess != nullptr && msg.slot >= sess->max_seen_slot &&
                        msg.slot >= sess->slots.floor() &&
                        msg.slot <= sess->max_seen_slot + key_history_slots;
  slot_state* state = sess != nullptr ? sess->slots.find(msg.slot) : nullptr;
  for (const auto& [group, key] : msg.pairs) {
    const crypto::group_key submitted = key;
    const key_tuple* tuple =
        state != nullptr ? tuple_for(state->keys, group) : nullptr;
    if (tuple == nullptr) {
      if (parkable) {
        ++stats_.pending_subscriptions;
        state = &sess->slots[msg.slot];
        state->parked.push_back(
            pending_subscription{iface, group.value, submitted});
      } else {
        ++stats_.invalid_keys;
      }
      continue;
    }
    if (tuple_matches(*tuple, submitted, iface)) {
      ++stats_.valid_keys;
      grant(iface, group.value, msg.slot);
    } else {
      ++stats_.invalid_keys;
      tally_guess(iface, msg.slot);
    }
  }
  // Acknowledge receipt (paper: "the edge router acknowledges each
  // subscription message").
  sim::packet ack;
  ack.size_bytes = 40;
  ack.dst = sim::dest::to_node(from);
  ack.hdr = sim::sigma_ack{msg.msg_id};
  net_.get(router_)->send(std::move(ack));
}

void sigma_router_agent::grant(sim::link* iface, int group_value,
                               std::int64_t slot) {
  group_state& st = port(iface).groups[sim::group_addr{group_value}];
  if (probation_memory_slots_ > 0) {
    const sim::time_ns now = net_.sched().now();
    const probation_memory_record* debt = st.owed(now);
    const bool live_block = st.blocked_until >= 0 && now < st.blocked_until;
    const bool remembered_block = debt != nullptr && debt->blocked_until >= 0 &&
                                  now < debt->blocked_until;
    if (live_block || remembered_block) {
      // Still serving a cutoff (live, or remembered across an unsubscribe):
      // a valid key earns access only once the owed slots have actually been
      // served — otherwise churning through grant would launder the debt.
      ++stats_.blocked_grants;
      return;
    }
    // A valid key pays all outstanding debt and resets the escalation ladder.
    st.keyless_rejoins = 0;
    st.debt = {};
  }
  if (st.probation) {
    // A valid key arrived inside the keyless grace window: the window closes
    // cleanly (b=0) instead of expiring into a cutoff (b=1).
    trace(obs::trace_event::grace_close, iface,
          static_cast<std::uint64_t>(group_value), 0);
  }
  st.authorized_until = std::max(st.authorized_until, slot);
  st.probation = false;
  st.blocked_until = -1;  // a valid key re-proves eligibility
  if (!st.grafted) {
    tree_.join(sim::group_addr{group_value}, iface);
    st.grafted = true;
    // New group on this interface: unconditional forwarding for two complete
    // slots once its packets arrive (section 3.2.2).
    st.awaiting_first_packet = true;
  }
}

void sigma_router_agent::ungraft(int group_value, sim::link* iface,
                                 group_state& st) {
  if (st.grafted) {
    tree_.leave(sim::group_addr{group_value}, iface);
    st.grafted = false;
  }
  st.grace_through_slot = -1;
  st.awaiting_first_packet = false;
}

void sigma_router_agent::on_unsubscribe(const sim::sigma_unsubscribe& msg,
                                        sim::link* iface) {
  ++stats_.unsubscribes;
  trace(obs::trace_event::unsubscribe, iface,
        static_cast<std::uint64_t>(msg.session_id), msg.groups.size());
  // The message is untrusted: it may name only groups of an announced
  // session. Naming another session would time a remembered debt with the
  // wrong slot clock, or (a session never announced) with none at all.
  const session_state* sess = session(msg.session_id);
  if (sess == nullptr) return;
  const std::vector<sim::group_addr>& listed =
      net_.find_session(msg.session_id)->groups;
  iface_state& ifc = port(iface);
  for (sim::group_addr g : msg.groups) {
    if (std::find(listed.begin(), listed.end(), g) == listed.end()) continue;
    group_state* st = ifc.groups.find(g);
    if (st == nullptr) continue;
    // The adaptive_churn loophole lived here: wiping the state wiped the
    // pending probation and blocked_until debt with it. Under probation
    // memory the debt outlives the wipe, timed by the session's slot clock.
    if (probation_memory_slots_ > 0) remember_debt(iface, g.value, *st, *sess);
    ungraft(g.value, iface, *st);
    *st = group_state{.debt = st->debt};
  }
}

void sigma_router_agent::remember_debt(sim::link* iface, int group_value,
                                       group_state& st,
                                       const session_state& sess) {
  const sim::time_ns now = net_.sched().now();
  const bool blocked = st.blocked_until >= 0 && now < st.blocked_until;
  // Debt = a grace window that has not ended in probation yet, an unserved
  // cutoff, or an escalation ladder position a churner could otherwise
  // launder by unsubscribing. A receiver that proved a key has none.
  if (!st.probation && !blocked && st.keyless_rejoins == 0) return;
  // A rejoin has already folded any earlier debt into `st`, so the new
  // record replaces the old one.
  st.debt = probation_memory_record{
      .blocked_until = blocked ? st.blocked_until : -1,
      .keyless_rejoins = st.keyless_rejoins,
      .expires_at = std::max(now, st.blocked_until) +
                    probation_memory_slots_ * sess.slot_duration};
  ++stats_.memory_records;
  trace(obs::trace_event::probation_record, iface,
        static_cast<std::uint64_t>(group_value),
        static_cast<std::uint64_t>(st.keyless_rejoins));
}

void sigma_router_agent::on_session_join(const sim::sigma_session_join& msg,
                                         sim::link* iface) {
  const sim::session_announcement* ann = net_.find_session(msg.session_id);
  session_state* sess = session(msg.session_id);
  if (sess == nullptr || ann->groups.empty() ||
      !(msg.minimal_group == ann->groups.front())) {
    // Unknown session, or the receiver lied about which group is minimal
    // (claiming a high-rate group would turn keyless admission into a
    // bandwidth attack).
    ++stats_.session_joins_refused;
    return;
  }
  const int minimal = ann->groups.front().value;
  group_state& st = port(iface).groups[sim::group_addr{minimal}];
  const sim::time_ns now = net_.sched().now();
  if (st.blocked_until >= 0 && now < st.blocked_until) {
    // Still serving the >= 1 slot cutoff for failing to present a key.
    ++stats_.session_joins_refused;
    return;
  }
  bool inherited = false;
  if (probation_memory_slots_ > 0) {
    if (const probation_memory_record* debt = st.owed(now)) {
      if (debt->blocked_until >= 0 && now < debt->blocked_until) {
        // The wiped state still owed an unserved cutoff: still-blocked means
        // refused, unsubscribe or not.
        ++stats_.session_joins_refused;
        ++stats_.memory_refusals;
        trace(obs::trace_event::probation_refuse, iface,
              static_cast<std::uint64_t>(minimal),
              static_cast<std::uint64_t>(debt->blocked_until));
        return;
      }
      // Within the memory window: the rejoin inherits the debt instead of
      // starting over.
      st.keyless_rejoins = std::max(st.keyless_rejoins, debt->keyless_rejoins);
      st.debt = {};
      ++stats_.memory_inherits;
      trace(obs::trace_event::probation_inherit, iface,
            static_cast<std::uint64_t>(minimal),
            static_cast<std::uint64_t>(st.keyless_rejoins));
      inherited = true;
    }
    if (st.grafted && st.probation) {
      // A keyless grace window is already open on this interface; repeated
      // joins must not refresh awaiting_first_packet and extend it.
      return;
    }
  }
  if (st.grafted && st.authorized_until > sess->max_seen_slot + 1) {
    return;  // already a member in good standing; nothing to do
  }
  // Fresh keyless admission (or re-admission after an authorization gap):
  // unrestricted access to the minimal group for two complete slots; failing
  // to present a valid key within the window leads to a >= one-slot cutoff.
  // A receiver cannot ride repeated session-joins to uninterrupted keyless
  // access — each grace window ends in probation (section 3.2.2).
  ++stats_.session_joins;
  trace(obs::trace_event::session_join, iface,
        static_cast<std::uint64_t>(msg.session_id), inherited ? 1 : 0);
  if (!st.grafted) {
    tree_.join(sim::group_addr{minimal}, iface);
    st.grafted = true;
  }
  st.probation = true;
  if (probation_memory_slots_ > 0 && (inherited || st.keyless_rejoins > 0)) {
    // Keyless rejoin with outstanding debt: admitted on probation but with NO
    // fresh grace — the first data packet converts straight into an escalated
    // cutoff unless a valid key lands first.
    st.awaiting_first_packet = false;
    return;
  }
  st.awaiting_first_packet = true;
}

// ---------------------------------------------------------------------------
// Data-plane enforcement
// ---------------------------------------------------------------------------

bool sigma_router_agent::allow(const sim::packet& p, sim::link* oif) {
  if (!p.dst.is_multicast()) return true;
  const sim::group_addr group = p.dst.group();
  if (!net_.is_sigma_protected(group)) return true;  // not ours to guard
  if (!p.tag.has_value()) {
    // Protected group without a shim tag: not a SIGMA-enabled sender's
    // packet; refuse.
    ++stats_.denied;
    return false;
  }
  const std::int64_t slot = p.tag->slot;
  session_state* sess = session(p.tag->session_id);
  if (sess == nullptr) {
    // A tag naming no announced session has no slot clock to enforce.
    ++stats_.denied;
    return false;
  }
  sess->max_seen_slot = std::max(sess->max_seen_slot, slot);

  group_state& st = port(oif).groups[group];
  if (st.awaiting_first_packet) {
    // First packet of a newly added group: grace covers this slot and the
    // two complete slots after it — exactly the window until keys harvested
    // from the first complete slot become usable (Figure 2).
    st.awaiting_first_packet = false;
    st.grace_through_slot = slot + key_lead_slots;
    trace(obs::trace_event::grace_open, oif,
          static_cast<std::uint64_t>(group.value),
          static_cast<std::uint64_t>(st.grace_through_slot));
  }
  if (st.blocked_until >= 0 && net_.sched().now() < st.blocked_until) {
    ++stats_.denied;
    return false;
  }
  const bool allowed =
      slot <= st.grace_through_slot || slot <= st.authorized_until;
  if (allowed) {
    if (slot > st.authorized_until) {
      ++stats_.grace_forwards;
    } else {
      ++stats_.authorized_forwards;
    }
    return true;
  }
  ++stats_.denied;
  if (st.probation) {
    // Keyless admission expired without a valid key: stop forwarding for at
    // least one time slot (section 3.2.2) and prune the branch. Under
    // probation memory the cutoff escalates geometrically with every keyless
    // rejoin, so grace riding buys ever-shrinking duty cycles.
    sim::time_ns cutoff = sess->slot_duration;
    if (probation_memory_slots_ > 0) {
      cutoff = sess->slot_duration
               << std::min(st.keyless_rejoins, max_block_escalation);
      ++st.keyless_rejoins;
    }
    st.blocked_until = net_.sched().now() + cutoff;
    st.probation = false;
    ++stats_.probation_blocks;
    trace(obs::trace_event::grace_close, oif,
          static_cast<std::uint64_t>(group.value), 1);
    trace(obs::trace_event::cutoff, oif,
          static_cast<std::uint64_t>(group.value),
          static_cast<std::uint64_t>(st.blocked_until));
    ungraft(group.value, oif, st);
  } else if (slot > st.authorized_until + 1) {
    // Authorization stale by more than a full slot: the receiver is gone or
    // ineligible; prune so the traffic stops crossing the bottleneck.
    ++stats_.stale_prunes;
    ungraft(group.value, oif, st);
  }
  return false;
}

void sigma_router_agent::tally_guess(sim::link* iface, std::int64_t slot) {
  // Decay: buckets older than the key history of the newest guessed slot
  // fall off, so the tally reflects recent guessing pressure, not run length.
  sim::slot_window<std::uint64_t>& by_slot = port(iface).guess_tally;
  by_slot.drop_below(slot - key_history_slots);
  if (slot >= by_slot.floor()) ++by_slot[slot];
}

std::uint64_t sigma_router_agent::guess_tally(sim::link* iface) const {
  if (iface->port() >= ports_.size()) return 0;
  std::uint64_t sum = 0;
  ports_[iface->port()].guess_tally.for_each(
      [&](std::int64_t, std::uint64_t n) { sum += n; });
  return sum;
}

std::size_t sigma_router_agent::parked_subscriptions() const {
  std::size_t n = 0;
  for (const auto& [id, sess] : sessions_) {
    sess.slots.for_each(
        [&](std::int64_t, const slot_state& st) { n += st.parked.size(); });
  }
  return n;
}

}  // namespace mcc::core
