// SIGMA edge-router agent (paper section 3.2): key-based group access
// control that is independent of the protected congestion control protocol.
//
// The agent plays three roles on its router:
//   * router-alert interceptor: collects FEC shards of address-key tuple
//     blocks from special packets and decodes them into the key store;
//   * management endpoint: handles session-join / subscription /
//     unsubscription messages from local receivers (Figure 6), validating
//     submitted keys against the store and (un)grafting the multicast tree;
//   * access policy: per-packet enforcement on host-facing interfaces — a
//     data packet tagged with slot x is forwarded iff the interface holds an
//     authorization for slot >= x or a grace window applies (two complete
//     slots after a newly added group's packets arrive, same for keyless
//     session-join admission).
//
// Enforcement reads only the protocol-independent shim tag (session, slot)
// and SIGMA's own messages — never the congestion-control headers
// (Requirement 3). The agent never rewrites a packet: the section 3.1.2 ECN
// scrub is modelled at the receiver (flid_receiver keeps a marked packet's
// component out of the key), and the optional collusion countermeasure
// (section 4.2) perturbs keys at validation, not forwarded components.
#ifndef MCC_CORE_SIGMA_ROUTER_H
#define MCC_CORE_SIGMA_ROUTER_H

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/sigma_wire.h"
#include "crypto/rs_code.h"
#include "mcast/igmp.h"
#include "obs/trace.h"
#include "sim/group_table.h"
#include "sim/network.h"
#include "sim/slot_window.h"

namespace mcc::core {

class sigma_router_agent : public sim::agent, public sim::access_policy {
 public:
  /// Attaches to `router` as agent, alert interceptor and access policy.
  /// `tree` is the router's IGMP agent, reused for graft/prune mechanics.
  sigma_router_agent(sim::network& net, sim::node_id router,
                     mcast::igmp_agent& tree);

  bool handle_packet(const sim::packet& p, sim::link* arrival) override;
  bool allow(const sim::packet& p, sim::link* oif) override;

  /// Collusion countermeasure of section 4.2 (interface-specific key
  /// perturbation). Off by default; switched per scenario via
  /// exp::testbed_config::interface_keying, which also flips every SIGMA
  /// receiver strategy to submit perturbed keys.
  void set_interface_keying(bool on) { interface_keying_ = on; }
  [[nodiscard]] bool interface_keying() const { return interface_keying_; }
  /// Probation memory (countermeasure to adaptive_churn's grace riding):
  /// remember a wiped interface×group's outstanding debt — pending probation,
  /// active cutoff, keyless-rejoin count — for `slots` slots past the point
  /// the debt would have been served. A session-join or subscribe within the
  /// window inherits the debt: no fresh grace window, a still-active cutoff
  /// refuses admission outright, and repeated keyless rejoins escalate the
  /// cutoff length geometrically. 0 (default) disables the memory and keeps
  /// the legacy wipe-on-unsubscribe behaviour bit-for-bit.
  void set_probation_memory(int slots) { probation_memory_slots_ = slots; }
  [[nodiscard]] int probation_memory() const { return probation_memory_slots_; }

  struct counters {
    std::uint64_t ctrl_shards = 0;
    /// Shards dropped unread: off the reverse path, for a session never
    /// announced, or out of bounds of its announced slot clock.
    std::uint64_t ctrl_refused = 0;
    std::uint64_t blocks_decoded = 0;
    std::uint64_t subscribe_msgs = 0;
    std::uint64_t valid_keys = 0;
    std::uint64_t invalid_keys = 0;
    std::uint64_t session_joins = 0;
    std::uint64_t session_joins_refused = 0;
    std::uint64_t unsubscribes = 0;
    std::uint64_t grace_forwards = 0;
    std::uint64_t authorized_forwards = 0;
    std::uint64_t denied = 0;
    std::uint64_t probation_blocks = 0;
    std::uint64_t stale_prunes = 0;
    std::uint64_t pending_subscriptions = 0;
    // Probation-memory counters (all zero while the memory is disabled).
    std::uint64_t memory_records = 0;   // debts remembered at unsubscribe
    std::uint64_t memory_inherits = 0;  // rejoins that inherited a debt
    std::uint64_t memory_refusals = 0;  // joins refused on a remembered block
    std::uint64_t blocked_grants = 0;   // valid keys refused mid-cutoff
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

  /// Invalid keys submitted on an interface within the key history of the
  /// newest guessed slot — the guessing-attack tally of paper section 4.2.
  /// Windowed, unlike the cumulative `invalid_keys` counter, so long churny
  /// runs do not accumulate stale penalty weight.
  [[nodiscard]] std::uint64_t guess_tally(sim::link* iface) const;

  /// Subscriptions currently parked until their slot's key block decodes.
  /// Bounded by the key history: parked entries for a slot whose block never
  /// decodes are dropped with that slot's shards.
  [[nodiscard]] std::size_t parked_subscriptions() const;

 private:
  struct shard_buffer {
    int data_shards = 0;
    std::size_t payload_size = 0;
    std::vector<crypto::indexed_shard> received;
    bool decoded = false;
  };

  struct pending_subscription {
    sim::link* iface;
    int group_value;
    crypto::group_key key;
  };

  /// What the router holds for one target slot of a session.
  struct slot_state {
    shard_buffer shards;
    /// The decoded block's tuples (a handful, so a list beats a table).
    std::vector<std::pair<sim::group_addr, key_tuple>> keys;
    std::vector<pending_subscription> parked;  // waiting for the block
  };

  struct session_state {
    sim::time_ns slot_duration = 0;  // from the announcement
    std::int64_t max_seen_slot = -1;
    sim::slot_window<slot_state> slots;  // by target slot
  };

  /// Outstanding debt of a wiped interface×group, retained for
  /// `probation_memory_slots_` slots past the point it would have been
  /// served.
  struct probation_memory_record {
    sim::time_ns blocked_until = -1;  // cutoff the wipe tried to skip
    int keyless_rejoins = 0;          // escalation ladder position
    sim::time_ns expires_at = -1;     // the debt counts while now < this
  };

  /// What the router holds for one group on one interface.
  struct group_state {
    std::int64_t authorized_until = -1;
    std::int64_t grace_through_slot = -1;
    bool awaiting_first_packet = false;
    /// Admitted keylessly (session-join); must prove a key before the grace
    /// window closes or be cut off for at least one slot.
    bool probation = false;
    /// Cutoff deadline in absolute time (a pruned branch stops delivering
    /// packets, so slot numbers would freeze; wall-clock keeps the ">= one
    /// time slot" cutoff of section 3.2.2 well-defined).
    sim::time_ns blocked_until = -1;
    /// Probation cutoffs served without ever proving a key. Only maintained
    /// under probation memory; drives the geometric cutoff escalation and is
    /// reset by a valid key.
    int keyless_rejoins = 0;
    bool grafted = false;
    /// The debt the last unsubscribe left behind (probation memory only):
    /// the only field an unsubscribe keeps. It is checked when read, never
    /// swept.
    probation_memory_record debt;

    /// The remembered debt if it still counts at `now`, else nullptr.
    [[nodiscard]] const probation_memory_record* owed(sim::time_ns now) const {
      return now < debt.expires_at ? &debt : nullptr;
    }
  };

  /// What the router holds for one host-facing interface.
  struct iface_state {
    sim::group_map<group_state> groups;
    /// Guessing-attack tally: invalid keys bucketed by slot, so stale
    /// buckets decay out of the window instead of accumulating forever.
    sim::slot_window<std::uint64_t> guess_tally;
    /// Trace track ("sigma:<router>:<host>"), interned on the interface's
    /// first trace event.
    std::optional<std::uint32_t> track;
  };

  void on_ctrl(const sim::sigma_ctrl& hdr);
  void on_subscribe(const sim::sigma_subscribe& msg, sim::link* iface,
                    sim::node_id from);
  void on_unsubscribe(const sim::sigma_unsubscribe& msg, sim::link* iface);
  void on_session_join(const sim::sigma_session_join& msg, sim::link* iface);
  void try_decode(session_state& sess, std::int64_t target_slot);
  /// The state of announced session `id`, created from its announcement on
  /// first use; nullptr for a session never announced.
  [[nodiscard]] session_state* session(int id);
  /// The state of `iface`, indexed by its port on this router.
  [[nodiscard]] iface_state& port(sim::link* iface);
  void grant(sim::link* iface, int group_value, std::int64_t slot);
  void ungraft(int group_value, sim::link* iface, group_state& st);
  /// Record the group's outstanding debt in `st.debt` before the rest of
  /// `st` is wiped (no-op when there is none).
  void remember_debt(sim::link* iface, int group_value, group_state& st,
                     const session_state& sess);
  /// Count an invalid key against the interface's windowed guessing tally.
  void tally_guess(sim::link* iface, std::int64_t slot);
  /// Trace-sink append for one enforcement milestone on an interface's
  /// track ("sigma:<router>:<host>"); a dead branch when tracing is off.
  void trace(obs::trace_event kind, sim::link* iface, std::uint64_t a = 0,
             std::uint64_t b = 0);
  /// The one key comparison both validation paths (direct and
  /// pending-revalidation) share: raw tuple match, or the per-interface
  /// perturbed image under keying.
  [[nodiscard]] bool tuple_matches(const key_tuple& tuple,
                                   const crypto::group_key& submitted,
                                   sim::link* iface) const;

  sim::network& net_;
  sim::node_id router_;
  mcast::igmp_agent& tree_;
  bool interface_keying_ = false;
  int probation_memory_slots_ = 0;
  std::map<int, session_state> sessions_;
  std::vector<iface_state> ports_;  // by sim::link::port()
  counters stats_;
  /// Event-trace sink captured at construction.
  obs::trace_buffer* trace_ = nullptr;
};

}  // namespace mcc::core

#endif  // MCC_CORE_SIGMA_ROUTER_H
