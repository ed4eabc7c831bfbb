// FLID-DS: FLID-DL integrated with DELTA and SIGMA (paper section 5.1).
//
// Sender side: flid_sender + delta_layered_sender (in-band key material) +
// sigma_ctrl_emitter (key tuples to edge routers), with SIGMA shim tags on
// data packets and 250 ms slots (half of FLID-DL's 500 ms so the two-slot
// SIGMA enforcement granularity matches FLID-DL's control granularity).
//
// Receiver side: subscription strategies for flid_receiver that reconstruct
// keys per Figure 4 and manage membership through SIGMA messages — an honest
// strategy, and misbehaving strategies used in the Figure 7 experiments.
#ifndef MCC_CORE_FLID_DS_H
#define MCC_CORE_FLID_DS_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/delta_layered.h"
#include "core/sigma_emitter.h"
#include "crypto/prng.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "obs/trace.h"

namespace mcc::core {

/// Everything the sender host runs for a FLID-DS session besides the FLID
/// sender itself. Keep alive for the lifetime of the session.
struct flid_ds_sender {
  std::unique_ptr<delta_layered_sender> delta;
  std::unique_ptr<sigma_ctrl_emitter> emitter;
};

/// Wires DELTA + SIGMA onto a flid_sender (must be called before start()).
/// The session must be cumulative: no SIGMA receiver strategy reconstructs
/// replicated keys.
[[nodiscard]] flid_ds_sender make_flid_ds_sender(
    sim::network& net, sim::node_id sender_host, flid::flid_sender& sender,
    std::uint64_t seed, const sigma_emitter_config& emitter_cfg = {});

/// Address-key pairs of one subscription message (Figure 6(b)).
using key_pairs = std::vector<std::pair<sim::group_addr, crypto::group_key>>;

/// Closed-loop feedback record computed once per evaluated slot: what the
/// receiver claimed going into the slot versus what the network actually
/// granted. Honest strategies ignore it; measurement-driven (adaptive)
/// adversaries key their schedules off it — the granted prefix is the only
/// signal through which a receiver can observe SIGMA's enforcement lag.
struct slot_feedback {
  std::int64_t slot = 0;
  sim::time_ns now = 0;
  /// Local subscription level entering the slot (what the receiver wanted).
  int claimed = 0;
  /// Contiguous group prefix that actually delivered packets this slot
  /// (what the edge router granted); 0 = fully cut off.
  int granted = 0;
};

/// Honest FLID-DS receiver strategy: per evaluated slot, reconstruct keys
/// (Figure 4), subscribe for slot s+2 with the address-key pairs, leave
/// dropped groups explicitly, and re-enter through session-join when cut off
/// at the minimal level.
class honest_sigma_strategy : public flid::subscription_strategy,
                              public sim::agent {
 public:
  honest_sigma_strategy() = default;
  ~honest_sigma_strategy() override;

  void session_start(flid::flid_receiver& r) override;
  int on_slot(flid::flid_receiver& r, const flid::slot_summary& s) override;
  bool handle_packet(const sim::packet& p, sim::link* arrival) override;

  /// Collusion countermeasure mode: perturb reconstructed keys with the
  /// receiving host id before submission (must match the router setting).
  void set_interface_keying(bool on) { interface_keying_ = on; }
  [[nodiscard]] bool interface_keying() const { return interface_keying_; }

  struct counters {
    std::uint64_t subscribes = 0;
    std::uint64_t unsubscribes = 0;
    std::uint64_t session_joins = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t cutoffs = 0;  // congested at level 1, keys lost
    /// Evaluated slots in which nothing at all was delivered — the "slots
    /// spent cut off" term of the attacker cost accounting. Honest receivers
    /// accrue these only during blackouts/joins; attackers accrue them while
    /// serving the router's probation and stale-prune cutoffs.
    std::uint64_t cutoff_slots = 0;
    /// Wire bytes of every control message sent (subscribes, unsubscribes,
    /// session-joins, retransmissions included). Key-stuffed subscribes pay
    /// per pair, so a guessing flood is far more expensive per message than
    /// a sparse replay — the byte-priced cost model of attacker_cost.
    std::uint64_t ctrl_bytes = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 protected:
  /// Shared mechanics for subclasses (the misbehaving strategy reuses the
  /// honest machinery but lies about its subscription decisions).
  void attach(flid::flid_receiver& r);
  /// Computes the slot's closed-loop feedback (claimed vs granted levels),
  /// fires on_feedback, and returns the record. Every on_slot path — honest,
  /// misbehaving, and the adaptive subclasses' own overrides — calls this
  /// exactly once per evaluated slot, so adaptive adversaries observe the
  /// network no matter which action path runs afterwards.
  slot_feedback observe_slot(flid::flid_receiver& r,
                             const flid::slot_summary& s);
  /// Feedback hook on the strategy interface: sees every slot_feedback
  /// record. The default does nothing; measurement-driven adversaries
  /// (adversary::adaptive_pulse / adaptive_churn) tune their schedules here.
  virtual void on_feedback(const slot_feedback& fb) { (void)fb; }
  /// Key-report hook: observes every DELTA reconstruction result (keys
  /// proving `subscribe_slot`) before submission. Adversary strategies that
  /// pool or leak keys (collusion) tap in here; the default does nothing.
  virtual void on_keys_reconstructed(
      std::int64_t subscribe_slot,
      const std::vector<std::pair<int, crypto::group_key>>& keys) {
    (void)subscribe_slot;
    (void)keys;
  }
  void send_subscribe(std::int64_t slot, const key_pairs& pairs);
  void send_unsubscribe(const std::vector<sim::group_addr>& groups);
  void send_session_join();
  /// Proves what the edge granted: reconstructs the keys `eff` earns
  /// (Figure 4), reports them to on_keys_reconstructed, and appends their
  /// address-key pairs for slot eff.slot + key_lead_slots to `pairs`,
  /// perturbed under interface keying.
  delta_reconstruction prove(const flid::slot_summary& eff, key_pairs& pairs);
  /// Moves the local level to `n`, unsubscribing first from the groups above
  /// `n` it drops.
  void set_level(flid::flid_receiver& r, int n);
  /// The honest per-slot action; returns the new level.
  int honest_action(flid::flid_receiver& r, const flid::slot_summary& s);
  /// The empty-slot step every honest action starts with: when nothing at
  /// all arrived over the slot, counts a cut-off slot and re-enters through
  /// session-join after two such slots. Returns whether the slot was empty.
  bool empty_slot(const flid::flid_receiver& r, const flid::slot_summary& s);
  [[nodiscard]] crypto::group_key maybe_perturb(crypto::group_key k) const;

  sim::network* net_ = nullptr;
  flid::flid_receiver* receiver_ = nullptr;
  std::unique_ptr<delta_layered_receiver> delta_;
  bool interface_keying_ = false;
  std::uint64_t next_msg_id_ = 1;
  sim::time_ns last_session_join_ = -1;
  std::int64_t empty_slots_ = 0;
  /// Event-trace sink + this receiver's track, captured in attach(); null
  /// unless the world was built inside an obs::trace_scope.
  obs::trace_buffer* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;

  struct pending_msg {
    sim::packet pkt;
    int retries_left = 2;
    sim::event_handle timer;
  };
  std::map<std::uint64_t, pending_msg> pending_;
  /// Liveness token for scheduled lambdas (retransmits, deferred rejoins).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  counters stats_;

 private:
  void arm_retransmit(std::uint64_t msg_id);
};

/// Misbehaving FLID-DS receiver: honest until `inflate_at`, then claims the
/// maximal subscription level regardless of congestion. For groups it cannot
/// prove keys for, it optionally replays stale keys or floods random guesses
/// (section 4.2's guessing attack). DELTA/SIGMA confine it to the
/// subscription its congestion state entitles it to (Figure 7).
class misbehaving_sigma_strategy : public honest_sigma_strategy {
 public:
  enum class key_mode {
    best_effort,  // submit only honestly reconstructible keys
    replay,       // add stale keys remembered from earlier slots
    guess,        // add random keys for unproven groups
  };

  misbehaving_sigma_strategy(sim::time_ns inflate_at, key_mode mode,
                             std::uint64_t seed, int guesses_per_group = 8);

  int on_slot(flid::flid_receiver& r, const flid::slot_summary& s) override;

  struct attack_counters {
    std::uint64_t guessed_keys = 0;
    std::uint64_t replayed_keys = 0;
    std::uint64_t attack_slots = 0;
  };
  [[nodiscard]] const attack_counters& attack_stats() const {
    return attack_stats_;
  }

 protected:
  /// Whether the attack is live right now. The base checks `inflate_at`;
  /// pulse-style subclasses overlay their own on/off schedule. Slots where
  /// this is false run the honest machinery (which re-proves keys, so the
  /// next active phase starts from a clean entitlement).
  [[nodiscard]] virtual bool attack_active() const;
  /// One attacking slot: claim everything locally, submit every key that
  /// might stick. Shared by subclasses that gate the attack differently.
  int attack_action(flid::flid_receiver& r, const flid::slot_summary& s);
  /// Out-of-band keys for a group beyond the provable prefix (the collusion
  /// pool). Appending a pair and returning true suppresses replay/guessing
  /// for that group; the default has no side channel.
  virtual bool sidechannel_keys(int group, std::int64_t subscribe_slot,
                                const flid::flid_config& cfg,
                                key_pairs& pairs) {
    (void)group;
    (void)subscribe_slot;
    (void)cfg;
    (void)pairs;
    return false;
  }
  [[nodiscard]] sim::time_ns inflate_at() const { return inflate_at_; }

 private:
  sim::time_ns inflate_at_;
  key_mode mode_;
  crypto::prng rng_;
  int guesses_per_group_;
  // Last key successfully reconstructed per group (for replay).
  std::map<int, crypto::group_key> stale_keys_;
  attack_counters attack_stats_;
};

}  // namespace mcc::core

#endif  // MCC_CORE_FLID_DS_H
