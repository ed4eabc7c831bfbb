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
/// The session must be cumulative: DELTA's keys are the cumulative algebra
/// of Figure 4, and it has none for replicated sessions.
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

/// A receiver's decision for one slot (the per-slot choice DELTA/SIGMA
/// police), which honest_sigma_strategy's apply step carries out.
struct slot_decision {
  int level = 0;  // local subscription level after the slot
  /// Keys proving slot s + key_lead_slots; empty = no subscribe.
  key_pairs pairs{};
  std::vector<sim::group_addr> leave{};  // empty = no unsubscribe
  bool rejoin = false;  // ask for keyless re-admission (session-join)
  /// The granted-prefix fold: the host leaves the groups above `fold`
  /// locally (the router withdrew them) before moving to `level`, so a
  /// group climbed back into is a fresh join. -1 = no fold.
  int fold = -1;
};

/// Honest FLID-DS receiver strategy and the base of every SIGMA strategy.
/// Each slot runs observe (on_feedback) -> decide -> apply. The honest
/// decision reconstructs keys (Figure 4), subscribes for slot s+2 with the
/// address-key pairs, leaves dropped groups explicitly, and re-enters
/// through session-join when cut off at the minimal level.
class honest_sigma_strategy : public flid::subscription_strategy,
                              public sim::agent {
 public:
  ~honest_sigma_strategy() override;

  void session_start(flid::flid_receiver& r) override;
  void on_slot(flid::flid_receiver& r, const flid::slot_summary& s) final;
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
  /// Binds the strategy to `r`; session_start does this first.
  void attach(flid::flid_receiver& r);
  /// The decision for slot `s`, whose feedback record is `fb`; the default
  /// is the honest one.
  [[nodiscard]] virtual slot_decision decide(const flid::flid_receiver& r,
                                             const flid::slot_summary& s,
                                             const slot_feedback& fb);
  /// Feedback hook: sees every slot's slot_feedback record before the
  /// decision. Measurement-driven adversaries (adversary::adaptive_pulse /
  /// adaptive_churn) tune their schedules here.
  virtual void on_feedback(const slot_feedback&) {}
  /// Key-report hook: observes every DELTA reconstruction result (keys
  /// proving `subscribe_slot`) before submission. Adversary strategies that
  /// pool or leak keys (collusion) tap in here.
  virtual void on_keys_reconstructed(
      std::int64_t /*subscribe_slot*/,
      const std::vector<std::pair<int, crypto::group_key>>& /*keys*/) {}
  /// The empty-slot step every honest decision starts with: when nothing at
  /// all arrived over the slot, counts a cut-off slot and sets `d.rejoin`
  /// after two such slots (and no session-join for two slot durations).
  /// Returns whether the slot was empty.
  bool empty_slot(const flid::flid_receiver& r, const flid::slot_summary& s,
                  slot_decision& d);
  /// Whether a session-join sent now passes the apply step's guard: at most
  /// one per slot duration.
  [[nodiscard]] bool may_rejoin() const;
  /// Proves what the edge granted: reconstructs the keys `eff` earns
  /// (Figure 4), reports them to on_keys_reconstructed, and appends their
  /// address-key pairs for slot eff.slot + key_lead_slots to `pairs`,
  /// perturbed under interface keying.
  delta_reconstruction prove(const flid::slot_summary& eff, key_pairs& pairs);
  /// The groups n+1..held, which a move from level `held` to `n` leaves.
  [[nodiscard]] static std::vector<sim::group_addr> leaves(
      const flid::flid_receiver& r, int n, int held);
  [[nodiscard]] crypto::group_key maybe_perturb(crypto::group_key k) const;

  sim::network* net_ = nullptr;
  flid::flid_receiver* receiver_ = nullptr;
  counters stats_;

 private:
  struct pending_msg {
    sim::packet pkt;
    int retries_left = 2;
    sim::event_handle timer;
  };

  /// The one step that acts on a decision, in this order: the session-join
  /// (if may_rejoin), the subscribe, the unsubscribe, then the local level
  /// (through the fold, when there is one).
  void apply(flid::flid_receiver& r, const flid::slot_summary& s,
             const slot_decision& d);
  void send_subscribe(std::int64_t slot, const key_pairs& pairs);
  void send_unsubscribe(const std::vector<sim::group_addr>& groups);
  void send_session_join();
  void arm_retransmit(std::uint64_t msg_id);

  std::unique_ptr<delta_layered_receiver> delta_;
  bool interface_keying_ = false;
  std::uint64_t next_msg_id_ = 1;
  sim::time_ns last_session_join_ = -1;
  std::int64_t empty_slots_ = 0;
  /// Event-trace sink + this receiver's track, captured in attach(); null
  /// unless the world was built inside an obs::trace_scope.
  obs::trace_buffer* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::map<std::uint64_t, pending_msg> pending_;
  /// Liveness token for the retransmit timers' lambdas.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
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
    guess,        // add 8 random keys per unproven group
  };

  misbehaving_sigma_strategy(sim::time_ns inflate_at, key_mode mode,
                             std::uint64_t seed);

  struct attack_counters {
    std::uint64_t guessed_keys = 0;
    std::uint64_t replayed_keys = 0;
    std::uint64_t attack_slots = 0;
  };
  [[nodiscard]] const attack_counters& attack_stats() const {
    return attack_stats_;
  }

 protected:
  /// While attack_active(): claim everything locally and submit every key
  /// that might stick. The honest decision otherwise.
  slot_decision decide(const flid::flid_receiver& r,
                       const flid::slot_summary& s,
                       const slot_feedback& fb) final;
  /// Whether the attack is live right now. The base checks `inflate_at`;
  /// pulse-style subclasses overlay their own on/off schedule. Slots where
  /// this is false run the honest machinery (which re-proves keys, so the
  /// next active phase starts from a clean entitlement).
  [[nodiscard]] virtual bool attack_active() const;
  /// Out-of-band keys for a group beyond the provable prefix (the collusion
  /// pool). Appending a pair and returning true suppresses replay/guessing
  /// for that group; the default has no side channel.
  virtual bool sidechannel_keys(int /*group*/,
                                std::int64_t /*subscribe_slot*/,
                                const flid::flid_config& /*cfg*/,
                                key_pairs& /*pairs*/) {
    return false;
  }
  [[nodiscard]] sim::time_ns inflate_at() const { return inflate_at_; }

 private:
  sim::time_ns inflate_at_;
  key_mode mode_;
  crypto::prng rng_;
  // Last key successfully reconstructed per group (for replay).
  std::map<int, crypto::group_key> stale_keys_;
  attack_counters attack_stats_;
};

}  // namespace mcc::core

#endif  // MCC_CORE_FLID_DS_H
