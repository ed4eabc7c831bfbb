// FLID receiver: per-slot reception bookkeeping (loss detection by header
// packet counts, DELTA component accumulation) and a pluggable subscription
// strategy. One receiver serves both session structures (paper section
// 3.1.2): level g holds groups 1..g of a cumulative session, or group g
// alone of a replicated one (flid_config::lowest_group).
//
// The strategy split mirrors the paper's separation of concerns: the
// *receiver* observes its congestion state per slot; the *strategy* decides
// how to act on it — honest IGMP membership (plain FLID-DL), honest
// DELTA/SIGMA key submission (FLID-DS), or one of the misbehaving variants
// used in the attack experiments.
#ifndef MCC_FLID_FLID_RECEIVER_H
#define MCC_FLID_FLID_RECEIVER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cm/congestion_manager.h"
#include "crypto/key.h"
#include "flid/flid_config.h"
#include "mcast/igmp.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/slot_window.h"
#include "sim/stats.h"

namespace mcc::flid {

/// Reception record for one (group, slot).
struct group_slot_record {
  int received = 0;
  int expected = -1;  // from header packets_in_slot; -1 = no packet seen
  bool full_slot = false;  // subscribed for the entire slot
  crypto::group_key xor_components{};
  std::optional<crypto::group_key> decrease;
  bool scrubbed = false;  // a packet arrived ECN-marked; its component is out
  /// Shamir shares collected from this group's packets (threshold protocols
  /// only; empty under XOR-based DELTA).
  std::vector<sim::level_share> shares;

  /// All transmitted packets of this group/slot were received intact.
  [[nodiscard]] bool complete() const {
    return expected >= 0 && received >= expected && !scrubbed;
  }
};

/// Everything a strategy needs to act on one evaluated slot.
struct slot_summary {
  std::int64_t slot = 0;
  /// Level held for the whole slot: groups lowest_group(level)..level of the
  /// session (0 = none held since the slot began).
  int level = 0;
  bool congested = false;
  std::uint32_t auth_mask = 0;
  std::vector<group_slot_record> groups;  // index 0 unused; 1..num_groups

  [[nodiscard]] bool upgrade_authorized(int g) const {
    return (auth_mask & (1u << g)) != 0;
  }
  /// The groups that delivered packets this slot, counted from group 1 up
  /// to the first silent one: the prefix the edge router granted (0 = cut
  /// off, or group 1 withdrawn).
  [[nodiscard]] int granted() const;
  /// This slot as seen at cumulative level `n` (SIGMA sessions are
  /// cumulative): `level` = n and `congested` recomputed over groups 1..n.
  [[nodiscard]] slot_summary at_level(int n) const;
};

/// Which protocol world a receiver strategy drives: raw IGMP membership
/// (FLID-DL) or key-based SIGMA access (FLID-DS).
enum class protocol { plain, sigma };

class flid_receiver;

/// Decides subscription changes after each slot; owns all signalling.
class subscription_strategy {
 public:
  virtual ~subscription_strategy() = default;
  /// Initial admission into the session.
  virtual void session_start(flid_receiver& r) = 0;
  /// Decides and applies the subscription after evaluating `s`.
  virtual void on_slot(flid_receiver& r, const slot_summary& s) = 0;
};

class flid_receiver : public sim::agent {
 public:
  flid_receiver(sim::network& net, sim::node_id host, sim::node_id edge_router,
                const flid_config& cfg,
                std::unique_ptr<subscription_strategy> strategy);
  ~flid_receiver() override;

  /// Joins the session at time `at` (via the strategy) and starts slot
  /// evaluation timers.
  void start(sim::time_ns at);

  bool handle_packet(const sim::packet& p, sim::link* arrival) override;

  // --- state exposed to strategies and experiments ---------------------------
  [[nodiscard]] const flid_config& config() const { return cfg_; }
  [[nodiscard]] sim::network& net() const { return net_; }
  [[nodiscard]] sim::node_id host() const { return host_; }
  [[nodiscard]] sim::node_id edge_router() const { return edge_router_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] sim::throughput_monitor& monitor() { return monitor_; }
  [[nodiscard]] mcast::membership_client& membership() { return membership_; }
  [[nodiscard]] const mcast::membership_client& membership() const {
    return membership_;
  }
  /// The strategy driving this receiver (adversary::measure_cost inspects it
  /// to attribute control-plane spend per receiver).
  [[nodiscard]] const subscription_strategy& strategy() const {
    return *strategy_;
  }

  /// Subscription level over time, one entry per change: (time, level).
  [[nodiscard]] const std::vector<std::pair<sim::time_ns, int>>& level_history()
      const {
    return level_history_;
  }

  /// Attaches this receiver to a shared congestion manager (exp::testbed's
  /// `cm` facility): every evaluated slot is reported to `manager` under
  /// `path`, and the slot summary's upgrade-authorization mask is capped to
  /// the manager's level_cap before the strategy sees it. Detached (the
  /// default), slot evaluation is byte-identical to the legacy path. The
  /// caller registers/unregisters the session with the manager; this only
  /// wires the data plane. Must be called before start().
  void set_congestion_path(cm::congestion_manager* manager, cm::path_id path);

  /// The congestion manager this receiver reports to; nullptr = detached.
  [[nodiscard]] cm::congestion_manager* congestion_manager() const {
    return cm_;
  }

  // --- primitives used by strategies ------------------------------------------
  /// Updates the subscription level: leaves, then joins, the local host
  /// state of the groups the move drops and adds (flid_config::holds), and
  /// records join times for full-slot bookkeeping. Does NOT signal the
  /// network (strategies do that via IGMP or SIGMA messages).
  void set_local_level(int new_level);

  struct counters {
    std::uint64_t packets = 0;
    std::uint64_t slots_congested = 0;
    std::uint64_t slots_evaluated = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t downgrades = 0;
    /// Slots where the shared congestion manager's cap actually removed
    /// upgrade-authorization bits the slot had granted. Zero bindings over a
    /// run proves the strategy saw exactly the legacy summaries (the
    /// cm_test conformance law: no bindings => byte-identical behaviour).
    std::uint64_t cm_bindings = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  void evaluate_slot(std::int64_t slot);
  void evaluate_up_to(std::int64_t slot);  // evaluates [eval_slot_, slot]
  void arm_fallback();
  /// Completes `slot`'s summary, moving its records out of `records_`.
  [[nodiscard]] slot_summary summarize(std::int64_t slot);
  /// Reports `summary` to the shared congestion manager and caps its
  /// auth_mask to the manager's level cap (no-op when detached).
  void apply_congestion_manager(slot_summary& summary);

  sim::network& net_;
  sim::node_id host_;
  sim::node_id edge_router_;
  flid_config cfg_;
  std::unique_ptr<subscription_strategy> strategy_;
  mcast::membership_client membership_;
  sim::throughput_monitor monitor_;

  /// Shared congestion manager (exp::testbed facility); nullptr = detached,
  /// which keeps slot evaluation byte-identical to the legacy path.
  cm::congestion_manager* cm_ = nullptr;
  cm::path_id cm_path_{};
  /// Cumulative per-level rates in Kbps, precomputed at attach time so slot
  /// evaluation consults the manager without per-slot allocation.
  std::vector<double> cm_cum_kbps_;
  obs::trace_buffer* cm_trace_ = nullptr;
  std::uint32_t cm_track_ = 0;

  int level_ = 0;  // current target subscription level
  std::vector<sim::time_ns> join_time_;  // per group (1..N); -1 = not joined
  /// Next slot awaiting evaluation. Slot s is evaluated when the first
  /// packet of a later slot arrives (the session's packets share one FIFO
  /// path, so a slot-(s+1) arrival implies slot s is fully drained), with a
  /// wall-clock fallback for blackouts.
  std::int64_t eval_slot_ = -1;
  sim::event_handle eval_fallback_;
  /// Per-group records and upgrade mask of the slots not yet evaluated.
  sim::slot_window<slot_summary> records_;
  std::vector<std::pair<sim::time_ns, int>> level_history_;
  bool started_ = false;
  /// Liveness token captured by scheduled lambdas so a destroyed receiver's
  /// pending timer events become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  counters stats_;
};

// ---------------------------------------------------------------------------
// Plain-IGMP strategies (the unprotected world of Figure 1)
// ---------------------------------------------------------------------------

/// One honest FLID-DL control step: the new target level for a receiver at
/// `level` after evaluating `s`, never exceeding `cap` — drop the top layer
/// on a lossy slot, add a layer when authorized and loss-free. Shared by
/// honest_plain_strategy (cap = num_groups) and population aggregates, whose
/// cap is the highest layer any live member demands.
[[nodiscard]] int honest_level_step(int level, int cap, const slot_summary& s);

/// Applies a target level through the plain control plane: IGMP leaves for
/// the groups the move drops (highest first), then joins for the groups it
/// adds, then the local level update. The one membership step of every
/// plain strategy, honest or attacking, cumulative or replicated.
void apply_plain_level(flid_receiver& r, int target);

/// Well-behaved FLID-DL receiver and the base of every plain strategy:
/// on_slot applies decide()'s target level through apply_plain_level. The
/// honest decision drops the top layer on a lossy slot and adds a layer
/// when authorized and loss-free (in a replicated session: one group down
/// or up).
class honest_plain_strategy : public subscription_strategy {
 public:
  void session_start(flid_receiver& r) override;
  void on_slot(flid_receiver& r, const slot_summary& s) final;

 protected:
  /// The level to hold after `s`.
  [[nodiscard]] virtual int decide(const flid_receiver& r,
                                   const slot_summary& s);
};

}  // namespace mcc::flid

#endif  // MCC_FLID_FLID_RECEIVER_H
