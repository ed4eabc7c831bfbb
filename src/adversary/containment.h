// Containment metrics: how well the protocol held a misbehaving receiver.
//
// A containment_report is computed per attacker from throughput monitors
// after a run:
//
//   * attacker goodput share — the attacker's post-attack goodput as a share
//     of everything measured (attacker + honest flows). Under working
//     enforcement this stays near the fair share; under Figure-1-style
//     theft it approaches 1.
//   * honest-flow damage ratio — how much of the honest flows' pre-attack
//     goodput the attack destroyed (0 = unharmed, 1 = starved out).
//   * time-to-containment — how long after the attack onset the attacker's
//     goodput was last seen above its containment bound (bound_factor x the
//     honest per-flow mean). 0 means the attack never paid at all; -1 means
//     the attacker was still above the bound at the horizon (not
//     contained).
//
// All three are pure functions of recorded monitors, so they apply to any
// strategy x topology x qdisc cell of the attack matrix.
//
// The damage side is only half of an attack's economics: attacker_cost adds
// the attacker's own spend — control messages sent, key submissions that
// could never validate, and slots spent cut off — so the matrix can rank
// strategies by profitability (goodput gained per unit of effort), not just
// by how long the protocol took to rein them in. Cost is collected from the
// receiver's strategy/membership counters by measure_cost and folded into a
// containment_report by attach_cost.
#ifndef MCC_ADVERSARY_CONTAINMENT_H
#define MCC_ADVERSARY_CONTAINMENT_H

#include <cstdint>
#include <vector>

#include "core/sigma_router.h"
#include "flid/flid_receiver.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace mcc::adversary {

struct containment_config {
  sim::time_ns attack_start = 0;
  sim::time_ns horizon = 0;
  /// Transient skipped after the onset before "after" means are taken.
  sim::time_ns settle = sim::seconds(10.0);
  /// Pre-attack reference window: [attack_start - pre, attack_start).
  sim::time_ns pre = sim::seconds(20.0);
  /// Resolution of the time-to-containment scan, and the smoothing window
  /// each scanned rate is averaged over (slot/layer quantization makes
  /// 1-second raw bins flicker).
  sim::time_ns bin = sim::seconds(1.0);
  sim::time_ns smooth = sim::seconds(5.0);
  /// Contained = attacker goodput at or below bound_factor x the reference
  /// per-flow mean. Layers are spaced by a 1.5x rate multiplier, so the
  /// default grants one layer of quantization headroom.
  double bound_factor = 1.6;
  /// Reference floor so a starved honest set cannot make the bound vacuous.
  double floor_kbps = 50.0;
};

/// The attacker's own spend over a run, attributable to one receiver.
struct attacker_cost {
  /// Control messages sent: SIGMA subscribes/unsubscribes/session-joins and
  /// retransmits, or IGMP joins/leaves in the plain world.
  std::uint64_t ctrl_msgs = 0;
  /// Wire bytes of those messages. Messages are not equal: a guessing flood
  /// stuffs dozens of key pairs into each subscribe while a sparse replay
  /// rides nearly free, so per-byte profitability is the ranking that makes
  /// floods look as expensive as they are.
  std::uint64_t ctrl_bytes = 0;
  /// Key submissions that can never validate: random guesses plus stale
  /// replays (section 4.2's guessing attack, priced).
  std::uint64_t useless_keys = 0;
  /// Evaluated slots in which the router delivered nothing — time served
  /// under probation blocks and stale prunes.
  std::uint64_t cutoff_slots = 0;
};

struct containment_report {
  double attacker_kbps = 0.0;       // mean over [start + settle, horizon)
  double honest_kbps = 0.0;         // per-flow honest mean, same window
  double honest_before_kbps = 0.0;  // per-flow honest mean before the onset
  double attacker_share = 0.0;      // attacker / (attacker + all honest)
  double honest_damage = 0.0;       // 1 - after/before, clamped to [0, 1]
  double containment_bound_kbps = 0.0;
  double time_to_containment_s = -1.0;  // -1 = not contained by horizon
  bool contained = false;
  /// Attacker-side spend (zeroed until attach_cost is called).
  attacker_cost cost{};
  /// Profitability: attacker goodput per control message sent,
  /// attacker_kbps / max(1, ctrl_msgs). High = a cheap attack (whether or
  /// not it was contained); near zero = the attacker burned control-plane
  /// effort for nothing. Set by attach_cost.
  double profit_kbps_per_msg = 0.0;
  /// Profitability per control-plane kilobyte, attacker_kbps / max(1 KB,
  /// ctrl_bytes / 1024). The byte-priced ranking: key-stuffed guessing
  /// floods pay per pair and rank below sparse replays here even when their
  /// message counts match. Set by attach_cost.
  double profit_kbps_per_kb = 0.0;
};

/// Computes the report for one attacker against a set of honest monitors
/// (multicast receivers and/or unicast sinks). Requires
/// attack_start + settle < horizon and at least one honest monitor. The
/// containment bound is referenced to the honest per-flow mean.
[[nodiscard]] containment_report measure_containment(
    const sim::throughput_monitor& attacker,
    const std::vector<const sim::throughput_monitor*>& honest,
    const containment_config& cfg);

/// Same, with an explicit reference set for the containment bound: `honest`
/// still defines share and damage, but the bound tracks the per-flow mean
/// of `reference` (typically the attacker's honest same-session peers,
/// whose layered rate is the natural yardstick — unicast victims run a
/// different control law).
[[nodiscard]] containment_report measure_containment(
    const sim::throughput_monitor& attacker,
    const std::vector<const sim::throughput_monitor*>& honest,
    const std::vector<const sim::throughput_monitor*>& reference,
    const containment_config& cfg);

/// Collects the receiver's attributable spend from its strategy and
/// membership counters: SIGMA strategies report their message/key/cutoff
/// counters, plain-world strategies their IGMP client's join/leave count.
/// Works for honest receivers too (their spend is the baseline attackers
/// are compared against).
[[nodiscard]] attacker_cost measure_cost(const flid::flid_receiver& r);

/// Folds a cost into a report and derives profit_kbps_per_msg and
/// profit_kbps_per_kb.
void attach_cost(containment_report& rep, const attacker_cost& cost);

/// The probation-memory hit rate of one edge router's counters:
/// (memory_refusals + memory_inherits) / (session_joins + memory_refusals),
/// 0 when the edge saw no admission attempts (or the memory is off). On an
/// honest edge this is the false-positive price of probation memory, the
/// `fp_block_rate` row value of fig_flash_crowd.
[[nodiscard]] double memory_block_rate(
    const core::sigma_router_agent::counters& edge);

}  // namespace mcc::adversary

#endif  // MCC_ADVERSARY_CONTAINMENT_H
