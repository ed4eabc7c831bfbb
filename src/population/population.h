// Aggregated receiver populations: the honest receivers behind one edge
// represented as a single per-interface aggregate instead of a million
// simulated objects.
//
// The paper's containment story is only interesting at scale — one attacker
// hiding among 10^6 honest subscribers — but a per-receiver simulation caps
// sessions at thousands. The observation that makes scale cheap is the same
// one behind ABR point-to-multipoint feedback consolidation (Fahmy et al.):
// a branch carries the *maximum* subscription any member behind it holds, so
// the router-visible behaviour of N honest receivers at an edge is exactly
// the behaviour of their consolidated maximum. An edge_aggregate therefore
// keeps only a count-per-layer demand vector plus a deterministic churn
// process (Poisson arrivals, per-member departure hazard, flash-crowd
// bursts, Zipf-skewed layer demand a la the measured multicast audience
// skew of Lucas et al.) — O(num_groups) state however many members it
// represents — and a single delegate flid_receiver drives the ordinary
// subscription/feedback surface (IGMP in the plain world, DELTA/SIGMA key
// submission in FLID-DS) at the consolidated level.
//
// Conformance contract (tests/population_test.cc): with churn off and every
// member demanding all layers, the delegate's subscription timeline is
// bit-identical to the consolidated timeline of the same number of
// individually simulated honest receivers, on every topology and in both
// protocol worlds. Individually simulated receivers — honest stragglers and
// adversaries from src/adversary/ — attach at the same edge through the
// normal testbed path and coexist with aggregates untouched.
//
// Determinism: the aggregate owns its own crypto::prng stream (seeded by the
// testbed seed chain only when a population is actually added), so legacy
// scenarios replay byte-identically and `--jobs N == --jobs 1` holds for
// every population sweep.
#ifndef MCC_POPULATION_POPULATION_H
#define MCC_POPULATION_POPULATION_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flid_ds.h"
#include "crypto/prng.h"
#include "flid/flid_config.h"
#include "flid/flid_receiver.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "util/zipf.h"

namespace mcc::population {

/// How arriving members pick the layer they demand.
struct demand_config {
  enum class kind {
    max,      // every member wants every layer (the conformance setting)
    uniform,  // uniform over 1..num_groups
    zipf,     // P(layer d) proportional to d^-s: most members want the base
  };
  kind k = kind::max;
  double zipf_s = 1.1;
};

/// The deterministic churn process, evaluated once per slot.
struct churn_config {
  /// Poisson arrival rate, members per second (0 = closed population).
  double arrival_per_sec = 0.0;
  /// Per-member departure hazard, 1/seconds (0 = nobody leaves).
  double leave_per_sec = 0.0;
  /// Flash crowd: at `flash_at` (< 0 = never), `flash_members` join in one
  /// slot; at `flash_leave_at` (< 0 = never) the surviving cohort leaves.
  sim::time_ns flash_at = -1;
  std::int64_t flash_members = 0;
  sim::time_ns flash_leave_at = -1;
};

struct population_config {
  std::int64_t initial_members = 0;
  demand_config demand;
  churn_config churn;
  /// PRNG stream seed; exp::testbed overwrites it from its seed chain.
  std::uint64_t seed = 1;
};

/// The aggregate itself: member state as a count-per-layer demand histogram,
/// churn on the slot clock, and analytic per-member goodput accounting.
/// Everything is O(num_groups) regardless of member count — state_bytes()
/// is the assertion hook for that invariant.
class edge_aggregate {
 public:
  edge_aggregate(sim::scheduler& sched, const flid::flid_config& session,
                 const population_config& cfg);

  /// What the delegate strategy observed for one evaluated slot.
  struct slot_view {
    std::int64_t slot = 0;
    sim::time_ns now = 0;
    /// Contiguous group prefix that actually delivered packets (the granted
    /// subscription members share).
    int granted = 0;
    bool congested = false;
  };

  /// Per-slot tick, called by the delegate strategy after every evaluated
  /// slot: accounts the slot's member goodput against the pre-churn
  /// histogram, then advances the churn process.
  void on_slot(const slot_view& v);

  /// Highest layer any live member demands — the consolidated subscription
  /// cap the delegate drives toward (0 = population empty).
  [[nodiscard]] int demand_cap() const;
  [[nodiscard]] std::int64_t member_count() const { return members_; }
  /// Live members per demanded layer; index 0 unused, 1..num_groups.
  [[nodiscard]] const std::vector<std::int64_t>& demand_histogram() const {
    return demand_count_;
  }

  /// Mean per-member goodput, recorded once per slot: a member demanding
  /// layer d receives the cumulative rate of min(granted, d). This monitor
  /// is the honest-population reference for containment measurement.
  [[nodiscard]] sim::throughput_monitor& member_monitor() {
    return member_monitor_;
  }
  [[nodiscard]] const sim::throughput_monitor& member_monitor() const {
    return member_monitor_;
  }
  /// Estimated bytes received across all members (analytic, not simulated).
  [[nodiscard]] double total_member_bytes() const {
    return total_member_bytes_;
  }

  /// Member-state footprint in bytes: the aggregate object plus its per-layer
  /// vectors. Deliberately excludes the member monitor's time bins (they grow
  /// with simulated time, not with members); asserting this equal across
  /// population sizes pins the O(interfaces)-not-O(receivers) contract.
  [[nodiscard]] std::size_t state_bytes() const;

  struct counters {
    std::uint64_t slots = 0;
    std::uint64_t arrivals = 0;        // Poisson arrivals
    std::uint64_t departures = 0;      // hazard departures
    std::uint64_t flash_arrivals = 0;  // flash-crowd joiners
    std::uint64_t flash_departures = 0;
    std::int64_t peak_members = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

  [[nodiscard]] const flid::flid_config& session() const { return session_; }

 private:
  /// Distributes `k` new members across demand layers (exact per-member
  /// draws for small k, sequential-binomial multinomial for storms, so a
  /// 10^6 flash costs O(num_groups) draws).
  void add_members(std::int64_t k, std::vector<std::int64_t>& into);
  void churn_tick(const slot_view& v);
  void account_slot(const slot_view& v);

  flid::flid_config session_;
  population_config cfg_;
  crypto::prng rng_;
  util::zipf_sampler zipf_;
  std::vector<std::int64_t> demand_count_;  // index 0 unused; 1..num_groups
  std::vector<std::int64_t> flash_cohort_;  // flash joiners still present
  std::int64_t members_ = 0;
  bool flash_joined_ = false;
  bool flash_left_ = false;
  double total_member_bytes_ = 0.0;
  sim::throughput_monitor member_monitor_;
  counters stats_;
};

/// Builds the delegate subscription strategy driving one aggregate: the
/// honest control law of the given protocol world, capped at the aggregate's
/// consolidated demand and reacting to churn (an emptied population tears
/// the subscription down; returning members re-admit it). With the cap at
/// num_groups the strategies are step-for-step identical to their honest
/// counterparts — the conformance contract above.
[[nodiscard]] std::unique_ptr<flid::subscription_strategy>
make_aggregate_strategy(flid::protocol proto, edge_aggregate& agg,
                        bool interface_keying = false);

}  // namespace mcc::population

#endif  // MCC_POPULATION_POPULATION_H
