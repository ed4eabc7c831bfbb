// Pluggable adversary subsystem: scripted attack strategies for multicast
// receivers, built on the same subscription_strategy seam the honest
// protocol uses.
//
// A receiver's (mis)behaviour is described declaratively by an
// adversary::profile — which attack, when it starts, and its shape
// parameters — and compiled into a concrete flid::subscription_strategy by
// make_strategy() for either protocol world:
//
//   * flid::protocol::plain — raw IGMP membership (FLID-DL, the
//     unprotected world of paper Figure 1): the router honours any join.
//   * flid::protocol::sigma — key-based access control (FLID-DS, Figures
//     6/7): every claimed layer needs a DELTA-reconstructible key, so the
//     attack surface is the key machinery itself.
//
// Five attack strategies ship (plus honest):
//
//   inflate_once   The paper's attack: honest until `start`, then claim the
//                  maximal subscription forever and ignore congestion. In
//                  SIGMA mode, unprovable layers are backed by the
//                  configured key_mode (best-effort / stale replay / random
//                  guessing, section 4.2).
//   pulse_inflate  On/off oscillation of the same attack, tuned against
//                  DELTA's measurement windows: inflate for `pulse_on`,
//                  behave honestly for `pulse_off`, repeat. The off phases
//                  let the attacker re-prove keys at its entitled level, so
//                  each on phase restarts from a clean slate — the
//                  worst case for time-to-containment.
//   churn_flap     Rapid join/leave across layers: alternate between
//                  climbing and collapsing the subscription every
//                  `flap_period_slots` slots, thrashing IGMP graft/prune
//                  and SIGMA's per-interface authorization state. A state
//                  attack, not a bandwidth attack.
//   deaf_receiver  Ignores congestion signals and never drops a layer:
//                  climbs whenever the protocol authorizes an upgrade and
//                  holds everything it ever had. The "broken client"
//                  shape rather than a deliberate thief.
//   collusion      N receivers (one coalition id) pool reconstructed keys
//                  through a shared collusion_coordinator: each colluder
//                  deposits what it can prove and replays pool keys for
//                  layers its own congestion state does not entitle it to
//                  (paper section 4.2's key-sharing attack; defeated by
//                  interface keying). In plain mode there are no keys to
//                  share, so collusion degenerates to per-member inflation.
//
// Two closed-loop (adaptive) strategies bound the worst case instead of the
// typical case — both are driven by the slot_feedback hook on the SIGMA
// strategy interface (core::honest_sigma_strategy::on_feedback):
//
//   adaptive_pulse Measurement-driven pulse_inflate: probes once to measure
//                  the enforcement lag (onset -> observed claw-back), then
//                  attacks for exactly that long each cycle, retreating to
//                  the honest machinery just before punishment lands and
//                  returning as soon as keys are re-proven. The duty cycle
//                  converges to lag/(lag + recovery) — the best sustained
//                  theft a pulsing attacker can extract from SIGMA's
//                  enforcement granularity.
//   adaptive_churn Grace-window free-rider synchronized to SIGMA's two-slot
//                  keyless grace: session-join, consume the grace, then
//                  unsubscribe (wiping the interface state, and with it the
//                  pending probation) and rejoin for a fresh window — data
//                  forever without ever proving a key. A worst case for the
//                  keyless-admission policy, not a bandwidth attack (only
//                  the minimal group is ever granted).
//
// In the plain world neither enforcement signal exists (the router honours
// every join), so the adaptive kinds compile to their scripted counterparts
// (pulse_inflate / churn_flap) there.
//
// All strategies are deterministic: randomness comes only from seeds handed
// in by the builder (exp::testbed's seed chain), and the adaptive loops are
// pure functions of observed slot feedback, so attack runs are bit-identical
// across exp::sweep --jobs counts, like the rest of the engine.
#ifndef MCC_ADVERSARY_ADVERSARY_H
#define MCC_ADVERSARY_ADVERSARY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/flid_ds.h"
#include "crypto/key.h"
#include "flid/flid_receiver.h"
#include "sim/slot_window.h"
#include "sim/time.h"

namespace mcc::adversary {

/// The attack taxonomy. `honest` is a first-class member so a profile can
/// express "no attack" and factories need no special case.
enum class strategy_kind {
  honest,
  inflate_once,
  pulse_inflate,
  churn_flap,
  deaf_receiver,
  collusion,
  adaptive_pulse,
  adaptive_churn,
};

/// Canonical flag spelling ("inflate_once", "churn_flap", ...).
[[nodiscard]] const char* strategy_name(strategy_kind k);
/// Inverse of strategy_name; nullopt on unknown.
[[nodiscard]] std::optional<strategy_kind> strategy_from_name(
    const std::string& name);
/// Every attacking kind, in declaration order (excludes honest) — the
/// default strategy axis of the attack-matrix bench.
[[nodiscard]] const std::vector<strategy_kind>& all_attacks();

/// How a SIGMA attacker backs layers it cannot prove (hoisted alias of
/// core::misbehaving_sigma_strategy::key_mode).
using key_mode = core::misbehaving_sigma_strategy::key_mode;

/// Canonical flag spelling ("best_effort", "replay", "guess").
[[nodiscard]] const char* key_mode_name(key_mode m);
/// Inverse of key_mode_name; nullopt on unknown.
[[nodiscard]] std::optional<key_mode> key_mode_from_name(
    const std::string& name);

/// Declarative description of one receiver's (mis)behaviour. Defaults are
/// honest; factories below fill the fields each strategy reads.
struct profile {
  strategy_kind kind = strategy_kind::honest;
  /// Attack onset. Every strategy behaves honestly before this time.
  sim::time_ns start = 0;
  /// inflate_once / pulse_inflate, plain (IGMP) world only: level the
  /// attacker claims (<= 0: all groups, the strongest attack). SIGMA
  /// attackers always claim everything — entitlement, not the script, is
  /// what caps them.
  int inflate_level = 0;
  /// SIGMA mode: how unprovable layers are backed.
  key_mode keys = key_mode::guess;
  /// pulse_inflate: attack / recovery phase durations. adaptive_pulse reads
  /// pulse_on as its maximal probe duration (phases are measured after the
  /// first claw-back) and ignores pulse_off.
  sim::time_ns pulse_on = sim::seconds(5.0);
  sim::time_ns pulse_off = sim::seconds(5.0);
  /// churn_flap: slots per phase (1 = toggle every slot) and — in the
  /// plain world — the level flapped up to (<= 0: all groups). The SIGMA
  /// churner climbs by honest entitlement instead; depth does not apply.
  int flap_period_slots = 1;
  int flap_depth = 0;
  /// collusion: receivers sharing a coalition id share one key pool.
  int coalition = 1;

  [[nodiscard]] bool attacks() const { return kind != strategy_kind::honest; }
};

// Profile factories, one per strategy.
[[nodiscard]] profile honest();
[[nodiscard]] profile inflate_once(sim::time_ns start,
                                   key_mode keys = key_mode::guess,
                                   int inflate_level = 0);
[[nodiscard]] profile pulse_inflate(sim::time_ns start,
                                    sim::time_ns on = sim::seconds(5.0),
                                    sim::time_ns off = sim::seconds(5.0),
                                    key_mode keys = key_mode::guess);
[[nodiscard]] profile churn_flap(sim::time_ns start, int period_slots = 1,
                                 int depth = 0);
[[nodiscard]] profile deaf_receiver(sim::time_ns start);
[[nodiscard]] profile collusion(sim::time_ns start, int coalition = 1,
                                key_mode keys = key_mode::best_effort);
/// Adaptive pulse: `on` is the maximal probe duration (how long the first
/// attack phase may run while the enforcement lag is still unmeasured);
/// later phases use the measured lag. In the plain world this compiles to
/// pulse_inflate(start, on, pulse_off).
[[nodiscard]] profile adaptive_pulse(sim::time_ns start,
                                     sim::time_ns on = sim::seconds(5.0),
                                     key_mode keys = key_mode::guess);
/// Adaptive churn (grace riding); compiles to churn_flap(start, 1) in the
/// plain world.
[[nodiscard]] profile adaptive_churn(sim::time_ns start);

/// Shared key pool of one coalition: colluders deposit every key they
/// reconstruct and look up keys for layers they cannot prove themselves.
/// The pool keeps `core::key_history_slots` slots below the newest deposit:
/// older keys can never validate again.
///
/// Keys carry a `scope`: the interface identity they are valid at. Without
/// interface keying every key is universal (scope 0, the default), so any
/// colluder's deposit answers any colluder's lookup — the cross-edge
/// channel of paper section 4.2. With interface keying each colluder only
/// ever possesses its own interface's key image, so deposits are tagged
/// with the depositing host and lookups only match keys usable at the
/// requesting host: cross-interface queries miss, and `hits` goes to zero.
class collusion_coordinator {
 public:
  struct counters {
    std::uint64_t deposits = 0;  // keys entered into the pool
    std::uint64_t lookups = 0;   // queries for unprovable layers
    std::uint64_t hits = 0;      // queries answered from the pool
  };

  void deposit(std::int64_t subscribe_slot, int group,
               const crypto::group_key& key, std::uint64_t scope = 0);
  /// Pool key for (slot, group) usable at `scope`; nullptr on miss. Counts
  /// lookups/hits.
  [[nodiscard]] const crypto::group_key* lookup(std::int64_t subscribe_slot,
                                                int group,
                                                std::uint64_t scope = 0);
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  struct pooled_key {
    int group;
    std::uint64_t scope;
    crypto::group_key key;
  };

  sim::slot_window<std::vector<pooled_key>> keys_;  // by subscribe slot
  counters stats_;
};

/// Everything make_strategy needs from its builder besides the profile:
/// a seed source (called once per strategy that consumes randomness — the
/// call order defines the world's seed chain, so the factory only calls it
/// when the strategy actually needs a stream), the coalition pools, and
/// whether the scenario runs the interface-keying countermeasure (SIGMA
/// strategies must perturb the keys they submit to match the router).
struct build_context {
  std::function<std::uint64_t()> next_seed;
  std::function<collusion_coordinator&(int coalition)> coordinator;
  bool interface_keying = false;
};

/// Compiles a profile into a live strategy for the given protocol world.
/// inflate_once compiles to a raw-IGMP inflater (plain) or to
/// core::misbehaving_sigma_strategy (SIGMA). Every plain strategy changes
/// membership through flid::apply_plain_level.
[[nodiscard]] std::unique_ptr<flid::subscription_strategy> make_strategy(
    flid::protocol proto, const profile& p, const build_context& ctx);

}  // namespace mcc::adversary

#endif  // MCC_ADVERSARY_ADVERSARY_H
