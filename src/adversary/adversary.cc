#include "adversary/adversary.h"

#include <algorithm>

#include "core/delta_layered.h"
#include "util/require.h"

namespace mcc::adversary {

// ---------------------------------------------------------------------------
// Names and flag parsing
// ---------------------------------------------------------------------------

const char* strategy_name(strategy_kind k) {
  switch (k) {
    case strategy_kind::honest: return "honest";
    case strategy_kind::inflate_once: return "inflate_once";
    case strategy_kind::pulse_inflate: return "pulse_inflate";
    case strategy_kind::churn_flap: return "churn_flap";
    case strategy_kind::deaf_receiver: return "deaf_receiver";
    case strategy_kind::collusion: return "collusion";
    case strategy_kind::adaptive_pulse: return "adaptive_pulse";
    case strategy_kind::adaptive_churn: return "adaptive_churn";
  }
  return "?";
}

std::optional<strategy_kind> strategy_from_name(const std::string& name) {
  for (const strategy_kind k :
       {strategy_kind::honest, strategy_kind::inflate_once,
        strategy_kind::pulse_inflate, strategy_kind::churn_flap,
        strategy_kind::deaf_receiver, strategy_kind::collusion,
        strategy_kind::adaptive_pulse, strategy_kind::adaptive_churn}) {
    if (name == strategy_name(k)) return k;
  }
  return std::nullopt;
}

const std::vector<strategy_kind>& all_attacks() {
  static const std::vector<strategy_kind> kinds = {
      strategy_kind::inflate_once,  strategy_kind::pulse_inflate,
      strategy_kind::churn_flap,    strategy_kind::deaf_receiver,
      strategy_kind::collusion,     strategy_kind::adaptive_pulse,
      strategy_kind::adaptive_churn};
  return kinds;
}

const char* key_mode_name(key_mode m) {
  switch (m) {
    case key_mode::best_effort: return "best_effort";
    case key_mode::replay: return "replay";
    case key_mode::guess: return "guess";
  }
  return "?";
}

std::optional<key_mode> key_mode_from_name(const std::string& name) {
  for (const key_mode m :
       {key_mode::best_effort, key_mode::replay, key_mode::guess}) {
    if (name == key_mode_name(m)) return m;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Profile factories
// ---------------------------------------------------------------------------

profile honest() { return profile{}; }

profile inflate_once(sim::time_ns start, key_mode keys, int inflate_level) {
  profile p;
  p.kind = strategy_kind::inflate_once;
  p.start = start;
  p.keys = keys;
  p.inflate_level = inflate_level;
  return p;
}

profile pulse_inflate(sim::time_ns start, sim::time_ns on, sim::time_ns off,
                      key_mode keys) {
  profile p;
  p.kind = strategy_kind::pulse_inflate;
  p.start = start;
  p.pulse_on = on;
  p.pulse_off = off;
  p.keys = keys;
  return p;
}

profile churn_flap(sim::time_ns start, int period_slots, int depth) {
  profile p;
  p.kind = strategy_kind::churn_flap;
  p.start = start;
  p.flap_period_slots = period_slots;
  p.flap_depth = depth;
  return p;
}

profile deaf_receiver(sim::time_ns start) {
  profile p;
  p.kind = strategy_kind::deaf_receiver;
  p.start = start;
  return p;
}

profile collusion(sim::time_ns start, int coalition, key_mode keys) {
  profile p;
  p.kind = strategy_kind::collusion;
  p.start = start;
  p.coalition = coalition;
  p.keys = keys;
  return p;
}

profile adaptive_pulse(sim::time_ns start, sim::time_ns on, key_mode keys) {
  profile p;
  p.kind = strategy_kind::adaptive_pulse;
  p.start = start;
  p.pulse_on = on;
  p.keys = keys;
  return p;
}

profile adaptive_churn(sim::time_ns start) {
  profile p;
  p.kind = strategy_kind::adaptive_churn;
  p.start = start;
  return p;
}

// ---------------------------------------------------------------------------
// Collusion coordinator
// ---------------------------------------------------------------------------

void collusion_coordinator::deposit(std::int64_t subscribe_slot, int group,
                                    const crypto::group_key& key,
                                    std::uint64_t scope) {
  ++stats_.deposits;
  keys_.drop_below(subscribe_slot - core::key_history_slots);
  if (subscribe_slot < keys_.floor()) return;
  auto& pooled = keys_[subscribe_slot];
  for (pooled_key& k : pooled) {
    if (k.group == group && k.scope == scope) {
      k.key = key;
      return;
    }
  }
  pooled.push_back({group, scope, key});
}

const crypto::group_key* collusion_coordinator::lookup(
    std::int64_t subscribe_slot, int group, std::uint64_t scope) {
  ++stats_.lookups;
  const auto* pooled = keys_.find(subscribe_slot);
  if (pooled == nullptr) return nullptr;
  for (const pooled_key& k : *pooled) {
    if (k.group == group && k.scope == scope) {
      ++stats_.hits;
      return &k.key;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Plain-IGMP (FLID-DL) attack strategies
// ---------------------------------------------------------------------------

namespace {

/// Resolved attack ceiling: <= 0 means "all groups".
int ceiling(const flid::flid_receiver& r, int level) {
  return level > 0 ? std::min(level, r.config().num_groups)
                   : r.config().num_groups;
}

/// The prelude every plain attack shares: the honest decision until
/// `start`, the attack's own target level from then on.
class plain_attack : public flid::honest_plain_strategy {
 public:
  explicit plain_attack(sim::time_ns start) : start_(start) {}

 protected:
  int decide(const flid::flid_receiver& r,
             const flid::slot_summary& s) final {
    if (r.net().sched().now() < start_) {
      return honest_plain_strategy::decide(r, s);
    }
    return attack(r, s);
  }
  /// The level to hold after `s`, once the attack is live.
  [[nodiscard]] virtual int attack(const flid::flid_receiver& r,
                                   const flid::slot_summary& s) = 0;
  [[nodiscard]] sim::time_ns start() const { return start_; }

 private:
  sim::time_ns start_;
};

/// inflate_once over raw IGMP (the attack of Figure 1): holds the ceiling
/// and ignores congestion. A ceiling below the level the honest phase
/// reached sheds the excess.
class inflate_plain_strategy : public plain_attack {
 public:
  inflate_plain_strategy(sim::time_ns start, int level)
      : plain_attack(start), level_(level) {}

 protected:
  int attack(const flid::flid_receiver& r,
             const flid::slot_summary&) override {
    return ceiling(r, level_);
  }

 private:
  int level_;
};

/// pulse_inflate over raw IGMP: inflate to the ceiling during on phases,
/// collapse to the minimal layer at each on->off edge, then behave honestly
/// until the next pulse.
class pulse_plain_strategy : public plain_attack {
 public:
  pulse_plain_strategy(sim::time_ns start, sim::time_ns on, sim::time_ns off,
                       int level)
      : plain_attack(start), on_(on), off_(off), level_(level) {
    util::require(on > 0 && off > 0, "pulse_inflate: phases must be positive");
  }

 protected:
  int attack(const flid::flid_receiver& r,
             const flid::slot_summary& s) override {
    const sim::time_ns now = r.net().sched().now();
    if ((now - start()) % (on_ + off_) < on_) {
      // Ignore congestion while the pulse is live; a capped ceiling sheds
      // what the honest phase climbed past it.
      was_on_ = true;
      return ceiling(r, level_);
    }
    if (was_on_) {
      // On -> off edge: shed everything at once so the next pulse restarts
      // from a clean congestion window.
      was_on_ = false;
      return 1;
    }
    return honest_plain_strategy::decide(r, s);
  }

 private:
  sim::time_ns on_, off_;
  int level_;
  bool was_on_ = false;
};

/// churn_flap over raw IGMP: alternate every `period` slots between joining
/// up to the flap depth and collapsing to the minimal layer.
class churn_plain_strategy : public plain_attack {
 public:
  churn_plain_strategy(sim::time_ns start, int period, int depth)
      : plain_attack(start), period_(std::max(1, period)), depth_(depth) {}

 protected:
  int attack(const flid::flid_receiver& r,
             const flid::slot_summary& s) override {
    if (first_slot_ < 0) first_slot_ = s.slot;
    const bool up = (s.slot - first_slot_) / period_ % 2 == 0;
    return up ? std::max(r.level(), ceiling(r, depth_))
              : std::min(r.level(), 1);
  }

 private:
  int period_;
  int depth_;
  std::int64_t first_slot_ = -1;
};

/// deaf_receiver over raw IGMP: keeps taking authorized upgrades but never
/// reacts to congestion and never leaves a group.
class deaf_plain_strategy : public plain_attack {
 public:
  using plain_attack::plain_attack;

 protected:
  int attack(const flid::flid_receiver& r,
             const flid::slot_summary& s) override {
    const int level = r.level();
    if (level < r.config().num_groups && s.upgrade_authorized(level + 1)) {
      return level + 1;
    }
    return level;
  }
};

// ---------------------------------------------------------------------------
// SIGMA (FLID-DS) attack strategies
// ---------------------------------------------------------------------------

/// pulse_inflate against DELTA/SIGMA: the base misbehaving machinery, gated
/// by an on/off schedule instead of a single onset. Off phases run the
/// honest path, which re-proves keys at the entitled level — so every pulse
/// starts from a fresh entitlement and SIGMA's containment clock restarts.
class pulse_sigma_strategy : public core::misbehaving_sigma_strategy {
 public:
  pulse_sigma_strategy(sim::time_ns start, sim::time_ns on, sim::time_ns off,
                       key_mode mode, std::uint64_t seed)
      : misbehaving_sigma_strategy(start, mode, seed), on_(on), off_(off) {
    util::require(on > 0 && off > 0, "pulse_inflate: phases must be positive");
  }

 protected:
  [[nodiscard]] bool attack_active() const override {
    const sim::time_ns now = net_->sched().now();
    if (now < inflate_at()) return false;
    return (now - inflate_at()) % (on_ + off_) < on_;
  }

 private:
  sim::time_ns on_, off_;
};

/// churn_flap against SIGMA: on up phases run the full honest machinery
/// (prove keys, subscribe, climb); on down phases explicitly unsubscribe
/// everything above the minimal layer. Every flap grafts and prunes the
/// tree and allocates/evicts per-interface authorization state.
class churn_sigma_strategy : public core::honest_sigma_strategy {
 public:
  churn_sigma_strategy(sim::time_ns start, int period)
      : start_(start), period_(std::max(1, period)) {}

 protected:
  core::slot_decision decide(const flid::flid_receiver& r,
                             const flid::slot_summary& s,
                             const core::slot_feedback& fb) override {
    if (fb.now < start_) return honest_sigma_strategy::decide(r, s, fb);
    if (first_slot_ < 0) first_slot_ = s.slot;
    const bool up = (s.slot - first_slot_) / period_ % 2 == 0;
    if (up) return honest_sigma_strategy::decide(r, s, fb);
    return {.level = std::min(r.level(), 1), .leave = leaves(r, 1, r.level())};
  }

 private:
  sim::time_ns start_;
  int period_;
  std::int64_t first_slot_ = -1;
};

/// deaf_receiver against SIGMA: proves whatever keys its reception state
/// entitles it to and keeps climbing, but never unsubscribes and never
/// lowers its claimed level. The router's authorization lapse is the only
/// thing that shrinks its delivery.
class deaf_sigma_strategy : public core::honest_sigma_strategy {
 public:
  explicit deaf_sigma_strategy(sim::time_ns start) : start_(start) {}

 protected:
  core::slot_decision decide(const flid::flid_receiver& r,
                             const flid::slot_summary& s,
                             const core::slot_feedback& fb) override {
    if (fb.now < start_) return honest_sigma_strategy::decide(r, s, fb);
    core::slot_decision d{.level = r.level()};

    // Reconstruct relative to the prefix actually delivered (the router's
    // grant), like every strategy must for the provable prefix not to
    // shrink each slot.
    const int achieved = s.granted();
    if (achieved == 0) {
      // Cut off. Even a deaf client wants back in; it just never backs off.
      ++stats_.cutoff_slots;
      d.rejoin = true;
      return d;
    }
    const core::delta_reconstruction rec =
        prove(s.at_level(achieved), d.pairs);

    // Climb when entitled, never descend, never unsubscribe.
    d.level = std::max(r.level(), rec.next_level);
    return d;
  }

 private:
  sim::time_ns start_;
};

/// collusion against SIGMA: the misbehaving machinery with the coalition's
/// key pool as a side channel — every reconstruction is deposited, and
/// layers beyond the own provable prefix are backed by pool keys proved by
/// a better-placed colluder (paper section 4.2's key-sharing attack).
///
/// Under interface keying a colluder only ever possesses its own
/// interface's key image (the raw key is never submittable anywhere), so
/// deposits carry the perturbed key tagged with the depositing host and
/// lookups are scoped to the requesting host: cross-interface queries miss
/// and the side channel yields nothing (pool hits drop to zero).
class collusion_sigma_strategy : public core::misbehaving_sigma_strategy {
 public:
  collusion_sigma_strategy(sim::time_ns start, key_mode mode,
                           std::uint64_t seed, collusion_coordinator& pool)
      : misbehaving_sigma_strategy(start, mode, seed), pool_(&pool) {}

 protected:
  void on_keys_reconstructed(
      std::int64_t subscribe_slot,
      const std::vector<std::pair<int, crypto::group_key>>& keys) override {
    for (const auto& [g, key] : keys) {
      pool_->deposit(subscribe_slot, g, maybe_perturb(key), scope());
    }
  }

  bool sidechannel_keys(int group, std::int64_t subscribe_slot,
                        const flid::flid_config& cfg,
                        core::key_pairs& pairs) override {
    const crypto::group_key* key =
        pool_->lookup(subscribe_slot, group, scope());
    if (key == nullptr) return false;
    pairs.emplace_back(cfg.group(group), *key);
    return true;
  }

 private:
  /// Interface identity the possessed keys are valid at: universal (0)
  /// without the countermeasure, the attached host under keying.
  [[nodiscard]] std::uint64_t scope() const {
    return interface_keying() ? static_cast<std::uint64_t>(receiver_->host())
                              : 0;
  }

  collusion_coordinator* pool_;
};

/// adaptive_pulse against SIGMA: the misbehaving machinery with phases tuned
/// by the slot_feedback hook instead of a fixed schedule. One probe pulse
/// measures the enforcement lag (attack onset -> observed claw-back of the
/// granted prefix); every later pulse attacks for exactly that long and
/// retreats to the honest machinery before punishment lands, returning as
/// soon as key_lead_slots clean slots have re-proven the entitlement.
class adaptive_pulse_sigma_strategy : public core::misbehaving_sigma_strategy {
 public:
  adaptive_pulse_sigma_strategy(sim::time_ns start, sim::time_ns max_probe,
                                key_mode mode, std::uint64_t seed)
      : misbehaving_sigma_strategy(start, mode, seed),
        max_probe_(max_probe) {
    util::require(max_probe > 0,
                  "adaptive_pulse: probe duration must be positive");
  }

 protected:
  [[nodiscard]] bool attack_active() const override {
    return net_->sched().now() >= inflate_at() && on_;
  }

  void on_feedback(const core::slot_feedback& fb) override {
    if (fb.now < inflate_at()) {
      entitled_ = fb.granted;  // honest-phase baseline: the earned level
      return;
    }
    if (phase_start_ < 0) phase_start_ = fb.now;  // first attacking slot
    const sim::time_ns in_phase = fb.now - phase_start_;
    if (on_) {
      peak_ = std::max(peak_, fb.granted);
      const bool clawed_back =
          fb.granted == 0 || (peak_ > entitled_ && fb.granted <= entitled_);
      if (clawed_back) {
        // The router reined the pulse in: that delay IS the enforcement
        // lag. Clamp to >= 1 ns — a claw-back on the very first attacking
        // slot would store 0, which the "not measured yet" sentinel below
        // could not tell apart from the initial state.
        observed_lag_ = std::max<sim::time_ns>(1, in_phase);
        switch_phase(fb.now, false);
      } else if (observed_lag_ > 0 && in_phase >= observed_lag_) {
        // Lag known from an earlier pulse: retreat before punishment.
        switch_phase(fb.now, false);
      } else if (in_phase >= max_probe_) {
        // The pulse never paid within the probe budget; stop burning.
        observed_lag_ = std::max<sim::time_ns>(1, in_phase);
        switch_phase(fb.now, false);
      }
    } else {
      entitled_ = fb.granted;  // entitlement is whatever flows while honest
      recovered_slots_ = fb.granted > 0 ? recovered_slots_ + 1 : 0;
      // Keys harvested from a clean slot guard slot + key_lead_slots: once
      // that many clean slots passed, the next pulse starts from a fresh
      // entitlement (the property pulse attacks exist to exploit).
      if (recovered_slots_ > core::key_lead_slots) switch_phase(fb.now, true);
    }
  }

 private:
  void switch_phase(sim::time_ns now, bool on) {
    on_ = on;
    phase_start_ = now;
    peak_ = 0;
    recovered_slots_ = 0;
  }

  sim::time_ns max_probe_;
  bool on_ = true;  // the first attacking phase is the probe
  sim::time_ns phase_start_ = -1;
  sim::time_ns observed_lag_ = 0;  // 0 = not measured yet
  int entitled_ = 0;
  int peak_ = 0;
  int recovered_slots_ = 0;
};

/// adaptive_churn against SIGMA: a free-rider synchronized to the two-slot
/// keyless grace of section 3.2.2. Cycle: session-join (grace: the minimal
/// group flows for the first-packet slot plus key_lead_slots complete
/// slots), consume exactly that window, then unsubscribe — which used to wipe
/// the interface state at the router, including the pending probation — and
/// rejoin for a fresh window. The receiver never proves a single key yet
/// keeps receiving; against a memoryless router the only thing bounding it is
/// the minimal group's rate and the dead slot between cycles.
///
/// Against router probation memory the wipe no longer clears the debt: a
/// rejoin within the window gets no fresh grace, and repeated keyless
/// rejoins buy geometrically escalating cutoffs. The strategy observes the
/// closed window through slot_feedback — a session-join that produces no
/// granted packets within a few slots — and falls back to waiting it out
/// with exponential join backoff, so the arms race re-runs honestly instead
/// of hammering refused joins.
class adaptive_churn_sigma_strategy : public core::honest_sigma_strategy {
 public:
  explicit adaptive_churn_sigma_strategy(sim::time_ns start) : start_(start) {}

 protected:
  core::slot_decision decide(const flid::flid_receiver& r,
                             const flid::slot_summary& s,
                             const core::slot_feedback& fb) override {
    if (fb.now < start_) return honest_sigma_strategy::decide(r, s, fb);
    const flid::flid_config& cfg = r.config();
    core::slot_decision d{.level = r.level()};
    if (!attacking_) {
      // Entering attack mode: shed everything above the minimal group and
      // stop proving keys — from here only keyless admission is used.
      attacking_ = true;
      d = {.level = std::min(r.level(), 1), .leave = leaves(r, 1, r.level())};
      grace_slots_ = 0;
    }
    if (fb.granted > 0) {
      ++grace_slots_;
      joined_ = false;
      backoff_slots_ = 0;  // the join produced data: the window is open
      if (grace_slots_ > core::key_lead_slots) {
        // Grace spent: the next packet would be denied and convert the
        // probation into a >= one-slot block. Wipe the state instead.
        d.leave.push_back(cfg.group(1));
        grace_slots_ = 0;
      }
    } else {
      ++stats_.cutoff_slots;
      grace_slots_ = 0;
      if (joined_ && ++dead_slots_since_join_ >= unproductive_join_slots) {
        // The join bought nothing for several slots: the router remembers the
        // probation debt (window closed). Wait it out, doubling each time.
        joined_ = false;
        backoff_slots_ = std::min(std::max(1, backoff_slots_ * 2), 64);
        wait_slots_ = backoff_slots_;
      }
      if (!joined_ && wait_slots_ > 0) {
        --wait_slots_;
      } else if (may_rejoin()) {
        // Dead slot between grace windows: request fresh keyless admission,
        // rate-limited like the honest path.
        d.rejoin = true;
        joined_ = true;
        dead_slots_since_join_ = 0;
      }
    }
    return d;
  }

 private:
  /// Dead slots after a join before the strategy concludes the window is
  /// closed (an open window yields granted packets within a slot or two).
  static constexpr int unproductive_join_slots = 3;

  sim::time_ns start_;
  bool attacking_ = false;
  int grace_slots_ = 0;
  bool joined_ = false;            // a join is outstanding, outcome unknown
  int dead_slots_since_join_ = 0;  // granted == 0 slots since that join
  int backoff_slots_ = 0;          // doubles per unproductive join, cap 64
  int wait_slots_ = 0;             // remaining enforced dead time
};

}  // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<flid::subscription_strategy> make_strategy(
    flid::protocol proto, const profile& p, const build_context& ctx) {
  // The seed source is consulted only for strategies that consume
  // randomness, and exactly once each — the call order defines the world's
  // seed chain, so ported scenarios keep their historical streams.
  const auto seed = [&ctx] {
    util::require(static_cast<bool>(ctx.next_seed),
                  "adversary::make_strategy: seed source required");
    return ctx.next_seed();
  };
  if (proto == flid::protocol::plain) {
    switch (p.kind) {
      case strategy_kind::honest:
        return std::make_unique<flid::honest_plain_strategy>();
      case strategy_kind::inflate_once:
        return std::make_unique<inflate_plain_strategy>(
            p.start, p.inflate_level);
      case strategy_kind::pulse_inflate:
        return std::make_unique<pulse_plain_strategy>(
            p.start, p.pulse_on, p.pulse_off, p.inflate_level);
      case strategy_kind::churn_flap:
        return std::make_unique<churn_plain_strategy>(
            p.start, p.flap_period_slots, p.flap_depth);
      case strategy_kind::deaf_receiver:
        return std::make_unique<deaf_plain_strategy>(p.start);
      case strategy_kind::collusion:
        // No keys exist in the plain world; each colluder degenerates to an
        // independent inflater.
        return std::make_unique<inflate_plain_strategy>(
            p.start, p.inflate_level);
      case strategy_kind::adaptive_pulse:
        // The adaptation targets SIGMA's enforcement signals (claw-back,
        // grace); the plain router grants every join, so there is nothing
        // to measure — degenerate to the scripted counterparts.
        return std::make_unique<pulse_plain_strategy>(
            p.start, p.pulse_on, p.pulse_off, p.inflate_level);
      case strategy_kind::adaptive_churn:
        return std::make_unique<churn_plain_strategy>(p.start, 1, 0);
    }
  } else {
    std::unique_ptr<core::honest_sigma_strategy> s;
    switch (p.kind) {
      case strategy_kind::honest:
        s = std::make_unique<core::honest_sigma_strategy>();
        break;
      case strategy_kind::inflate_once:
        s = std::make_unique<core::misbehaving_sigma_strategy>(
            p.start, p.keys, seed());
        break;
      case strategy_kind::pulse_inflate:
        s = std::make_unique<pulse_sigma_strategy>(
            p.start, p.pulse_on, p.pulse_off, p.keys, seed());
        break;
      case strategy_kind::churn_flap:
        s = std::make_unique<churn_sigma_strategy>(p.start,
                                                   p.flap_period_slots);
        break;
      case strategy_kind::deaf_receiver:
        s = std::make_unique<deaf_sigma_strategy>(p.start);
        break;
      case strategy_kind::collusion: {
        util::require(static_cast<bool>(ctx.coordinator),
                      "adversary::make_strategy: collusion needs a "
                      "coordinator source");
        collusion_coordinator& pool = ctx.coordinator(p.coalition);
        s = std::make_unique<collusion_sigma_strategy>(p.start, p.keys,
                                                       seed(), pool);
        break;
      }
      case strategy_kind::adaptive_pulse:
        s = std::make_unique<adaptive_pulse_sigma_strategy>(
            p.start, p.pulse_on, p.keys, seed());
        break;
      case strategy_kind::adaptive_churn:
        s = std::make_unique<adaptive_churn_sigma_strategy>(p.start);
        break;
    }
    if (s != nullptr) {
      // Every SIGMA strategy must agree with the scenario's router setting:
      // under interface keying, submitted keys carry the per-interface
      // perturbation (honest and attacking alike).
      s->set_interface_keying(ctx.interface_keying);
      return s;
    }
  }
  util::require(false, "adversary::make_strategy: unknown strategy kind",
                static_cast<int>(p.kind));
  return nullptr;
}

}  // namespace mcc::adversary
