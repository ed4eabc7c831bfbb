// Session parameters for FLID-style slotted multicast, cumulative or
// replicated (paper section 5.1 defaults: 10 groups, 100 Kbps minimal group,
// cumulative rate growing multiplicatively by 1.5 per group, 576-byte
// packets, 500 ms slots for FLID-DL / 250 ms for FLID-DS).
#ifndef MCC_FLID_FLID_CONFIG_H
#define MCC_FLID_FLID_CONFIG_H

#include <algorithm>
#include <cmath>

#include "sim/time.h"
#include "sim/wire.h"
#include "util/require.h"

namespace mcc::flid {

/// How the session's groups relate (paper section 3.1.2, "Session
/// structure"). Cumulative: subscription level g means groups 1..g, group g
/// carries the differential layer. Replicated: level g means group g alone,
/// which carries the whole content at the level-g rate.
enum class session_structure { cumulative, replicated };

struct flid_config {
  int session_id = 1;
  int num_groups = 10;
  double base_rate_bps = 100e3;   // rate of the minimal group (layer 1)
  double rate_multiplier = 1.5;   // cumulative rate growth per group
  sim::time_ns slot_duration = sim::milliseconds(500);
  int packet_bytes = 576;
  /// Kept in the padding after packet_bytes: the size of this struct is
  /// part of the reported population state (edge_aggregate::state_bytes).
  session_structure structure = session_structure::cumulative;
  /// Per-slot probability that the protocol authorizes an upgrade to group 2
  /// (the increase signal of FLID-DL, modelled as Bernoulli).
  double upgrade_prob = 0.3;
  /// Geometric decay of the upgrade probability per additional group:
  /// P(authorize g) = upgrade_prob * upgrade_decay^(g-2). FLID-DL and RLC
  /// space increase signals exponentially farther apart for higher layers so
  /// receivers probe high rates rarely.
  double upgrade_decay = 0.85;

  [[nodiscard]] double upgrade_prob_for(int g) const {
    return upgrade_prob * std::pow(upgrade_decay, g - 2);
  }
  /// First multicast group address; group index g maps to base + g - 1.
  int group_addr_base = 10'000;
  /// DELTA key width in bits (paper evaluates b = 16). Must be one of
  /// 16, 32, 64 so keys serialize byte-aligned.
  int key_bits = 16;

  [[nodiscard]] double cumulative_rate_bps(int level) const {
    util::require(level >= 0 && level <= num_groups, "bad subscription level");
    if (level == 0) return 0.0;
    return base_rate_bps * std::pow(rate_multiplier, level - 1);
  }

  /// Rate of the individual group (layer) g.
  [[nodiscard]] double group_rate_bps(int g) const {
    return cumulative_rate_bps(g) - cumulative_rate_bps(g - 1);
  }

  /// Lowest group held at subscription `level`: the held groups are
  /// lowest_group(level)..level, i.e. 1..level in a cumulative session and
  /// group `level` alone in a replicated one (none at level 0).
  [[nodiscard]] int lowest_group(int level) const {
    return structure == session_structure::replicated ? std::max(level, 1)
                                                      : 1;
  }
  /// Whether subscription `level` holds group `g`.
  [[nodiscard]] bool holds(int level, int g) const {
    return g >= lowest_group(level) && g <= level;
  }

  [[nodiscard]] sim::group_addr group(int g) const {
    util::require(g >= 1 && g <= num_groups, "bad group index", g);
    return sim::group_addr{group_addr_base + g - 1};
  }

  [[nodiscard]] int index_of(sim::group_addr a) const {
    const int g = a.value - group_addr_base + 1;
    return (g >= 1 && g <= num_groups) ? g : 0;
  }

  [[nodiscard]] sim::session_announcement announcement() const;
};

}  // namespace mcc::flid

#endif  // MCC_FLID_FLID_CONFIG_H
