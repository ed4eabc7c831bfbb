#include "adversary/containment.h"

#include <algorithm>

#include "core/flid_ds.h"
#include "util/require.h"

namespace mcc::adversary {

namespace {

double per_flow_mean(const std::vector<const sim::throughput_monitor*>& flows,
                     sim::time_ns t0, sim::time_ns t1) {
  double sum = 0.0;
  for (const sim::throughput_monitor* m : flows) {
    sum += m->average_kbps(t0, t1);
  }
  return sum / static_cast<double>(flows.size());
}

}  // namespace

containment_report measure_containment(
    const sim::throughput_monitor& attacker,
    const std::vector<const sim::throughput_monitor*>& honest,
    const containment_config& cfg) {
  return measure_containment(attacker, honest, honest, cfg);
}

containment_report measure_containment(
    const sim::throughput_monitor& attacker,
    const std::vector<const sim::throughput_monitor*>& honest,
    const std::vector<const sim::throughput_monitor*>& reference,
    const containment_config& cfg) {
  util::require(!honest.empty(), "measure_containment: no honest monitors");
  util::require(!reference.empty(),
                "measure_containment: no reference monitors");
  util::require(cfg.bin > 0, "measure_containment: bad bin");
  const sim::time_ns after0 = cfg.attack_start + cfg.settle;
  util::require(after0 < cfg.horizon,
                "measure_containment: settle window swallows the run");

  containment_report rep;
  rep.attacker_kbps = attacker.average_kbps(after0, cfg.horizon);

  double honest_sum = 0.0;
  for (const sim::throughput_monitor* m : honest) {
    honest_sum += m->average_kbps(after0, cfg.horizon);
  }
  rep.honest_kbps = honest_sum / static_cast<double>(honest.size());
  const double total = rep.attacker_kbps + honest_sum;
  rep.attacker_share = total > 0.0 ? rep.attacker_kbps / total : 0.0;

  const sim::time_ns before0 =
      std::max<sim::time_ns>(0, cfg.attack_start - cfg.pre);
  if (before0 < cfg.attack_start) {
    rep.honest_before_kbps =
        per_flow_mean(honest, before0, cfg.attack_start);
    if (rep.honest_before_kbps > 0.0) {
      rep.honest_damage = std::clamp(
          1.0 - rep.honest_kbps / rep.honest_before_kbps, 0.0, 1.0);
    }
  }

  // Time-to-containment: the end of the last scan bin whose (smoothed)
  // attacker goodput exceeded the bound. No such bin = the attack never
  // paid (0); an offending final bin = not contained (-1).
  rep.containment_bound_kbps =
      cfg.bound_factor *
      std::max(per_flow_mean(reference, after0, cfg.horizon), cfg.floor_kbps);
  const sim::time_ns half = std::max<sim::time_ns>(cfg.smooth / 2, cfg.bin / 2);
  sim::time_ns contained_at = cfg.attack_start;
  bool tail_offends = false;
  for (sim::time_ns t = cfg.attack_start; t < cfg.horizon; t += cfg.bin) {
    const sim::time_ns mid = t + cfg.bin / 2;
    const sim::time_ns w0 = std::max(cfg.attack_start, mid - half);
    const sim::time_ns w1 = std::min(cfg.horizon, mid + half);
    if (w0 >= w1) continue;
    if (attacker.average_kbps(w0, w1) > rep.containment_bound_kbps) {
      const sim::time_ns bin_end = std::min(t + cfg.bin, cfg.horizon);
      contained_at = bin_end;
      tail_offends = bin_end >= cfg.horizon;
    }
  }
  rep.contained = !tail_offends;
  if (rep.contained) {
    rep.time_to_containment_s =
        sim::to_seconds(contained_at - cfg.attack_start);
  }
  return rep;
}

attacker_cost measure_cost(const flid::flid_receiver& r) {
  attacker_cost cost;
  if (const auto* sigma =
          dynamic_cast<const core::honest_sigma_strategy*>(&r.strategy())) {
    const auto& st = sigma->stats();
    cost.ctrl_msgs = st.subscribes + st.unsubscribes + st.session_joins +
                     st.retransmits;
    cost.ctrl_bytes = st.ctrl_bytes;
    cost.cutoff_slots = st.cutoff_slots;
    if (const auto* mis =
            dynamic_cast<const core::misbehaving_sigma_strategy*>(sigma)) {
      const auto& atk = mis->attack_stats();
      // Guesses and stale replays can never validate (keys are per-slot and
      // one-way); pool keys are excluded — with keying off they DO validate,
      // which is the whole collusion attack.
      cost.useless_keys = atk.guessed_keys + atk.replayed_keys;
    }
    return cost;
  }
  // Plain world: the only control plane a strategy drives is its IGMP
  // client; no keys exist, and the router honours every join, so keys and
  // cutoffs cost nothing.
  const auto& m = r.membership().stats();
  cost.ctrl_msgs = m.joins + m.leaves;
  cost.ctrl_bytes = m.bytes;
  return cost;
}

void attach_cost(containment_report& rep, const attacker_cost& cost) {
  rep.cost = cost;
  rep.profit_kbps_per_msg =
      rep.attacker_kbps /
      static_cast<double>(std::max<std::uint64_t>(1, cost.ctrl_msgs));
  rep.profit_kbps_per_kb =
      rep.attacker_kbps /
      std::max(1.0, static_cast<double>(cost.ctrl_bytes) / 1024.0);
}

double memory_block_rate(const core::sigma_router_agent::counters& edge) {
  const std::uint64_t hits = edge.memory_refusals + edge.memory_inherits;
  const std::uint64_t attempts = edge.session_joins + edge.memory_refusals;
  if (attempts == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(attempts);
}

}  // namespace mcc::adversary
