// Experiment testbed: attaches FLID-DL / FLID-DS sessions, TCP Reno flows,
// and on-off CBR cross traffic to any routers of a declaratively built
// topology (sim::topology_builder), owning the per-edge-router agents (IGMP
// and SIGMA), deterministic seeding, and the finalize-then-run lifecycle.
//
// Topology, attachment, and measurement are independent layers:
//
//   exp::testbed t(exp::dumbbell());              // or parking_lot(), ...
//   auto& s = t.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
//   t.add_tcp_flow();
//   t.run_until(sim::seconds(120.0));
//   s.receiver().monitor().average_kbps(...);
//
// Every router carries an IGMP agent and a SIGMA agent, so any router can be
// an edge: receiver_options::at / flow endpoints name the router a host
// attaches to, and default to the testbed's configured sender/receiver sites.
#ifndef MCC_EXP_TESTBED_H
#define MCC_EXP_TESTBED_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "cm/congestion_manager.h"
#include "core/flid_ds.h"
#include "exp/report.h"
#include "obs/metrics.h"
#include "core/sigma_router.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "population/population.h"
#include "sim/aqm.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "tcp/tcp.h"
#include "traffic/cbr.h"
#include "util/flags.h"

namespace mcc::exp {

enum class flid_mode { dl, ds };

/// Per-receiver placement and (mis)behaviour.
struct receiver_options {
  sim::time_ns start_time = 0;
  /// Access-link propagation delay; unset = the testbed default. A negative
  /// value is rejected loudly (it used to be a silent "use default" sentinel).
  std::optional<sim::time_ns> access_delay;
  /// Edge router the receiver attaches to; empty = default receiver site.
  std::string at;
  /// The receiver's (mis)behaviour: any adversary strategy, or honest (the
  /// default). See adversary::profile and its factories.
  adversary::profile attack;
};

/// Placement of an aggregated receiver population (population::edge_aggregate
/// plus its delegate receiver) at one edge.
struct population_options {
  population::population_config population;
  sim::time_ns start_time = 0;
  /// Access-link propagation delay of the delegate host; unset = default.
  std::optional<sim::time_ns> access_delay;
  /// Edge router the population sits behind; empty = default receiver site.
  std::string at;
};

/// Per-session placement.
struct session_options {
  sim::time_ns sender_start = 0;
  /// Router the sender host attaches to; empty = default sender site.
  std::string sender_at;
};

/// Unicast flow placement (TCP and CBR).
struct flow_options {
  sim::time_ns start_time = 0;       // TCP only; CBR carries its own times
  std::string src_at;                // empty = default sender site
  std::string dst_at;                // empty = default receiver site
};

/// The world switchboard: every world-wide knob a scenario config and the
/// testbed share, declared once. testbed_config and each scenario config
/// (dumbbell_config, parking_lot_config, star_config, tree_config) inherit
/// it, so a scenario factory forwards all of it in one step and a bench
/// builds one per grid cell and starts its scenario config from it
/// (`exp::tree_config cfg{w};` — every scenario member, `aqm{}` included,
/// has an initializer so that form is -Wmissing-field-initializers clean).
struct world_options {
  /// Default access link of every attached host.
  double access_bps = 10e6;
  sim::time_ns access_delay = sim::milliseconds(10);
  /// Queue capacity of access and backbone links in bandwidth-delay
  /// products (link rate x base_rtt).
  double buffer_bdp = 2.0;
  sim::time_ns base_rtt = sim::milliseconds(80);
  /// Queue discipline of access links (drop-tail by default — backbone AQM
  /// is configured per scenario/link). An unset aqm.seed inherits `seed`.
  sim::aqm_config access_aqm;
  /// Interface keying, the collusion countermeasure of paper section 4.2:
  /// every SIGMA edge agent validates per-interface-perturbed keys and
  /// every SIGMA receiver strategy (honest and attacking) submits them.
  /// Closes the cross-edge key-sharing channel: colluders' pooled keys are
  /// useless at any other interface. No effect on plain (FLID-DL) sessions.
  bool interface_keying = false;
  /// Router probation memory, the countermeasure to adaptive_churn's
  /// grace-riding: every SIGMA edge agent remembers a wiped interface's
  /// outstanding probation debt for this many slots, refuses still-blocked
  /// rejoins, and escalates the cutoff on repeated keyless rejoins.
  /// 0 (default) keeps the legacy wipe-on-unsubscribe behaviour.
  int probation_memory_slots = 0;
  /// Shared congestion manager across co-located sessions (src/cm): when on,
  /// the testbed owns one cm::congestion_manager, registers every FLID
  /// receiver's session under its aggregated edge path, and receivers cap
  /// their join decisions on the shared state. Off (the default) leaves the
  /// legacy code path untouched — byte-identical behaviour, pinned by
  /// cm_test. With one session the cap never binds, so single-session
  /// worlds are byte-identical either way.
  bool cm = false;
  /// Parameters of the shared manager when `cm` is on.
  cm::cm_config cm_params;
  /// Root of the world's seed chain; unset AQM seeds inherit it, so RED
  /// coin-flips follow the run's seed sweep.
  std::uint64_t seed = 1;
};

/// Everything a testbed needs to know: the topology description, the
/// attachment defaults, and the world switches.
struct testbed_config : world_options {
  sim::topology_builder topology;
  /// Default attachment routers; empty = first / last declared router.
  std::string sender_site;
  std::string receiver_site;
};

/// One aggregated population attached to a session: the aggregate (member
/// state) and the delegate receiver that drives its consolidated subscription.
/// The aggregate is declared before the delegate so the strategy's reference
/// outlives the receiver that owns the strategy.
struct flid_population {
  std::unique_ptr<population::edge_aggregate> aggregate;
  std::unique_ptr<flid::flid_receiver> delegate;
};

/// One multicast session: sender machinery plus its receivers.
struct flid_session {
  flid_mode mode = flid_mode::dl;
  flid::flid_config config;
  sim::node_id sender_host = sim::invalid_node;
  std::unique_ptr<flid::flid_sender> sender;
  core::flid_ds_sender ds;  // populated in DS mode
  std::vector<std::unique_ptr<flid::flid_receiver>> receivers;
  /// Aggregated receiver populations (testbed::add_population).
  std::vector<std::unique_ptr<flid_population>> populations;

  [[nodiscard]] flid::flid_receiver& receiver(int i = 0) {
    return *receivers[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] flid_population& population(int i = 0) {
    return *populations[static_cast<std::size_t>(i)];
  }
};

struct tcp_flow {
  std::unique_ptr<tcp::tcp_sender> sender;
  std::unique_ptr<tcp::tcp_sink> sink;
};

struct cbr_flow {
  std::unique_ptr<traffic::cbr_source> source;
  std::unique_ptr<traffic::cbr_sink> sink;
};

class testbed {
 public:
  explicit testbed(testbed_config cfg);

  [[nodiscard]] sim::network& net() { return net_; }
  [[nodiscard]] sim::scheduler& sched() { return sched_; }
  [[nodiscard]] const sim::topology& topo() const { return topo_; }
  [[nodiscard]] const testbed_config& config() const { return cfg_; }

  /// Node id of a named topology router (or host).
  [[nodiscard]] sim::node_id router(const std::string& name) const {
    return topo_.node(name);
  }
  /// i-th backbone link (dumbbell: the bottleneck; parking lot: bottleneck i).
  [[nodiscard]] sim::link* bottleneck(int i = 0) const {
    return topo_.backbone(i);
  }

  /// Edge agents of a named router; empty name = the default receiver site.
  /// Created on demand: a router gets its agents when a host first attaches
  /// there (or on first access here), so interior routers stay agent-free.
  [[nodiscard]] mcast::igmp_agent& igmp(const std::string& name = "");
  [[nodiscard]] core::sigma_router_agent& sigma(const std::string& name = "");

  /// Key pool of a collusion coalition, created on first use. Receivers
  /// whose profile is collusion with this coalition id share it; tests and
  /// benches read its deposit/hit counters here.
  [[nodiscard]] adversary::collusion_coordinator& coordinator(int coalition);

  /// Paper section 5.1 defaults for a session in the given mode: 10 groups,
  /// 100 Kbps minimal group, cumulative rate factor 1.5, 576-byte packets,
  /// 16-bit keys; 500 ms slots (upgrade prob 0.3) in DL mode, 250 ms slots
  /// (upgrade prob 0.15, so upgrade signals arrive at the same real-time
  /// frequency) in DS mode.
  [[nodiscard]] flid::flid_config default_flid_config(flid_mode mode) const;

  /// Attaches a fresh host to the named router (required non-empty) over an
  /// access link with the testbed's default rate/delay/queue (overridable per
  /// host), creating the router's edge agents if this is its first host.
  sim::node_id attach_host(const std::string& name,
                           const std::string& router_name);
  sim::node_id attach_host(const std::string& name,
                           const std::string& router_name, double bps,
                           sim::time_ns delay);

  /// Adds a multicast session with one receiver per entry of `receivers`.
  flid_session& add_flid_session(flid_mode mode,
                                 const std::vector<receiver_options>& receivers,
                                 const session_options& opts = {});
  /// Same, with an explicit config (session id / group range reassigned).
  flid_session& add_flid_session(flid_mode mode, flid::flid_config cfg,
                                 const std::vector<receiver_options>& receivers,
                                 const session_options& opts = {});

  /// N sessions stamped from one template: session i is an independent
  /// add_flid_session(mode, receivers, opts) call, so sessions draw their
  /// seeds in array order and each gets its own sender, receivers, and
  /// session id. Returns the sessions in index order (pointers stay valid
  /// for the testbed's lifetime). The multi-session facility behind
  /// fig_session_farm and the cross-session roll-up tests.
  std::vector<flid_session*> add_session_array(
      int n, flid_mode mode, const std::vector<receiver_options>& receivers,
      const session_options& opts = {});

  /// The shared congestion manager; nullptr when testbed_config::cm is off.
  [[nodiscard]] cm::congestion_manager* shared_cm() { return cm_.get(); }
  /// The aggregated path id receivers behind `site` register under.
  [[nodiscard]] cm::path_id cm_path(const std::string& site) const {
    return cm::path_id{topo_.node(site), cm::path_direction::downstream, 0};
  }

  /// Attaches an aggregated receiver population to `session`: one delegate
  /// host at the chosen edge whose strategy speaks the session's protocol at
  /// the population's consolidated demand (population::make_aggregate_strategy).
  /// The aggregate's PRNG seed is drawn from the testbed seed chain here —
  /// scenarios without populations never draw it, so their streams replay
  /// byte-identically. Individually simulated receivers (honest or attacking)
  /// added via add_flid_session coexist with populations at the same edge.
  flid_population& add_population(flid_session& session,
                                  const population_options& opts);

  tcp_flow& add_tcp_flow(const flow_options& opts = {});
  tcp_flow& add_tcp_flow(sim::time_ns start_time);
  cbr_flow& add_cbr(const traffic::cbr_config& cfg,
                    const flow_options& opts = {});

  /// Finalizes routing on first call and runs the simulation to `until`.
  void run_until(sim::time_ns until);

  [[nodiscard]] int next_session_id() const { return next_session_id_; }

  /// Engine-metrics registry of this testbed's world. Every component the
  /// testbed builds registers pull-based views here (scheduler throughput and
  /// occupancy at construction; SIGMA/IGMP control-plane counters per edge;
  /// population state bytes; attacker cost per attacking receiver; per-link
  /// traffic stats at finalize). Benches snapshot it after run_until into
  /// sweep_row::metrics; the snapshot order is registration order, so it is
  /// deterministic and jobs-invariant. See docs/observability.md.
  [[nodiscard]] obs::registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::registry& metrics() const { return metrics_; }

 private:
  struct edge_agents {
    std::unique_ptr<mcast::igmp_agent> igmp;
    std::unique_ptr<core::sigma_router_agent> sigma;
  };

  [[nodiscard]] std::uint64_t next_seed();
  /// The edge-agent pair of a router, created on first use (a router becomes
  /// an edge when a host attaches or its agents are requested pre-run).
  edge_agents& edge_for(const std::string& site);
  /// Accessor path: before the run resolves like edge_for; after the run
  /// only existing edges resolve (no zero-counter agents for assertions).
  edge_agents& existing_edge_or_new(const std::string& name);
  /// Requires `site` to name a router of the topology.
  void validate_attach_site(const std::string& site) const;
  [[nodiscard]] const std::string& site_or(const std::string& site,
                                           const std::string& fallback) const {
    return site.empty() ? fallback : site;
  }
  void finalize();

  /// Registers the per-component views of a freshly created edge / session /
  /// population on metrics_ (implementation helpers of the public metrics()
  /// contract above).
  void register_scheduler_metrics();
  void register_edge_metrics(const std::string& site, edge_agents& agents);
  void register_link_metrics();
  /// cm.* views — registered only when the manager exists, so legacy
  /// (cm-off) metric snapshots keep their historical byte layout.
  void register_cm_metrics();

  testbed_config cfg_;
  sim::scheduler sched_;
  sim::network net_;
  sim::topology topo_;
  std::map<std::string, edge_agents> edges_;
  /// Declared before sessions_ so pools outlive the strategies using them.
  std::map<int, std::unique_ptr<adversary::collusion_coordinator>>
      coordinators_;
  /// Declared before sessions_ so the shared manager outlives the receivers
  /// reporting into it; null unless cfg_.cm.
  std::unique_ptr<cm::congestion_manager> cm_;
  std::vector<std::unique_ptr<flid_session>> sessions_;
  std::vector<std::unique_ptr<tcp_flow>> tcp_flows_;
  std::vector<std::unique_ptr<cbr_flow>> cbr_flows_;
  int next_session_id_ = 1;
  int next_flow_id_ = 1;
  std::uint64_t seed_state_;
  bool finalized_ = false;
  /// Declared last (destroyed first): its views capture raw pointers into the
  /// members above, so the registry must never outlive them.
  obs::registry metrics_;
};

// ---------------------------------------------------------------------------
// Scenario factories: named topologies with paper-style attachment defaults
// ---------------------------------------------------------------------------

/// The single-bottleneck topology of paper section 5.1. Defaults follow the
/// paper: 1 Mbps / 20 ms bottleneck, 10 Mbps / 10 ms access links, queues of
/// two bandwidth-delay products at an 80 ms base RTT.
struct dumbbell_config : world_options {
  double bottleneck_bps = 1e6;
  sim::time_ns bottleneck_delay = sim::milliseconds(20);
  /// Bottleneck queue discipline. An unset aqm.seed inherits the scenario
  /// seed, so RED coin-flips follow the run's seed sweep.
  sim::aqm_config aqm{};
};

/// Dumbbell testbed: senders attach at "l", receivers at "r".
[[nodiscard]] testbed_config dumbbell(const dumbbell_config& cfg = {});

/// k bottlenecks in series (routers "r0".."r<k>"); senders default to "r0",
/// receivers to the far end "r<k>", so a default session crosses every
/// bottleneck while cross traffic can load any single one.
struct parking_lot_config : world_options {
  int bottlenecks = 2;
  double bottleneck_bps = 1e6;
  sim::time_ns bottleneck_delay = sim::milliseconds(20);
  sim::aqm_config aqm{};  // backbone queue discipline
};

[[nodiscard]] testbed_config parking_lot(const parking_lot_config& cfg = {});

/// Hub-and-spoke: senders default to the hub, receivers to spoke "s1";
/// receivers placed on distinct spokes contend only on their own spoke link.
struct star_config : world_options {
  int spokes = 4;
  double spoke_bps = 1e6;
  sim::time_ns spoke_delay = sim::milliseconds(20);
  sim::aqm_config aqm{};  // backbone queue discipline
};

[[nodiscard]] testbed_config star(const star_config& cfg = {});

/// Balanced distribution tree: senders default to "root", receivers to the
/// first leaf "t<depth>_0"; point-to-multipoint sessions fan out down the
/// tree and each receiver sees only its own root-to-leaf path.
struct tree_config : world_options {
  int depth = 2;
  int fanout = 2;
  double edge_bps = 1e6;
  sim::time_ns edge_delay = sim::milliseconds(10);
  sim::aqm_config aqm{};  // backbone queue discipline
};

[[nodiscard]] testbed_config balanced_tree(const tree_config& cfg = {});

/// Average of receiver throughputs over [t0, t1) in Kbps.
[[nodiscard]] double average_receiver_kbps(flid_session& session,
                                           sim::time_ns t0, sim::time_ns t1);

/// Cross-session roll-up over [t0, t1): one column per session named
/// "session<id>", rate = summed goodput (Kbps) of its receivers and
/// population delegates, raw series = the point-wise sum of their kbps
/// series. Per-session smoothing state is independent (exp::ewma_smooth),
/// so the roll-up is invariant to session registration order.
[[nodiscard]] session_rollup session_rollup_for(
    const std::vector<flid_session*>& sessions, sim::time_ns t0,
    sim::time_ns t1);

// ---------------------------------------------------------------------------
// AQM flag glue: every bench that sweeps queue disciplines registers the
// same flags and decodes them the same way.
// ---------------------------------------------------------------------------

/// Registers the shared AQM flags on a bench's flag set:
///   --qdisc LIST       comma-separated disciplines (droptail|ecn|red|codel),
///                      or "all"; benches sweep one grid axis per entry
///   --ecn-threshold F  ecn: mark above this occupancy fraction
///   --red-min F        red: min threshold as a fraction of queue capacity
///   --red-max F        red: max threshold as a fraction of queue capacity
///   --red-maxp P       red: drop probability at the max threshold
///   --red-weight W     red: EWMA weight
///   --red-gentle B     red: ramp to certain drop over [max, 2*max]
///   --codel-target MS  codel: target sojourn time, milliseconds
///   --codel-interval MS codel: control interval, milliseconds
void add_aqm_flags(util::flag_set& flags);

/// Decodes the parameter flags into an aqm_config. The discipline is set to
/// the FIRST entry of --qdisc; benches sweeping several override it per grid
/// point. An unknown discipline name prints a friendly message and exits(1),
/// like any other bad flag value (bench-main glue, not library API).
[[nodiscard]] sim::aqm_config aqm_config_from_flags(
    const util::flag_set& flags);

/// The full --qdisc list in declaration order ("all" expands to every
/// discipline). Same bad-name behaviour as aqm_config_from_flags.
[[nodiscard]] std::vector<sim::qdisc> qdisc_list_from_flags(
    const util::flag_set& flags);

// ---------------------------------------------------------------------------
// World-switch flag glue: each countermeasure of world_options is one
// off|on|both flag; "both" sweeps it as a grid axis (one cell without, one
// with), so a bench builds one world_options per cell.
// ---------------------------------------------------------------------------

/// Registers an off|on|both switch flag (the flag parser rejects any other
/// value). `def` is the bench's default: the attack matrix defaults its
/// countermeasures to "both" so the study runs out of the box, scenario
/// benches default off.
void add_axis_flag(util::flag_set& flags, const char* name, const char* def,
                   const std::string& help);

/// Decodes an add_axis_flag flag into the axis values to sweep, in off-first
/// order: {off}, {on}, or {off, on}.
template <typename T>
[[nodiscard]] std::vector<T> axis_from_flags(const util::flag_set& flags,
                                             const char* name, T off, T on) {
  const std::string v = flags.str(name);
  if (v == "off") return {off};
  if (v == "on") return {on};
  return {off, on};
}

/// Registers --probation-memory-slots N, the world_options::
/// probation_memory_slots value of a --probation-memory cell that is on
/// (default 8).
void add_probation_memory_slots_flag(util::flag_set& flags);

/// Decodes --probation-memory-slots; a count outside [1, 2^20] prints a
/// friendly message and exits(1) — bench-main glue, like the AQM flags.
[[nodiscard]] int probation_memory_slots_from_flags(
    const util::flag_set& flags);

/// Registers the parameter flags of the shared congestion manager
/// (world_options::cm_params), read when a --cm cell is on:
///   --cm-entries N   LRU state-cache capacity
///   --cm-aging N     staleness window, slots
///   --cm-threshold F congestion EWMA level the cap binds above
///   --cm-headroom F  fair-rate multiplier for the level cap
void add_cm_flags(util::flag_set& flags);

/// Decodes the --cm-* parameter flags into a cm_config, with the friendly
/// bad-flag UX on out-of-range values.
[[nodiscard]] cm::cm_config cm_config_from_flags(const util::flag_set& flags);

/// Registers the shared population flags on a bench's flag set:
///   --population LIST  aggregated population size(s), comma-separated
///                      member counts (benches sweep one grid axis per entry)
///   --demand SPEC      max | uniform | zipf:S (layer-demand distribution)
///   --churn SPEC       none, or comma list of arrive:R, leave:R,
///                      flash:T:N, flash-leave:T (R per second, T seconds,
///                      N members)
void add_population_flags(util::flag_set& flags,
                          const char* default_sizes = "1000000");

/// Decodes --demand / --churn into a population_config (members left 0; the
/// bench fills it per grid point from the --population axis). Unknown specs
/// print a friendly message and exit(1) — bench-main glue, like the AQM
/// flags.
[[nodiscard]] population::population_config population_config_from_flags(
    const util::flag_set& flags);

/// The --population axis: one population size per comma-separated entry.
[[nodiscard]] std::vector<std::int64_t> population_axis_from_flags(
    const util::flag_set& flags);

}  // namespace mcc::exp

#endif  // MCC_EXP_TESTBED_H
