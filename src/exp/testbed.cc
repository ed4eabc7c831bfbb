#include "exp/testbed.h"

#include <cstdio>
#include <cstdlib>

#include "adversary/containment.h"
#include "crypto/prng.h"

namespace mcc::exp {

namespace {
std::int64_t queue_bytes(double bps, double bdp, sim::time_ns rtt) {
  return static_cast<std::int64_t>(bdp * bps * sim::to_seconds(rtt) / 8.0);
}
}  // namespace

testbed::testbed(testbed_config cfg)
    : cfg_(std::move(cfg)),
      net_(sched_),
      seed_state_(cfg_.seed) {
  util::require(!cfg_.topology.empty(), "testbed: empty topology");
  topo_ = cfg_.topology.build(net_);
  util::require(!topo_.routers().empty(), "testbed: topology has no routers");
  if (cfg_.sender_site.empty()) cfg_.sender_site = topo_.routers().front();
  if (cfg_.receiver_site.empty()) cfg_.receiver_site = topo_.routers().back();
  register_scheduler_metrics();
  if (cfg_.cm) {
    cm_ = std::make_unique<cm::congestion_manager>(cfg_.cm_params);
    register_cm_metrics();
  }
}

std::uint64_t testbed::next_seed() { return crypto::splitmix64(seed_state_); }

testbed::edge_agents& testbed::edge_for(const std::string& site) {
  auto it = edges_.find(site);
  if (it != edges_.end()) return it->second;
  // Any router becomes an edge the first time a host attaches there (or the
  // first time its agents are asked for): it gets an IGMP agent (group
  // membership) and a SIGMA agent (key-based access control). Interior
  // routers without hosts never pay for control-plane decoding.
  const sim::node_id id = topo_.node(site);
  util::require(net_.get(id)->is_router(), "testbed: edge site is not a router",
                site);
  edge_agents agents;
  agents.igmp = std::make_unique<mcast::igmp_agent>(net_, id);
  agents.sigma =
      std::make_unique<core::sigma_router_agent>(net_, id, *agents.igmp);
  // The interface-keying countermeasure is a scenario-wide contract: every
  // edge validates perturbed keys iff every receiver strategy submits them
  // (add_flid_session sets the matching strategy side).
  agents.sigma->set_interface_keying(cfg_.interface_keying);
  agents.sigma->set_probation_memory(cfg_.probation_memory_slots);
  edge_agents& placed = edges_.emplace(site, std::move(agents)).first->second;
  register_edge_metrics(site, placed);
  return placed;
}

testbed::edge_agents& testbed::existing_edge_or_new(const std::string& name) {
  const std::string& site = site_or(name, cfg_.receiver_site);
  if (finalized_) {
    // After the run, only routers that actually were edges have agents;
    // creating a fresh zero-counter agent here would make post-run stats
    // assertions vacuously pass.
    auto it = edges_.find(site);
    util::require(it != edges_.end(),
                  "testbed: router was never an edge (no host attached)", site);
    return it->second;
  }
  return edge_for(site);
}

mcast::igmp_agent& testbed::igmp(const std::string& name) {
  return *existing_edge_or_new(name).igmp;
}

core::sigma_router_agent& testbed::sigma(const std::string& name) {
  return *existing_edge_or_new(name).sigma;
}

adversary::collusion_coordinator& testbed::coordinator(int coalition) {
  auto it = coordinators_.find(coalition);
  if (it == coordinators_.end()) {
    it = coordinators_
             .emplace(coalition,
                      std::make_unique<adversary::collusion_coordinator>())
             .first;
  }
  return *it->second;
}

sim::node_id testbed::attach_host(const std::string& name,
                                  const std::string& router_name) {
  return attach_host(name, router_name, cfg_.access_bps, cfg_.access_delay);
}

sim::node_id testbed::attach_host(const std::string& name,
                                  const std::string& router_name, double bps,
                                  sim::time_ns delay) {
  util::require(!finalized_, "testbed: cannot attach hosts after run");
  util::require(!router_name.empty(), "testbed::attach_host: empty router name",
                name);
  util::require(delay >= 0, "testbed::attach_host: negative access delay",
                delay);
  const sim::node_id r = topo_.node(router_name);
  util::require(net_.get(r)->is_router(),
                "testbed::attach_host: attachment point is not a router",
                router_name);
  // Attaching makes the router an edge: ensure its IGMP/SIGMA agents exist
  // before any traffic can reach it.
  (void)edge_for(router_name);
  const sim::node_id h = net_.add_host(name);
  sim::link_config ac;
  ac.bps = bps;
  ac.delay = delay;
  ac.queue_capacity_bytes = queue_bytes(bps, cfg_.buffer_bdp, cfg_.base_rtt);
  // Edge-queue experiments select the access discipline per testbed; the
  // default stays drop-tail. An unset AQM seed inherits the testbed seed so
  // probabilistic policies follow the run's seed sweep.
  ac.aqm = cfg_.access_aqm;
  if (ac.aqm.seed == 0) ac.aqm.seed = cfg_.seed;
  net_.connect(h, r, ac);
  return h;
}

flid::flid_config testbed::default_flid_config(flid_mode mode) const {
  flid::flid_config cfg;
  cfg.num_groups = 10;
  cfg.base_rate_bps = 100e3;
  cfg.rate_multiplier = 1.5;
  cfg.packet_bytes = 576;
  cfg.key_bits = 16;
  if (mode == flid_mode::dl) {
    cfg.slot_duration = sim::milliseconds(500);
    cfg.upgrade_prob = 0.3;
  } else {
    // Paper section 5.1: 250 ms slots so SIGMA's two-slot enforcement matches
    // FLID-DL's control granularity; halve the per-slot upgrade probability
    // so upgrade signals arrive at the same real-time frequency.
    cfg.slot_duration = sim::milliseconds(250);
    cfg.upgrade_prob = 0.15;
  }
  return cfg;
}

flid_session& testbed::add_flid_session(
    flid_mode mode, const std::vector<receiver_options>& receivers,
    const session_options& opts) {
  return add_flid_session(mode, default_flid_config(mode), receivers, opts);
}

flid_session& testbed::add_flid_session(
    flid_mode mode, flid::flid_config cfg,
    const std::vector<receiver_options>& receivers,
    const session_options& opts) {
  util::require(!finalized_, "testbed: cannot add sessions after run");
  // Validate every placement up front: once the sender is attached and
  // started it has scheduled events, so a mid-loop failure would leave a
  // half-built session behind for callers that catch the error.
  const std::string& sender_site = site_or(opts.sender_at, cfg_.sender_site);
  validate_attach_site(sender_site);
  for (const receiver_options& opt : receivers) {
    const std::string& site = site_or(opt.at, cfg_.receiver_site);
    validate_attach_site(site);
    util::require(opt.access_delay.value_or(0) >= 0,
                  "testbed: negative receiver access delay", site);
  }
  const int sid = next_session_id_++;
  cfg.session_id = sid;
  cfg.group_addr_base = 10'000 + sid * 100;

  auto session = std::make_unique<flid_session>();
  session->mode = mode;
  session->config = cfg;

  session->sender_host =
      attach_host("mc_src_" + std::to_string(sid), sender_site);
  session->sender = std::make_unique<flid::flid_sender>(
      net_, session->sender_host, cfg, next_seed());
  if (mode == flid_mode::ds) {
    session->ds = core::make_flid_ds_sender(net_, session->sender_host,
                                            *session->sender, next_seed());
  }
  session->sender->start(opts.sender_start);

  // Strategies are compiled from adversary profiles. The build context's
  // seed source is the testbed seed chain: the factory draws only for
  // strategies that consume randomness, preserving historical streams for
  // ported scenarios.
  adversary::build_context actx;
  actx.next_seed = [this] { return next_seed(); };
  actx.coordinator = [this](int coalition) -> adversary::collusion_coordinator& {
    return coordinator(coalition);
  };
  actx.interface_keying = cfg_.interface_keying;
  const adversary::protocol proto = mode == flid_mode::dl
                                        ? adversary::protocol::plain
                                        : adversary::protocol::sigma;
  int ridx = 0;
  for (const receiver_options& opt : receivers) {
    const std::string& site = site_or(opt.at, cfg_.receiver_site);
    const sim::node_id rh = attach_host(
        "mc_rcv_" + std::to_string(sid) + "_" + std::to_string(ridx++), site,
        cfg_.access_bps, opt.access_delay.value_or(cfg_.access_delay));
    auto receiver = std::make_unique<flid::flid_receiver>(
        net_, rh, topo_.node(site), cfg,
        adversary::make_strategy(proto, opt.attack, actx));
    if (cm_ != nullptr) {
      // Register the session under the receiver's aggregated edge path and
      // wire the data plane before start() latches the receiver's state.
      const cm::path_id path = cm_path(site);
      cm_->register_session(path, sid);
      receiver->set_congestion_path(cm_.get(), path);
    }
    receiver->start(opt.start_time);
    if (opt.attack.attacks()) {
      // Attacker-spend views (adversary::measure_cost reads the receiver's
      // live counters at snapshot time). Honest receivers register nothing:
      // their cost is all zeros and would only bloat the snapshots.
      const flid::flid_receiver* rp = receiver.get();
      const obs::label_list labels{{"session", std::to_string(sid)},
                                   {"receiver", net_.get(rh)->name()}};
      metrics_.add_view("attacker.ctrl_msgs", labels, [rp] {
        return static_cast<double>(adversary::measure_cost(*rp).ctrl_msgs);
      });
      metrics_.add_view("attacker.ctrl_bytes", labels, [rp] {
        return static_cast<double>(adversary::measure_cost(*rp).ctrl_bytes);
      });
      metrics_.add_view("attacker.useless_keys", labels, [rp] {
        return static_cast<double>(adversary::measure_cost(*rp).useless_keys);
      });
      metrics_.add_view("attacker.cutoff_slots", labels, [rp] {
        return static_cast<double>(adversary::measure_cost(*rp).cutoff_slots);
      });
    }
    session->receivers.push_back(std::move(receiver));
  }

  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

std::vector<flid_session*> testbed::add_session_array(
    int n, flid_mode mode, const std::vector<receiver_options>& receivers,
    const session_options& opts) {
  util::require(n >= 1, "testbed::add_session_array: need n >= 1", n);
  std::vector<flid_session*> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(&add_flid_session(mode, receivers, opts));
  }
  return out;
}

flid_population& testbed::add_population(flid_session& session,
                                         const population_options& opts) {
  util::require(!finalized_, "testbed: cannot add populations after run");
  const std::string& site = site_or(opts.at, cfg_.receiver_site);
  validate_attach_site(site);
  util::require(opts.access_delay.value_or(0) >= 0,
                "testbed: negative population access delay", site);

  const int sid = session.config.session_id;
  const int pidx = static_cast<int>(session.populations.size());
  auto pop = std::make_unique<flid_population>();

  population::population_config pcfg = opts.population;
  // Drawn here, not at session creation: scenarios without populations never
  // consume this stream draw, so historical runs replay byte-identically.
  pcfg.seed = next_seed();
  pop->aggregate = std::make_unique<population::edge_aggregate>(
      sched_, session.config, pcfg);

  const sim::node_id host = attach_host(
      "mc_pop_" + std::to_string(sid) + "_" + std::to_string(pidx), site,
      cfg_.access_bps, opts.access_delay.value_or(cfg_.access_delay));
  const population::protocol proto = session.mode == flid_mode::dl
                                         ? population::protocol::plain
                                         : population::protocol::sigma;
  pop->delegate = std::make_unique<flid::flid_receiver>(
      net_, host, topo_.node(site), session.config,
      population::make_aggregate_strategy(proto, *pop->aggregate,
                                          cfg_.interface_keying));
  if (cm_ != nullptr) {
    // The delegate speaks for the whole population, so the population's
    // consolidated subscription is capped like any individual receiver's.
    const cm::path_id path = cm_path(site);
    cm_->register_session(path, sid);
    pop->delegate->set_congestion_path(cm_.get(), path);
  }
  pop->delegate->start(opts.start_time);
  const population::edge_aggregate* agg = pop->aggregate.get();
  const obs::label_list labels{{"session", std::to_string(sid)},
                               {"edge", site},
                               {"index", std::to_string(pidx)}};
  metrics_.add_view("population.state_bytes", labels, [agg] {
    return static_cast<double>(agg->state_bytes());
  });
  metrics_.add_view("population.peak_members", labels, [agg] {
    return static_cast<double>(agg->stats().peak_members);
  });
  metrics_.add_view("population.arrivals", labels, [agg] {
    return static_cast<double>(agg->stats().arrivals);
  });
  metrics_.add_view("population.departures", labels, [agg] {
    return static_cast<double>(agg->stats().departures);
  });
  session.populations.push_back(std::move(pop));
  return *session.populations.back();
}

tcp_flow& testbed::add_tcp_flow(sim::time_ns start_time) {
  flow_options opts;
  opts.start_time = start_time;
  return add_tcp_flow(opts);
}

void testbed::validate_attach_site(const std::string& site) const {
  util::require(net_.get(topo_.node(site))->is_router(),
                "testbed: attachment site is not a router", site);
}

tcp_flow& testbed::add_tcp_flow(const flow_options& opts) {
  util::require(!finalized_, "testbed: cannot add flows after run");
  validate_attach_site(site_or(opts.src_at, cfg_.sender_site));
  validate_attach_site(site_or(opts.dst_at, cfg_.receiver_site));
  const int fid = next_flow_id_++;
  const sim::node_id src = attach_host("tcp_src_" + std::to_string(fid),
                                       site_or(opts.src_at, cfg_.sender_site));
  const sim::node_id dst =
      attach_host("tcp_dst_" + std::to_string(fid),
                  site_or(opts.dst_at, cfg_.receiver_site));
  auto flow = std::make_unique<tcp_flow>();
  tcp::tcp_config cfg;
  cfg.flow_id = fid;
  cfg.segment_bytes = 576;
  cfg.start_time = opts.start_time;
  flow->sink = std::make_unique<tcp::tcp_sink>(net_, dst, fid, 40);
  flow->sender = std::make_unique<tcp::tcp_sender>(net_, src, dst, cfg);
  tcp_flows_.push_back(std::move(flow));
  return *tcp_flows_.back();
}

cbr_flow& testbed::add_cbr(const traffic::cbr_config& cfg_in,
                           const flow_options& opts) {
  util::require(!finalized_, "testbed: cannot add flows after run");
  validate_attach_site(site_or(opts.src_at, cfg_.sender_site));
  validate_attach_site(site_or(opts.dst_at, cfg_.receiver_site));
  traffic::cbr_config cfg = cfg_in;
  cfg.flow_id = next_flow_id_++;
  const sim::node_id src =
      attach_host("cbr_src_" + std::to_string(cfg.flow_id),
                  site_or(opts.src_at, cfg_.sender_site));
  const sim::node_id dst =
      attach_host("cbr_dst_" + std::to_string(cfg.flow_id),
                  site_or(opts.dst_at, cfg_.receiver_site));
  auto flow = std::make_unique<cbr_flow>();
  flow->sink = std::make_unique<traffic::cbr_sink>(net_, dst, cfg.flow_id);
  flow->source = std::make_unique<traffic::cbr_source>(net_, src, dst, cfg);
  cbr_flows_.push_back(std::move(flow));
  return *cbr_flows_.back();
}

void testbed::finalize() {
  if (finalized_) return;
  finalized_ = true;
  net_.finalize_routing();
  // All links exist by now (hosts cannot attach after the run starts), so
  // this is the one place that sees the complete link set.
  register_link_metrics();
}

void testbed::register_scheduler_metrics() {
  const sim::scheduler* s = &sched_;
  metrics_.add_view("sched.executed_events", {}, [s] {
    return static_cast<double>(s->executed_events());
  });
  metrics_.add_view("sched.pending_events", {}, [s] {
    return static_cast<double>(s->pending_events());
  });
  metrics_.add_view("sched.max_pending_events", {}, [s] {
    return static_cast<double>(s->max_pending_events());
  });
  metrics_.add_view("sched.slots_high_water", {}, [s] {
    return static_cast<double>(s->slots_high_water());
  });
}

void testbed::register_edge_metrics(const std::string& site,
                                    edge_agents& agents) {
  const obs::label_list labels{{"router", site}};
  const mcast::igmp_agent* ig = agents.igmp.get();
  metrics_.add_view("igmp.joins", labels, [ig] {
    return static_cast<double>(ig->stats().joins);
  });
  metrics_.add_view("igmp.leaves", labels, [ig] {
    return static_cast<double>(ig->stats().leaves);
  });
  metrics_.add_view("igmp.refused_protected", labels, [ig] {
    return static_cast<double>(ig->stats().refused_protected);
  });
  // The full SIGMA counter block as thin views: the struct stays the router's
  // API (tests and benches keep reading sigma().stats()), the registry only
  // reads through at snapshot time.
  const core::sigma_router_agent* sg = agents.sigma.get();
  using sigma_counters = core::sigma_router_agent::counters;
  const auto add_sigma = [&](const char* name,
                             std::uint64_t sigma_counters::*field) {
    metrics_.add_view(std::string("sigma.") + name, labels, [sg, field] {
      return static_cast<double>(sg->stats().*field);
    });
  };
  add_sigma("ctrl_shards", &sigma_counters::ctrl_shards);
  add_sigma("blocks_decoded", &sigma_counters::blocks_decoded);
  add_sigma("subscribe_msgs", &sigma_counters::subscribe_msgs);
  add_sigma("valid_keys", &sigma_counters::valid_keys);
  add_sigma("invalid_keys", &sigma_counters::invalid_keys);
  add_sigma("session_joins", &sigma_counters::session_joins);
  add_sigma("session_joins_refused", &sigma_counters::session_joins_refused);
  add_sigma("unsubscribes", &sigma_counters::unsubscribes);
  add_sigma("grace_forwards", &sigma_counters::grace_forwards);
  add_sigma("authorized_forwards", &sigma_counters::authorized_forwards);
  add_sigma("denied", &sigma_counters::denied);
  add_sigma("probation_blocks", &sigma_counters::probation_blocks);
  add_sigma("stale_prunes", &sigma_counters::stale_prunes);
  add_sigma("pending_subscriptions", &sigma_counters::pending_subscriptions);
  add_sigma("memory_records", &sigma_counters::memory_records);
  add_sigma("memory_inherits", &sigma_counters::memory_inherits);
  add_sigma("memory_refusals", &sigma_counters::memory_refusals);
  add_sigma("blocked_grants", &sigma_counters::blocked_grants);
}

void testbed::register_cm_metrics() {
  const cm::congestion_manager* m = cm_.get();
  using cm_counters = cm::congestion_manager::counters;
  const auto add_counter = [&](const char* name,
                               std::uint64_t cm_counters::*field) {
    metrics_.add_view(std::string("cm.") + name, {}, [m, field] {
      return static_cast<double>(m->stats().*field);
    });
  };
  add_counter("observations", &cm_counters::observations);
  add_counter("insertions", &cm_counters::insertions);
  add_counter("evictions", &cm_counters::evictions);
  add_counter("aged_resets", &cm_counters::aged_resets);
  add_counter("lookups", &cm_counters::lookups);
  add_counter("stale_lookups", &cm_counters::stale_lookups);
  add_counter("capped_lookups", &cm_counters::capped_lookups);
  metrics_.add_view("cm.entries", {}, [m] {
    return static_cast<double>(m->entries());
  });
  metrics_.add_view("cm.registered_paths", {}, [m] {
    return static_cast<double>(m->registered_paths());
  });
  metrics_.add_view("cm.registered_sessions", {}, [m] {
    return static_cast<double>(m->registered_sessions());
  });
}

void testbed::register_link_metrics() {
  for (const auto& owned : net_.links()) {
    const sim::link* l = owned.get();
    const obs::label_list labels{{"from", l->from()->name()},
                                 {"to", l->to()->name()}};
    metrics_.add_view("link.enqueued", labels, [l] {
      return static_cast<double>(l->stats().enqueued);
    });
    metrics_.add_view("link.dropped", labels, [l] {
      return static_cast<double>(l->stats().dropped);
    });
    metrics_.add_view("link.aqm_dropped", labels, [l] {
      return static_cast<double>(l->stats().aqm_dropped);
    });
    metrics_.add_view("link.delivered", labels, [l] {
      return static_cast<double>(l->stats().delivered);
    });
    metrics_.add_view("link.ecn_marked", labels, [l] {
      return static_cast<double>(l->stats().ecn_marked);
    });
    metrics_.add_view("link.bytes_delivered", labels, [l] {
      return static_cast<double>(l->stats().bytes_delivered);
    });
    metrics_.add_view("link.bytes_dropped", labels, [l] {
      return static_cast<double>(l->stats().bytes_dropped);
    });
    metrics_.add_view("link.max_queued_bytes", labels, [l] {
      return static_cast<double>(l->stats().max_queued_bytes);
    });
  }
}

void testbed::run_until(sim::time_ns until) {
  finalize();
  sched_.run_until(until);
}

// ---------------------------------------------------------------------------
// Scenario factories: each builds its backbone and returns
// {world options (the config's base), topology, sender site, receiver site}.
// ---------------------------------------------------------------------------

namespace {

/// Backbone link sized like every factory sizes links: queue of
/// buffer_bdp bandwidth-delay products at the scenario base RTT. Carries the
/// scenario's queue discipline; an unset AQM seed inherits the scenario seed
/// so probabilistic policies follow the run's seed sweep.
template <typename Cfg>
sim::link_config backbone_link(double bps, sim::time_ns delay,
                               const Cfg& cfg) {
  sim::link_config l;
  l.bps = bps;
  l.delay = delay;
  l.queue_capacity_bytes = queue_bytes(bps, cfg.buffer_bdp, cfg.base_rtt);
  l.aqm = cfg.aqm;
  if (l.aqm.seed == 0) l.aqm.seed = cfg.seed;
  return l;
}

}  // namespace

testbed_config dumbbell(const dumbbell_config& cfg) {
  const auto bn = backbone_link(cfg.bottleneck_bps, cfg.bottleneck_delay, cfg);
  return {cfg, sim::dumbbell(bn), "l", "r"};
}

testbed_config parking_lot(const parking_lot_config& cfg) {
  const auto bn = backbone_link(cfg.bottleneck_bps, cfg.bottleneck_delay, cfg);
  return {cfg, sim::parking_lot(cfg.bottlenecks, bn), "r0",
          "r" + std::to_string(cfg.bottlenecks)};
}

testbed_config star(const star_config& cfg) {
  const auto spoke_link = backbone_link(cfg.spoke_bps, cfg.spoke_delay, cfg);
  return {cfg, sim::star(cfg.spokes, spoke_link), "hub", "s1"};
}

testbed_config balanced_tree(const tree_config& cfg) {
  const auto edge = backbone_link(cfg.edge_bps, cfg.edge_delay, cfg);
  return {cfg, sim::balanced_tree(cfg.depth, cfg.fanout, edge), "root",
          "t" + std::to_string(cfg.depth) + "_0"};
}

double average_receiver_kbps(flid_session& session, sim::time_ns t0,
                             sim::time_ns t1) {
  if (session.receivers.empty()) return 0.0;
  double sum = 0.0;
  for (auto& r : session.receivers) sum += r->monitor().average_kbps(t0, t1);
  return sum / static_cast<double>(session.receivers.size());
}

session_rollup session_rollup_for(const std::vector<flid_session*>& sessions,
                                  sim::time_ns t0, sim::time_ns t1) {
  std::vector<session_sample> samples;
  samples.reserve(sessions.size());
  for (flid_session* s : sessions) {
    session_sample sample;
    sample.name = "session" + std::to_string(s->config.session_id);
    // Point-wise sum across the session's monitors keyed by sample time:
    // receivers share the monitor bin grid, but a late-started receiver's
    // series begins later, so merging by x keeps the sum honest.
    std::map<double, double> merged;
    const auto fold = [&](flid::flid_receiver& r) {
      sample.rate += r.monitor().average_kbps(t0, t1);
      for (const auto& [x, y] : r.monitor().series_kbps()) merged[x] += y;
    };
    for (auto& r : s->receivers) fold(*r);
    for (auto& p : s->populations) fold(*p->delegate);
    sample.raw.assign(merged.begin(), merged.end());
    samples.push_back(std::move(sample));
  }
  return roll_up_sessions(samples);
}

// ---------------------------------------------------------------------------
// AQM flag glue
// ---------------------------------------------------------------------------

void add_aqm_flags(util::flag_set& flags) {
  flags.add_enum("qdisc", "droptail",
                 "queue discipline(s); comma lists sweep one grid axis per "
                 "entry",
                 {"droptail", "ecn", "ecn_threshold", "red", "codel", "all"},
                 /*csv_list=*/true);
  flags.add("ecn-threshold", "0.5", "ecn: mark above this occupancy fraction");
  flags.add("red-min", "0.15", "red: min threshold, fraction of capacity");
  flags.add("red-max", "0.5", "red: max threshold, fraction of capacity");
  flags.add("red-maxp", "0.1", "red: drop probability at the max threshold");
  flags.add("red-weight", "0.002", "red: EWMA weight");
  flags.add("red-gentle", "true", "red: ramp to certain drop over [max,2max]");
  flags.add("codel-target", "5", "codel: target sojourn time, ms");
  flags.add("codel-interval", "100", "codel: control interval, ms");
}

std::vector<sim::qdisc> qdisc_list_from_flags(const util::flag_set& flags) {
  const std::string spec = flags.str("qdisc");
  if (spec == "all") {
    return {sim::qdisc::droptail, sim::qdisc::ecn_threshold, sim::qdisc::red,
            sim::qdisc::codel};
  }
  std::vector<sim::qdisc> out;
  for (const std::string& name : util::split_csv(spec)) {
    const auto d = sim::qdisc_from_name(name);
    if (!d.has_value()) {
      // A typo on the command line, not a program invariant: fail with the
      // same friendly UX as a bad numeric flag value.
      std::fprintf(stderr,
                   "bad value for --qdisc: '%s' (expected droptail, ecn, red, "
                   "codel, a comma list, or all)\n",
                   name.c_str());
      std::exit(1);
    }
    out.push_back(*d);
  }
  return out;
}

sim::aqm_config aqm_config_from_flags(const util::flag_set& flags) {
  // Range-check here, with the friendly bad-flag UX: the policy constructors
  // also validate, but they throw on a sweep worker thread where an uncaught
  // invariant_error is always std::terminate.
  const auto checked = [&](const char* flag, double lo, double hi,
                           const char* expect) {
    const double v = flags.f64(flag);
    if (!(v >= lo && v <= hi)) {
      std::fprintf(stderr, "bad value for --%s: %g (expected %s)\n", flag, v,
                   expect);
      std::exit(1);
    }
    return v;
  };
  sim::aqm_config cfg;
  cfg.discipline = qdisc_list_from_flags(flags).front();
  cfg.ecn_threshold_fraction =
      checked("ecn-threshold", 0.0, 1.0, "a fraction in [0, 1]");
  cfg.red.min_fraction =
      checked("red-min", 1e-9, 1.0, "a capacity fraction in (0, 1]");
  cfg.red.max_fraction =
      checked("red-max", 1e-9, 1.0, "a capacity fraction in (0, 1]");
  if (cfg.red.min_fraction >= cfg.red.max_fraction) {
    std::fprintf(stderr, "bad value for --red-min/--red-max: %g >= %g "
                         "(expected min < max)\n",
                 cfg.red.min_fraction, cfg.red.max_fraction);
    std::exit(1);
  }
  cfg.red.max_prob =
      checked("red-maxp", 1e-9, 1.0, "a probability in (0, 1]");
  cfg.red.weight =
      checked("red-weight", 1e-9, 1.0, "an EWMA weight in (0, 1]");
  cfg.red.gentle = flags.boolean("red-gentle");
  cfg.codel.target = sim::milliseconds(static_cast<std::int64_t>(
      checked("codel-target", 1.0, 1e9, "a positive millisecond count")));
  cfg.codel.interval = sim::milliseconds(static_cast<std::int64_t>(
      checked("codel-interval", 1.0, 1e9, "a positive millisecond count")));
  return cfg;
}

// ---------------------------------------------------------------------------
// World-switch flag glue
// ---------------------------------------------------------------------------

void add_axis_flag(util::flag_set& flags, const char* name, const char* def,
                   const std::string& help) {
  flags.add_enum(name, def, help + ": both sweeps it as a grid axis",
                 {"off", "on", "both"});
}

void add_probation_memory_slots_flag(util::flag_set& flags) {
  flags.add("probation-memory-slots", "8",
            "probation-memory window length in slots when on");
}

int probation_memory_slots_from_flags(const util::flag_set& flags) {
  const std::int64_t slots = flags.i64("probation-memory-slots");
  if (slots < 1 || slots > 1 << 20) {
    std::fprintf(stderr,
                 "bad value for --probation-memory-slots: '%lld' (expected a "
                 "slot count in [1, 2^20])\n",
                 static_cast<long long>(slots));
    std::exit(1);
  }
  return static_cast<int>(slots);
}

void add_cm_flags(util::flag_set& flags) {
  flags.add("cm-entries", "64", "cm: LRU state-cache capacity, entries");
  flags.add("cm-aging", "8", "cm: staleness window, slots");
  flags.add("cm-threshold", "0.25",
            "cm: congestion EWMA level the cap binds above");
  flags.add("cm-headroom", "1.3", "cm: fair-rate multiplier for the cap");
}

cm::cm_config cm_config_from_flags(const util::flag_set& flags) {
  // Range-check with the friendly bad-flag UX: the cm_config constructor
  // checks too, but its invariant_error would surface out of a sweep worker
  // thread as std::terminate instead of a flag message.
  cm::cm_config cfg;
  const std::int64_t entries = flags.i64("cm-entries");
  if (entries < 1 || entries > 1 << 20) {
    std::fprintf(stderr,
                 "bad value for --cm-entries: '%lld' (expected an entry "
                 "count in [1, 2^20])\n",
                 static_cast<long long>(entries));
    std::exit(1);
  }
  cfg.max_entries = static_cast<int>(entries);
  const std::int64_t aging = flags.i64("cm-aging");
  if (aging < 1 || aging > 1 << 20) {
    std::fprintf(stderr,
                 "bad value for --cm-aging: '%lld' (expected a slot count in "
                 "[1, 2^20])\n",
                 static_cast<long long>(aging));
    std::exit(1);
  }
  cfg.aging_slots = aging;
  const double threshold = flags.f64("cm-threshold");
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    std::fprintf(stderr,
                 "bad value for --cm-threshold: %g (expected a fraction in "
                 "[0, 1])\n",
                 threshold);
    std::exit(1);
  }
  cfg.congestion_threshold = threshold;
  const double headroom = flags.f64("cm-headroom");
  if (!(headroom > 0.0 && headroom <= 100.0)) {
    std::fprintf(stderr,
                 "bad value for --cm-headroom: %g (expected a multiplier in "
                 "(0, 100])\n",
                 headroom);
    std::exit(1);
  }
  cfg.headroom = headroom;
  return cfg;
}

// ---------------------------------------------------------------------------
// Population flag glue
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_flag(const char* flag, const std::string& v,
                           const char* expected) {
  std::fprintf(stderr, "bad value for --%s: '%s' (expected %s)\n", flag,
               v.c_str(), expected);
  std::exit(1);
}

/// Parses the non-negative number after a `key:` prefix; the whole spec is
/// echoed in the bad-flag message so the offending list item is visible.
double spec_number(const char* flag, const std::string& spec,
                   const std::string& tok, const char* expected) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !(v >= 0.0)) {
    bad_flag(flag, spec, expected);
  }
  return v;
}

}  // namespace

void add_population_flags(util::flag_set& flags, const char* default_sizes) {
  flags.add("population", default_sizes,
            "aggregated population size(s): comma-separated member counts, "
            "one grid axis entry each");
  flags.add("demand", "zipf:1.1",
            "member layer demand: max | uniform | zipf:S");
  flags.add("churn", "none",
            "population churn: none, or comma list of arrive:R, leave:R, "
            "flash:T:N, flash-leave:T (R members/s, T seconds, N members)");
}

population::population_config population_config_from_flags(
    const util::flag_set& flags) {
  population::population_config cfg;

  const std::string demand = flags.str("demand");
  if (demand == "max") {
    cfg.demand.k = population::demand_config::kind::max;
  } else if (demand == "uniform") {
    cfg.demand.k = population::demand_config::kind::uniform;
  } else if (demand.rfind("zipf:", 0) == 0) {
    cfg.demand.k = population::demand_config::kind::zipf;
    cfg.demand.zipf_s = spec_number("demand", demand, demand.substr(5),
                                    "max, uniform, or zipf:S with S >= 0");
  } else {
    bad_flag("demand", demand, "max, uniform, or zipf:S");
  }

  const std::string churn = flags.str("churn");
  if (churn != "none") {
    static const char* churn_expect =
        "none, or comma list of arrive:R, leave:R, flash:T:N, flash-leave:T";
    for (const std::string& item : util::split_csv(churn)) {
      if (item.rfind("arrive:", 0) == 0) {
        cfg.churn.arrival_per_sec =
            spec_number("churn", churn, item.substr(7), churn_expect);
      } else if (item.rfind("leave:", 0) == 0) {
        cfg.churn.leave_per_sec =
            spec_number("churn", churn, item.substr(6), churn_expect);
      } else if (item.rfind("flash-leave:", 0) == 0) {
        cfg.churn.flash_leave_at = sim::seconds(
            spec_number("churn", churn, item.substr(12), churn_expect));
      } else if (item.rfind("flash:", 0) == 0) {
        const std::string rest = item.substr(6);
        const std::size_t colon = rest.find(':');
        if (colon == std::string::npos) bad_flag("churn", churn, churn_expect);
        cfg.churn.flash_at = sim::seconds(
            spec_number("churn", churn, rest.substr(0, colon), churn_expect));
        cfg.churn.flash_members = static_cast<std::int64_t>(spec_number(
            "churn", churn, rest.substr(colon + 1), churn_expect));
      } else {
        bad_flag("churn", churn, churn_expect);
      }
    }
  }
  return cfg;
}

std::vector<std::int64_t> population_axis_from_flags(
    const util::flag_set& flags) {
  const std::string spec = flags.str("population");
  std::vector<std::int64_t> out;
  for (const std::string& tok : util::split_csv(spec)) {
    const double v = spec_number("population", spec, tok,
                                 "comma-separated non-negative member counts");
    out.push_back(static_cast<std::int64_t>(v));
  }
  if (out.empty()) {
    bad_flag("population", spec,
             "comma-separated non-negative member counts");
  }
  return out;
}

}  // namespace mcc::exp
