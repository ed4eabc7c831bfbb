// The four benchmark workloads and the per-world measurement loop.
//
// Every world goes through run_world: build (testbed + attach calls),
// finalize (the first run_until, which computes routing), run (run_until,
// split at the workload's attack onset so pre- and post-attack cost per
// simulated second can be told apart), report, snapshot, then the invariant
// checks and the digest, which are not timed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "adversary/adversary.h"
#include "crypto/gf256.h"
#include "e2e.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/stats.h"

namespace mcc::e2e {

namespace {

const auto process_start = std::chrono::steady_clock::now();

/// A built world: the testbed plus what the checks and the report need.
struct world {
  std::unique_ptr<exp::testbed> tb;
  std::vector<exp::flid_session*> sessions;
  /// The workload's own results (rates, fairness); every value must be
  /// finite.
  std::function<std::vector<double>()> report;
};

constexpr std::uint64_t fnv_offset = 1469598103934665603ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= fnv_prime;
  }
}

std::uint64_t world_digest(const obs::metric_snapshot& snap,
                           std::uint64_t executed) {
  std::uint64_t h = fnv_offset;
  for (const auto& [name, value] : snap) {
    fnv(h, name.data(), name.size() + 1);  // include the terminator
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    fnv(h, &bits, sizeof bits);
  }
  fnv(h, &executed, sizeof executed);
  return h;
}

void check(world_result& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (ok) return;
  ++r.failed;
  if (r.failures.size() < 10) r.failures.push_back(what);
}

template <typename F>
void for_each_receiver(const std::vector<exp::flid_session*>& sessions, F f) {
  for (exp::flid_session* s : sessions) {
    for (auto& r : s->receivers) f(*s, *r);
    for (auto& p : s->populations) f(*s, *p->delegate);
  }
}

/// Samples the state the probes are parameterized with: the widest multicast
/// fan-out at any router and the SIGMA receivers' subscription levels.
void sample_state(world_result& r, const world& w) {
  exp::testbed& tb = *w.tb;
  for (const std::string& name : tb.topo().routers()) {
    const sim::node* n = tb.net().get(tb.router(name));
    for (exp::flid_session* s : w.sessions) {
      for (int g = 1; g <= s->config.num_groups; ++g) {
        r.max_fanout = std::max(r.max_fanout, n->oif_count(s->config.group(g)));
      }
    }
  }
  for_each_receiver(w.sessions, [&](exp::flid_session& s,
                                    flid::flid_receiver& rcv) {
    if (s.mode != exp::flid_mode::ds) return;
    r.level_sum += rcv.level();
    ++r.level_samples;
  });
}

/// The world's invariants: link conservation and queue bounds, receiver
/// levels inside [0, groups], finite registry and report values.
void check_world(world_result& r, const world& w,
                 const obs::metric_snapshot& snap,
                 const std::vector<double>& report) {
  for (const auto& l : w.tb->net().links()) {
    const std::string id = l->from()->name() + ">" + l->to()->name();
    check(r, l->stats().delivered <= l->stats().enqueued,
          "link " + id + ": delivered > enqueued");
    check(r, l->queued_bytes() <= l->config().queue_capacity_bytes,
          "link " + id + ": queued bytes over capacity");
  }
  for_each_receiver(w.sessions, [&](exp::flid_session& s,
                                    flid::flid_receiver& rcv) {
    check(r, rcv.level() >= 0 && rcv.level() <= s.config.num_groups,
          "session " + std::to_string(s.config.session_id) +
              ": receiver level out of range");
  });
  for (const auto& [name, value] : snap) {
    check(r, std::isfinite(value), "metric " + name + " is not finite");
  }
  for (std::size_t i = 0; i < report.size(); ++i) {
    check(r, std::isfinite(report[i]),
          "report value " + std::to_string(i) + " is not finite");
  }
}

/// Layer counts from the snapshot, the nodes, and the sessions.
void collect_counts(world_result& r, const world& w,
                    const obs::metric_snapshot& snap) {
  auto& c = r.counts;
  for (const auto& [flat, value] : snap) {
    const std::string base = flat.substr(0, flat.find('{'));
    if (base == "population.state_bytes") {
      c[base] = std::max(c[base], value);
    } else if (base.starts_with("link.") || base.starts_with("sigma.") ||
               base.starts_with("cm.") || base.starts_with("population.")) {
      c[base] += value;
    }
  }
  exp::testbed& tb = *w.tb;
  r.peak_pending = static_cast<double>(tb.sched().max_pending_events());
  r.slots_high_water = static_cast<double>(tb.sched().slots_high_water());
  c["sched.events"] += static_cast<double>(tb.sched().executed_events());
  for (int i = 0; i < tb.net().node_count(); ++i) {
    const sim::node* n = tb.net().get(i);
    if (!n->is_router()) continue;
    c["node.forwarded_multicast"] +=
        static_cast<double>(n->stats().forwarded_multicast);
    c["node.forwarded_unicast"] +=
        static_cast<double>(n->stats().forwarded_unicast);
    c["node.policy_denied"] += static_cast<double>(n->stats().policy_denied);
  }
  for (const auto& l : tb.net().links()) {
    if (l->to()->is_router()) {
      c["node.arrivals"] += static_cast<double>(l->stats().delivered);
    }
  }
  for (exp::flid_session* s : w.sessions) {
    if (s->mode == exp::flid_mode::ds) {
      c["delta.slots"] += static_cast<double>(s->sender->stats().slots);
    }
    for (auto& p : s->populations) {
      c["population.ticks"] += static_cast<double>(p->aggregate->stats().slots);
    }
  }
  for_each_receiver(w.sessions, [&](exp::flid_session& s,
                                    flid::flid_receiver& rcv) {
    if (s.mode != exp::flid_mode::ds) return;
    c["delta.receiver_slots"] += static_cast<double>(rcv.stats().slots_evaluated);
  });
}

/// Runs `f` inside a span of the log; returns its host time in ms.
template <typename F>
double timed(span_log& log, const std::string& name, int parent, F f) {
  const int s = log.open(name, parent);
  const double start = now_us();
  f();
  const double ms = (now_us() - start) / 1e3;
  log.close(s);
  return ms;
}

std::string sim_seconds(sim::time_ns t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", sim::to_seconds(t));
  return buf;
}

world_result run_world(int id, const run_options& opt, sim::time_ns split,
                       sim::time_ns horizon,
                       const std::function<world()>& build) {
  world_result r;
  r.id = id;
  span_log log(opt.traced, id);
  const int root = log.open("world " + std::to_string(id));

  world w;
  r.build_ms = timed(log, "build", root, [&] { w = build(); });
  r.finalize_ms = timed(log, "finalize", root, [&] { w.tb->run_until(0); });

  if (!opt.setup_only) {
    // Run boundaries: the split and the horizon; the traced run also stops
    // every 10 simulated seconds so the trace shows where run time goes.
    std::vector<sim::time_ns> stops;
    if (opt.traced) {
      for (sim::time_ns b = sim::seconds(10.0); b < horizon;
           b += sim::seconds(10.0)) {
        stops.push_back(b);
      }
    }
    stops.push_back(split);
    stops.push_back(horizon);
    std::sort(stops.begin(), stops.end());
    stops.erase(std::unique(stops.begin(), stops.end()), stops.end());

    const int run_span = log.open("run", root);
    sim::time_ns from = 0;
    for (const sim::time_ns b : stops) {
      const double ms = timed(
          log, "run_until " + sim_seconds(from) + "-" + sim_seconds(b) + " s",
          run_span, [&] { w.tb->run_until(b); });
      r.run_ms += ms;
      if (b <= split) r.run_pre_ms += ms;
      sample_state(r, w);
      from = b;
    }
    log.close(run_span);
    r.sim_pre_s = sim::to_seconds(split);
    r.sim_post_s = sim::to_seconds(horizon - split);

    std::vector<double> report;
    r.report_ms = timed(log, "report", root, [&] { report = w.report(); });
    obs::metric_snapshot snap;
    r.snapshot_ms = timed(log, "snapshot", root,
                          [&] { snap = w.tb->metrics().snapshot(); });

    r.digest = world_digest(snap, w.tb->sched().executed_events());
    check_world(r, w, snap, report);
    collect_counts(r, w, snap);
  }
  w = world{};
#ifdef __GLIBC__
  // Hand the ended world's free pages back to the kernel, so peak_rss_mb
  // follows the worlds' live memory. Otherwise each sweep thread's malloc
  // arena keeps the pages of the largest world it ran, and which threads
  // happened to run a large world swings crowd_grid's peak by up to a fifth
  // from seed to seed. Set-up-only runs report no memory and keep their
  // pages, so that each set-up is timed on a warm heap.
  if (!opt.setup_only) malloc_trim(0);
#endif
  log.close(root);
  r.spans = std::move(log.spans());
  return r;
}

sim::time_ns scaled(double seconds, const run_options& o) {
  return sim::seconds(seconds * o.scale);
}

/// Runs `n` worlds back to back on the calling thread.
workload_result sequential(int n, const run_options& o, sim::time_ns split,
                           sim::time_ns horizon,
                           const std::function<world(int)>& build) {
  workload_result out;
  const double t = now_us();
  for (int i = 0; i < n; ++i) {
    out.worlds.push_back(
        run_world(i, o, split, horizon, [&build, i] { return build(i); }));
  }
  out.wall_s = (now_us() - t) / 1e6;
  return out;
}

// --- fig07_seeds -----------------------------------------------------------
// The paper's Figure 7 over 16 seeds: one FLID-DS receiver inflates at 100 s
// with guessed keys beside an honest FLID-DS session and two TCP flows, on
// the 1 Mbps dumbbell. Small worlds with a shallow event queue, and the most
// invalid SIGMA keys of any workload.
workload_result fig07_seeds(const run_options& o) {
  const sim::time_ns horizon = scaled(200.0, o);
  const sim::time_ns attack = scaled(100.0, o);
  return sequential(16, o, attack, horizon, [&](int i) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 1e6;
    cfg.seed = exp::point_seed(o.seed, static_cast<std::size_t>(i));
    world w;
    w.tb = std::make_unique<exp::testbed>(exp::dumbbell(cfg));
    exp::receiver_options attacker;
    attacker.attack = adversary::inflate_once(attack, adversary::key_mode::guess);
    auto& f1 = w.tb->add_flid_session(exp::flid_mode::ds, {attacker});
    auto& f2 =
        w.tb->add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    auto& t1 = w.tb->add_tcp_flow();
    auto& t2 = w.tb->add_tcp_flow();
    w.sessions = {&f1, &f2};
    const sim::time_ns t0 = attack + scaled(10.0, o);
    w.report = [&f1, &f2, &t1, &t2, t0, horizon] {
      const std::array<double, 4> rates = {
          f1.receiver().monitor().average_kbps(t0, horizon),
          f2.receiver().monitor().average_kbps(t0, horizon),
          t1.sink->monitor().average_kbps(t0, horizon),
          t2.sink->monitor().average_kbps(t0, horizon)};
      std::vector<double> out(rates.begin(), rates.end());
      out.push_back(sim::jain_fairness_index(rates));
      return out;
    };
    return w;
  });
}

// --- farm64 ----------------------------------------------------------------
// 64 FLID-DS sessions behind one 16 Mbps dumbbell edge with the shared
// congestion manager on; session 0 inflates once at 40 s with guessed keys.
// The deepest event queue and the only CM consults.
workload_result farm64(const run_options& o) {
  const sim::time_ns horizon = scaled(120.0, o);
  const sim::time_ns attack = scaled(40.0, o);
  return sequential(1, o, attack, horizon, [&](int) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3 * 64;
    cfg.seed = exp::point_seed(o.seed, 0);
    cfg.cm = true;
    world w;
    w.tb = std::make_unique<exp::testbed>(exp::dumbbell(cfg));
    exp::receiver_options attacker;
    attacker.at = "r";
    attacker.attack = adversary::inflate_once(attack, adversary::key_mode::guess);
    exp::flid_session& rogue =
        w.tb->add_flid_session(exp::flid_mode::ds, {attacker});
    exp::receiver_options neighbour;
    neighbour.at = "r";
    const std::vector<exp::flid_session*> honest =
        w.tb->add_session_array(63, exp::flid_mode::ds, {neighbour});
    w.sessions = honest;
    w.sessions.insert(w.sessions.begin(), &rogue);
    const sim::time_ns pre0 = scaled(15.0, o);
    const sim::time_ns post1 = attack + scaled(40.0, o);
    w.report = [honest, pre0, attack, post1] {
      const exp::session_rollup pre =
          exp::session_rollup_for(honest, pre0, attack);
      const exp::session_rollup post =
          exp::session_rollup_for(honest, attack, post1);
      return std::vector<double>{pre.total_rate, pre.jain, post.total_rate,
                                 post.jain};
    };
    return w;
  });
}

// --- cross_dl --------------------------------------------------------------
// Plain FLID-DL (IGMP only: no SIGMA, DELTA, crypto, or CM) — 24 sessions,
// 24 TCP Reno flows, and a 10% on-off CBR over a 12 Mbps RED bottleneck.
// The bypass workload for every SIGMA/crypto/CM/population change. No
// attack, so the run splits at half the horizon.
workload_result cross_dl(const run_options& o) {
  const sim::time_ns horizon = scaled(200.0, o);
  return sequential(1, o, horizon / 2, horizon, [&](int) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3 * 48;
    cfg.seed = exp::point_seed(o.seed, 0);
    cfg.aqm.discipline = sim::qdisc::red;
    world w;
    w.tb = std::make_unique<exp::testbed>(exp::dumbbell(cfg));
    for (int i = 0; i < 24; ++i) {
      w.sessions.push_back(&w.tb->add_flid_session(
          exp::flid_mode::dl, {exp::receiver_options{}}));
    }
    std::vector<exp::tcp_flow*> tcp;
    for (int i = 0; i < 24; ++i) tcp.push_back(&w.tb->add_tcp_flow());
    traffic::cbr_config cbr;
    cbr.rate_bps = 0.1 * cfg.bottleneck_bps;
    cbr.on_duration = sim::seconds(5.0);
    cbr.off_duration = sim::seconds(5.0);
    w.tb->add_cbr(cbr);
    const sim::time_ns t0 = horizon / 10;
    w.report = [sessions = w.sessions, tcp, t0, horizon] {
      std::vector<double> rates;
      for (exp::flid_session* s : sessions) {
        rates.push_back(exp::average_receiver_kbps(*s, t0, horizon));
      }
      for (exp::tcp_flow* f : tcp) {
        rates.push_back(f->sink->monitor().average_kbps(t0, horizon));
      }
      rates.push_back(sim::jain_fairness_index(rates));
      return rates;
    };
    return w;
  });
}

// --- crowd_grid ------------------------------------------------------------
// 48 short FLID-DS worlds: {dumbbell, parking_lot, star, tree} x {droptail,
// red} x {none, inflate_once, churn_flap} x {10^3, 10^6} aggregated members,
// with churn and router probation memory on, run through exp::run_sweep on
// two threads. The only workload with sweep threading, aggregated
// populations, and topologies other than the dumbbell.
struct crowd_cell {
  std::int64_t members;
  std::string topo;
  sim::qdisc queue;
  std::string attack;
};

exp::testbed_config crowd_config(const crowd_cell& c, std::uint64_t seed,
                                 std::string& pop_site,
                                 std::string& attacker_site) {
  sim::aqm_config aqm;
  aqm.discipline = c.queue;
  const auto fill = [&](auto cfg) {
    cfg.seed = seed;
    cfg.aqm = aqm;
    cfg.probation_memory_slots = 8;
    return cfg;
  };
  if (c.topo == "dumbbell") {
    pop_site = attacker_site = "r";
    return exp::dumbbell(fill(exp::dumbbell_config{}));
  }
  if (c.topo == "parking_lot") {
    pop_site = attacker_site = "r2";
    return exp::parking_lot(fill(exp::parking_lot_config{}));
  }
  if (c.topo == "star") {
    pop_site = attacker_site = "s1";
    return exp::star(fill(exp::star_config{}));
  }
  // The adversary hides on a sibling leaf: it shares the contested root edge
  // with the population and splits below it.
  pop_site = "t2_0";
  attacker_site = "t2_1";
  return exp::balanced_tree(fill(exp::tree_config{}));
}

workload_result crowd_grid(const run_options& o) {
  std::vector<crowd_cell> cells;
  for (const std::int64_t m : {std::int64_t{1'000}, std::int64_t{1'000'000}}) {
    for (const char* t : {"dumbbell", "parking_lot", "star", "tree"}) {
      for (const sim::qdisc q : {sim::qdisc::droptail, sim::qdisc::red}) {
        for (const char* a : {"none", "inflate_once", "churn_flap"}) {
          cells.push_back({m, t, q, a});
        }
      }
    }
  }
  const sim::time_ns horizon = scaled(120.0, o);
  const sim::time_ns attack = scaled(40.0, o);

  workload_result out;
  out.threads = 2;
  out.worlds.resize(cells.size());
  std::vector<double> xs(cells.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  exp::sweep_options opts;
  opts.jobs = out.threads;
  opts.base_seed = o.seed;
  // gf256's lazy table set-up is unsynchronized: a data race when the first
  // worlds of two threads both build a SIGMA emitter. Fill the tables here,
  // before the worker threads start.
  crypto::gf256::init();
  const double t = now_us();
  (void)exp::run_sweep(xs, opts, [&](const exp::sweep_point& pt) {
    const crowd_cell& c = cells[pt.index];
    out.worlds[pt.index] = run_world(
        static_cast<int>(pt.index), o, attack, horizon, [&] {
          std::string pop_site;
          std::string attacker_site;
          world w;
          w.tb = std::make_unique<exp::testbed>(
              crowd_config(c, pt.seed, pop_site, attacker_site));
          std::vector<exp::receiver_options> rogues;
          if (c.attack != "none") {
            exp::receiver_options a;
            a.at = attacker_site;
            a.attack = c.attack == "inflate_once"
                           ? adversary::inflate_once(attack,
                                                     adversary::key_mode::guess)
                           : adversary::churn_flap(attack, 1);
            rogues.push_back(a);
          }
          exp::flid_session& session =
              w.tb->add_flid_session(exp::flid_mode::ds, rogues);
          exp::population_options popts;
          popts.at = pop_site;
          popts.population.initial_members = c.members;
          popts.population.demand.k = population::demand_config::kind::zipf;
          popts.population.demand.zipf_s = 1.1;
          popts.population.churn.arrival_per_sec = 50.0;
          popts.population.churn.leave_per_sec = 0.01;
          popts.population.churn.flash_at = scaled(30.0, o);
          popts.population.churn.flash_members = 1'000'000;
          exp::flid_population& pop = w.tb->add_population(session, popts);
          exp::tcp_flow& tcp = w.tb->add_tcp_flow();
          w.sessions = {&session};
          const sim::time_ns t0 = attack + scaled(5.0, o);
          w.report = [&session, &pop, &tcp, t0, horizon] {
            std::vector<double> v = {
                pop.aggregate->member_monitor().average_kbps(t0, horizon),
                pop.delegate->monitor().average_kbps(t0, horizon),
                tcp.sink->monitor().average_kbps(t0, horizon)};
            if (!session.receivers.empty()) {
              v.push_back(session.receiver(0).monitor().average_kbps(
                  t0, horizon));
            }
            return v;
          };
          return w;
        });
    return exp::sweep_row{};
  });
  out.wall_s = (now_us() - t) / 1e6;
  return out;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_start)
      .count();
}

int span_log::open(std::string name, int parent) {
  if (!on_) return -1;
  spans_.push_back({std::move(name), now_us(), 0.0, parent, world_});
  return static_cast<int>(spans_.size()) - 1;
}

void span_log::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

std::uint64_t workload_digest(const workload_result& res) {
  std::uint64_t h = fnv_offset;
  for (const world_result& w : res.worlds) fnv(h, &w.digest, sizeof w.digest);
  return h;
}

const std::vector<workload>& workloads() {
  static const std::vector<workload> all = {
      {"fig07_seeds", 7, {sim::qdisc::droptail}, 1e6, fig07_seeds},
      {"farm64", 21, {sim::qdisc::droptail}, 250e3 * 64, farm64},
      {"cross_dl", 13, {sim::qdisc::red}, 250e3 * 48, cross_dl},
      {"crowd_grid",
       11,
       {sim::qdisc::droptail, sim::qdisc::red},
       1e6,
       crowd_grid},
  };
  return all;
}

}  // namespace mcc::e2e
