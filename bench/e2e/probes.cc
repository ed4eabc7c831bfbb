// Layer probes: timed calls into each layer's public functions, replayed
// with the parameters the measured run reported (peak pending events,
// multicast fan-out, receiver level, co-located sessions).
//
// Probes are isolated-cost estimates: they measure a layer in a tiny world
// of its own, with warm caches, and say nothing about how the layer's cost
// changes inside a real run. Where one layer's public call drives another
// (a link schedules events, a router calls link::transmit) the probe
// subtracts the lower layer's separately measured cost, so the per-layer
// shares add up without counting the same nanosecond twice.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cm/congestion_manager.h"
#include "core/delta_layered.h"
#include "core/sigma_emitter.h"
#include "core/sigma_wire.h"
#include "crypto/rs_code.h"
#include "e2e.h"
#include "exp/testbed.h"
#include "population/population.h"
#include "sim/network.h"

namespace mcc::e2e {

namespace {

using steady = std::chrono::steady_clock;

double ns_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Median of three runs of a probe (ns per unit).
template <typename F>
double median3(F probe) {
  std::array<double, 3> v = {probe(), probe(), probe()};
  std::sort(v.begin(), v.end());
  return v[1];
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Keeps results observable so the optimizer cannot drop probed calls.
volatile std::uint64_t sink = 0;

/// The FLID-DS session parameters every workload's sessions use.
flid::flid_config ds_config() {
  return exp::testbed(exp::dumbbell()).default_flid_config(exp::flid_mode::ds);
}

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// --- scheduler -------------------------------------------------------------

/// Self-rescheduling event: each firing schedules one successor, so the
/// queue holds exactly `pending` events throughout.
struct sched_probe_state {
  sim::scheduler* s = nullptr;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  sim::time_ns window = 1;
  std::uint64_t fired = 0;
  std::uint64_t target = 0;
  steady::time_point end;
};

struct tick {
  sched_probe_state* st;
  void operator()() const {
    if (++st->fired < st->target) {
      st->s->after(
          1 + static_cast<sim::time_ns>(lcg_next(st->lcg)) % st->window,
          tick{st});
    } else if (st->fired == st->target) {
      st->end = steady::now();
    }
  }
};

/// ns per event (schedule + pop + dispatch) at a fixed queue depth.
double probe_sched(std::size_t pending) {
  constexpr std::uint64_t events = 1'000'000;
  pending = std::max<std::size_t>(pending, 1);
  sim::scheduler s;
  sched_probe_state st;
  st.s = &s;
  st.window = static_cast<sim::time_ns>(pending) * 1000;
  st.target = events;
  for (std::size_t i = 0; i < pending; ++i) {
    s.at(static_cast<sim::time_ns>(lcg_next(st.lcg)) % st.window, tick{&st});
  }
  const auto t0 = steady::now();
  s.run();
  return ns_between(t0, st.end) / static_cast<double>(events);
}

/// A queue of `depth` trivial events, one per nanosecond, each rescheduling
/// itself `depth` ns later: run(n) executes exactly n events. The reference
/// scheduler cost the link probe subtracts, measured in the same loop so
/// host noise hits both sides alike.
class reference_ticks {
 public:
  explicit reference_ticks(sim::time_ns depth) : depth_(depth) {
    for (sim::time_ns t = 1; t <= depth_; ++t) s_.at(t, tick{this});
  }
  void run(std::uint64_t n) {
    s_.run_until(s_.now() + static_cast<sim::time_ns>(n));
  }

 private:
  struct tick {
    reference_ticks* r;
    void operator()() const { r->s_.after(r->depth_, tick{r}); }
  };
  sim::scheduler s_;
  sim::time_ns depth_;
};

// --- link + AQM ------------------------------------------------------------

/// One host-to-host link with the workload's discipline, kept busy: each
/// burst of packets is followed by exactly one burst's worth of
/// serialization time, so the queue never drains and RED sees a standing
/// queue rather than idle decay. ns per offered packet, net of the scheduler
/// cost of the link's own timer events: the median over bursts of (burst
/// time - the same number of reference events), so an interrupt landing in
/// one side of one burst cannot skew the difference.
double probe_link(const sim::aqm_config& aqm, double bps) {
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id a = net.add_host("a");
  const sim::node_id b = net.add_host("b");
  sim::link_config cfg;
  cfg.bps = bps;
  cfg.aqm = aqm;
  if (cfg.aqm.seed == 0) cfg.aqm.seed = 1;
  sim::link* l = net.connect(a, b, cfg).first;

  sim::packet p;
  p.size_bytes = 576;
  p.src = a;
  p.dst = sim::dest::to_node(b);
  p.hdr = sim::cbr_payload{};
  constexpr int burst = 16;
  constexpr int bursts = 20'000;
  const sim::time_ns burst_time = burst * sim::transmission_time(576, bps);
  std::array<sim::packet, burst> batch;
  reference_ticks ref(burst);
  std::vector<double> net_ns(bursts);
  std::uint64_t events = 0;
  for (double& diff : net_ns) {
    batch.fill(p);  // untimed: the per-branch copy is the router's cost
    const auto t0 = steady::now();
    for (sim::packet& pkt : batch) l->transmit(std::move(pkt));
    s.run_until(s.now() + burst_time);
    const auto t1 = steady::now();
    const std::uint64_t n = s.executed_events() - events;
    events = s.executed_events();
    ref.run(n);
    diff = ns_between(t0, t1) - ns_between(t1, steady::now());
  }
  return median(std::move(net_ns)) / burst;
}

// --- node ------------------------------------------------------------------

/// A router forwarding a multicast group to `fanout` host interfaces: ns per
/// copy, net of the link::transmit each copy ends in (timed by handing the
/// same copies straight to the same links, in the same loop; median over
/// bursts of the difference, as in probe_link).
double probe_node(int fanout) {
  fanout = std::max(fanout, 1);
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id src = net.add_host("src");
  const sim::node_id r = net.add_router("r");
  sim::link_config cfg;
  cfg.bps = 100e6;
  sim::link* in = net.connect(src, r, cfg).first;
  const sim::group_addr g{10'000};
  sim::node* router = net.get(r);
  std::vector<sim::link*> oifs;
  for (int i = 0; i < fanout; ++i) {
    const sim::node_id h = net.add_host(std::to_string(i));
    oifs.push_back(net.connect(r, h, cfg).first);
    router->graft(g, oifs.back());
  }

  sim::packet p;
  p.size_bytes = 576;
  p.src = src;
  p.dst = sim::dest::to_group(g);
  p.hdr = sim::flid_data{};
  constexpr int burst = 8;
  const int bursts = std::max(2'000, 160'000 / fanout);
  std::array<sim::packet, burst> arrivals;
  std::vector<sim::packet> direct(static_cast<std::size_t>(burst) * fanout);
  std::vector<double> net_ns(static_cast<std::size_t>(bursts));
  const auto forwarded = [&] {
    arrivals.fill(p);
    const auto t0 = steady::now();
    for (sim::packet& a : arrivals) router->receive(std::move(a), in);
    const double ns = ns_between(t0, steady::now());
    s.run();
    return ns;
  };
  const auto transmitted = [&] {
    std::fill(direct.begin(), direct.end(), p);
    auto next = direct.begin();
    const auto t0 = steady::now();
    for (sim::link* oif : oifs) {
      for (int j = 0; j < burst; ++j) oif->transmit(std::move(*next++));
    }
    const double ns = ns_between(t0, steady::now());
    s.run();
    return ns;
  };
  // Alternate which side goes first, so neither always runs on the caches
  // and allocator state the other left behind.
  for (std::size_t i = 0; i < net_ns.size(); ++i) {
    if (i % 2 == 0) {
      const double recv = forwarded();
      net_ns[i] = recv - transmitted();
    } else {
      const double tx = transmitted();
      net_ns[i] = forwarded() - tx;
    }
  }
  return median(std::move(net_ns)) / static_cast<double>(direct.size());
}

// --- SIGMA -----------------------------------------------------------------

core::delta_slot_keys sample_keys() {
  core::delta_layered_sender delta(1, 10, 16, 42);
  core::delta_slot_keys keys;
  delta.set_keys_callback(
      [&keys](const core::delta_slot_keys& k, std::int64_t) { keys = k; });
  delta.begin_slot(0, 0b0101'0100, {});
  return keys;
}

std::vector<sim::group_addr> sample_groups() {
  std::vector<sim::group_addr> groups;
  for (int g = 0; g < 10; ++g) groups.push_back({10'000 + g});
  return groups;
}

/// The edge router's per-block decode path (sigma_router_agent::try_decode):
/// RS decode of the first k shards, join, deserialize_key_block.
double probe_sigma_block() {
  const core::sigma_emitter_config ecfg;
  const core::sigma_key_block block = core::block_from_keys(
      sample_keys(), sample_groups(), sim::milliseconds(250), 16);
  const std::vector<std::uint8_t> payload = core::serialize(block);
  const crypto::rs_code code(ecfg.data_shards, ecfg.parity_shards);
  const auto codeword =
      code.encode(crypto::split_into_shards(payload, ecfg.data_shards));
  std::vector<crypto::indexed_shard> received;
  for (int i = 0; i < ecfg.data_shards; ++i) {
    received.push_back({i, codeword[static_cast<std::size_t>(i)]});
  }
  constexpr int n = 50'000;
  const auto t0 = steady::now();
  for (int i = 0; i < n; ++i) {
    const crypto::rs_code decoder(ecfg.data_shards, 0);
    const auto data = decoder.decode(received);
    const auto joined = crypto::join_shards(*data, payload.size());
    const auto decoded = core::deserialize_key_block(joined);
    sink = sink + decoded->entries.size();
  }
  return ns_between(t0, steady::now()) / n;
}

/// The sender's per-slot emit path: serialize, FEC-encode, schedule the
/// special packets. The scheduled sends drain untimed.
double probe_sigma_emit() {
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id h = net.add_host("src");
  const sim::node_id r = net.add_router("r");
  (void)net.connect(h, r, sim::link_config{});
  core::sigma_ctrl_emitter emitter(net, h, sample_groups(),
                                   sim::milliseconds(250), 16);
  const core::delta_slot_keys keys = sample_keys();
  constexpr int n = 20'000;
  double ns = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto t0 = steady::now();
    // Every other slot, so a drained burst never reaches into the next.
    emitter.emit(keys, 2 * static_cast<std::int64_t>(i));
    ns += ns_between(t0, steady::now());
    s.run();
  }
  return ns / n;
}

// --- DELTA -----------------------------------------------------------------

double probe_delta_begin_slot() {
  core::delta_layered_sender delta(1, 10, 16, 7);
  const std::vector<int> per_group(11, 4);
  constexpr int n = 200'000;
  const auto t0 = steady::now();
  for (int i = 0; i < n; ++i) {
    delta.begin_slot(i, (i & 1) != 0 ? 0b0101'0100u : 0b1000u, per_group);
  }
  return ns_between(t0, steady::now()) / n;
}

/// Figure 4's receiver algorithm on a loss-free slot at `level`.
double probe_delta_reconstruct(int level) {
  const flid::flid_config cfg = ds_config();
  level = std::clamp(level, 1, cfg.num_groups);
  std::uint64_t lcg = 99;
  flid::slot_summary s;
  s.level = level;
  s.auth_mask = 0b0101'0100;
  s.groups.resize(static_cast<std::size_t>(cfg.num_groups) + 1);
  for (int g = 1; g <= cfg.num_groups; ++g) {
    flid::group_slot_record& rec = s.groups[static_cast<std::size_t>(g)];
    rec.received = rec.expected = 3;
    rec.full_slot = g <= level;
    rec.xor_components = crypto::group_key{lcg_next(lcg) & 0xffff};
    if (g >= 2) rec.decrease = crypto::group_key{lcg_next(lcg) & 0xffff};
  }
  const core::delta_layered_receiver rx(cfg.num_groups);
  constexpr int n = 500'000;
  const auto t0 = steady::now();
  for (int i = 0; i < n; ++i) {
    s.slot = i;
    sink = sink + static_cast<std::uint64_t>(rx.reconstruct(s).next_level);
  }
  return ns_between(t0, steady::now()) / n;
}

// --- congestion manager ----------------------------------------------------

/// One receiver's per-slot consult: observe, then level_cap, at a path
/// shared by `sessions` sessions.
double probe_cm(int sessions) {
  const flid::flid_config cfg = ds_config();
  std::vector<double> cum_kbps;
  for (int l = 1; l <= cfg.num_groups; ++l) {
    cum_kbps.push_back(cfg.cumulative_rate_bps(l) / 1e3);
  }
  cm::congestion_manager m;
  const cm::path_id path{1, cm::path_direction::downstream, 0};
  for (int i = 0; i < std::max(sessions, 2); ++i) m.register_session(path, i);
  constexpr int n = 1'000'000;
  const auto t0 = steady::now();
  for (int i = 0; i < n; ++i) {
    cm::observation o;
    o.slot = i / 64;
    o.congested = i % 5 == 0;
    o.delivered_kbps = cum_kbps[5];
    m.observe(path, o);
    sink = sink + static_cast<std::uint64_t>(m.level_cap(path, o.slot, cum_kbps));
  }
  return ns_between(t0, steady::now()) / n;
}

// --- population ------------------------------------------------------------

/// Churn ticks of a 10^6-member aggregate under crowd_grid's churn process,
/// one 120 s world (480 slots) at a time.
double probe_population() {
  sim::scheduler s;
  const flid::flid_config cfg = ds_config();
  population::population_config pc;
  pc.initial_members = 1'000'000;
  pc.demand.k = population::demand_config::kind::zipf;
  pc.demand.zipf_s = 1.1;
  pc.churn.arrival_per_sec = 50.0;
  pc.churn.leave_per_sec = 0.01;
  pc.churn.flash_at = sim::seconds(30.0);
  pc.churn.flash_members = 1'000'000;
  constexpr int worlds = 100;
  constexpr int slots = 480;
  double ns = 0.0;
  for (int w = 0; w < worlds; ++w) {
    pc.seed = static_cast<std::uint64_t>(w) + 1;
    population::edge_aggregate agg(s, cfg, pc);
    const auto t0 = steady::now();
    for (int slot = 0; slot < slots; ++slot) {
      population::edge_aggregate::slot_view v;
      v.slot = slot;
      v.now = slot * cfg.slot_duration;
      v.granted = agg.demand_cap();
      agg.on_slot(v);
    }
    ns += ns_between(t0, steady::now());
  }
  return ns / (static_cast<double>(worlds) * slots);
}

}  // namespace

std::map<std::string, double> run_probes(const workload& w,
                                         const probe_params& p,
                                         span_log& log) {
  std::map<std::string, double> out;
  const auto timed = [&log](const char* name, auto probe) {
    const int s = log.open(std::string("probe ") + name);
    const double ns = median3(probe);
    log.close(s);
    return ns;
  };

  out["sched.probe_ns_per_event"] = timed("sched", [&] {
    return probe_sched(static_cast<std::size_t>(p.peak_pending));
  });
  // Averaged over the workload's bottleneck disciplines.
  double link_ns = 0.0;
  for (const sim::qdisc q : w.qdiscs) {
    sim::aqm_config aqm;
    aqm.discipline = q;
    link_ns += timed("link", [&] { return probe_link(aqm, w.bottleneck_bps); });
  }
  out["link.probe_ns_per_packet"] =
      link_ns / static_cast<double>(w.qdiscs.size());
  out["node.probe_ns_per_copy"] =
      timed("node", [&] { return probe_node(p.max_fanout); });
  out["sigma.probe_ns_per_block"] = timed("sigma_block", probe_sigma_block);
  out["sigma.probe_ns_per_emit"] = timed("sigma_emit", probe_sigma_emit);
  out["delta.probe_ns_per_begin_slot"] =
      timed("delta_begin_slot", probe_delta_begin_slot);
  out["delta.probe_ns_per_reconstruct"] = timed(
      "delta_reconstruct", [&] { return probe_delta_reconstruct(p.mean_level); });
  out["cm.probe_ns_per_consult"] =
      timed("cm", [&] { return probe_cm(p.cm_sessions); });
  out["population.probe_ns_per_tick"] =
      timed("population", probe_population);
  return out;
}

}  // namespace mcc::e2e
