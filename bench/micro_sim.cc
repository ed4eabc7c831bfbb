// Microbenchmarks for the simulator substrate: event scheduling throughput
// (events/sec) alone and under paced FLID senders, multicast fan-out cost and
// unicast packet hops (packets/sec), and whole-scenario figures.
// items_per_second in the output is the headline number for all but the
// whole-scenario ones.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "exp/testbed.h"
#include "flid/flid_sender.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace mcc;

static void bm_schedule_and_run(benchmark::State& state) {
  for (auto _ : state) {
    sim::scheduler s;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      s.at(sim::microseconds(i), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_schedule_and_run)->Arg(1000)->Arg(100000);

static void bm_schedule_cancel_mix(benchmark::State& state) {
  // Timer-heavy workload: every event arms a timer that is cancelled before
  // it fires (the TCP RTO / FLID fallback pattern). The victim is scheduled
  // two ticks later than its canceller so the cancel always hits a pending
  // event, never the stale-handle no-op path.
  for (auto _ : state) {
    sim::scheduler s;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      const sim::time_ns t = 3 * sim::microseconds(i);
      sim::event_handle h = s.at(t + 2, [] {});
      s.at(t, [h]() mutable { h.cancel(); });
      s.at(t + 1, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(bm_schedule_cancel_mix)->Arg(30000);

static void bm_event_cancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::scheduler s;
    std::vector<sim::event_handle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(s.at(sim::microseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(bm_event_cancellation);

static void bm_pending_depth(benchmark::State& state) {
  // Queue-depth scaling: hold `pending` events in the queue, then fire them
  // all. Deadlines come from an LCG spread over ~16 s of simulated time, so
  // the heap's log(n) sift sees a realistic mix of near and far deadlines.
  const auto pending = state.range(0);
  const auto window = static_cast<std::uint64_t>(sim::seconds(16.0));
  for (auto _ : state) {
    sim::scheduler s;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::int64_t i = 0; i < pending; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s.at(static_cast<sim::time_ns>(x % window), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * pending);
}
BENCHMARK(bm_pending_depth)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

static void bm_multicast_fanout(benchmark::State& state) {
  // Cost of one router fanning a multicast data packet out to N receivers.
  // Packets carry a threshold-DELTA style share payload, so the per-branch
  // copy cost of the header body is part of what is measured.
  const int receivers = static_cast<int>(state.range(0));
  sim::scheduler s;
  sim::network net(s);
  const sim::group_addr group{1};
  const sim::node_id src = net.add_host("src");
  const sim::node_id rtr = net.add_router("rtr");
  sim::link_config fast;
  fast.bps = 1e12;
  fast.delay = sim::microseconds(1);
  auto [up, down] = net.connect(src, rtr, fast);
  (void)down;
  (void)up;
  for (int i = 0; i < receivers; ++i) {
    const sim::node_id h = net.add_host("h" + std::to_string(i));
    auto [fwd, rev] = net.connect(rtr, h, fast);
    (void)rev;
    net.get(h)->host_join(group);
    net.get(rtr)->graft(group, fwd);
  }
  net.finalize_routing();

  constexpr int kBatch = 64;
  sim::flid_data hdr;
  hdr.session_id = 1;
  hdr.group_index = 1;
  std::vector<sim::level_share> shares;
  for (int g = 1; g <= 10; ++g) {
    shares.push_back(sim::level_share{g, 7u, 11u});
  }
  hdr.level_shares = shares;

  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim::packet p;
      p.size_bytes = 576;
      p.dst = sim::dest::to_group(group);
      p.hdr = hdr;
      net.get(src)->send(std::move(p));
    }
    s.run();
    benchmark::DoNotOptimize(net.get(rtr)->stats().forwarded_multicast);
  }
  // One item = one fanned-out packet copy delivered to a receiver.
  state.SetItemsProcessed(state.iterations() * kBatch * receivers);
}
BENCHMARK(bm_multicast_fanout)->Arg(4)->Arg(32)->Arg(256);

namespace {
/// Counts the packets delivered to its host without keeping them.
struct counting_sink : sim::agent {
  bool handle_packet(const sim::packet&, sim::link*) override {
    ++received;
    return true;
  }
  std::uint64_t received = 0;
};
}  // namespace

static void bm_link_hop(benchmark::State& state) {
  // Packet hop throughput: unicast packets from a host through a router to
  // another host (two links, one router forward). With `idle` 0 the first
  // link holds a standing queue of `depth` packets: each iteration offers a
  // batch and runs for exactly the batch's serialization time, so the queue
  // neither drains nor grows. With `idle` 1 the batch is offered one packet
  // every two serialization times instead, so each packet finds the line
  // idle while the ones before it are still in flight: its serialization
  // ends are silent and only its deliveries fire. `events_per_packet`
  // counts every executed event (the idle case's offers included) per
  // packet through both hops.
  const auto depth = static_cast<int>(state.range(0));
  const bool idle = state.range(1) != 0;
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id src = net.add_host("src");
  const sim::node_id rtr = net.add_router("rtr");
  const sim::node_id dst = net.add_host("dst");
  sim::link_config cfg;
  cfg.bps = 100e6;
  cfg.delay = sim::microseconds(500);
  cfg.queue_capacity_bytes = 1 << 24;
  net.connect(src, rtr, cfg);
  net.connect(rtr, dst, cfg);
  net.finalize_routing();
  counting_sink sink;
  net.get(dst)->add_agent(&sink);

  constexpr int kBatch = 64;
  constexpr int kSize = 576;
  const auto offer = [&](int n) {
    for (int i = 0; i < n; ++i) {
      sim::packet p;
      p.size_bytes = kSize;
      p.dst = sim::dest::to_node(dst);
      p.hdr = sim::cbr_payload{1, i};
      net.get(src)->send(std::move(p));
    }
  };
  const sim::time_ns gap = (idle ? 2 : 1) * sim::transmission_time(kSize, cfg.bps);
  offer(depth);
  const std::uint64_t events_before = s.executed_events();
  for (auto _ : state) {
    if (idle) {
      for (int i = 0; i < kBatch; ++i) s.after(i * gap, [&offer] { offer(1); });
    } else {
      offer(kBatch);
    }
    s.run_until(s.now() + kBatch * gap);
  }
  benchmark::DoNotOptimize(sink.received);
  // One item = one packet through both hops.
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["events_per_packet"] =
      static_cast<double>(s.executed_events() - events_before) /
      static_cast<double>(state.iterations() * kBatch);
}
BENCHMARK(bm_link_hop)
    ->ArgNames({"depth", "idle"})
    ->Args({16, 0})
    ->Args({1024, 0})
    ->Args({0, 1});

static void bm_paced_senders(benchmark::State& state) {
  // Sender-side pacing: N plain 10-group FLID senders on one host, each
  // pacing about 400 packets per 500 ms slot, over two 10 Gbps hops into a
  // sink host joined to every group. Each iteration runs one more slot; one
  // item = one executed event (sends, link hops, slot boundaries).
  const int sessions = static_cast<int>(state.range(0));
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id src = net.add_host("src");
  const sim::node_id rtr = net.add_router("rtr");
  const sim::node_id dst = net.add_host("dst");
  sim::link_config fast;
  fast.bps = 10e9;
  fast.delay = sim::microseconds(100);
  net.connect(src, rtr, fast);
  net.connect(rtr, dst, fast);
  net.finalize_routing();
  counting_sink sink;
  net.get(dst)->add_agent(&sink);
  std::vector<std::unique_ptr<flid::flid_sender>> senders;
  for (int i = 0; i < sessions; ++i) {
    flid::flid_config cfg;
    cfg.session_id = i + 1;
    cfg.group_addr_base = 1000 + 100 * i;
    for (int g = 1; g <= cfg.num_groups; ++g) {
      net.get(dst)->host_join(cfg.group(g));
      net.get(rtr)->graft(cfg.group(g), net.next_hop(rtr, dst));
    }
    senders.push_back(std::make_unique<flid::flid_sender>(
        net, src, cfg, static_cast<std::uint64_t>(i) + 1));
    senders.back()->start(0);
  }
  const sim::time_ns slot = flid::flid_config{}.slot_duration;
  s.run_until(slot);  // first slot: buffers and rings grow
  const std::uint64_t events_before = s.executed_events();
  for (auto _ : state) s.run_until(s.now() + slot);
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(s.executed_events() - events_before));
  state.counters["peak_pending"] =
      static_cast<double>(s.max_pending_events());
}
BENCHMARK(bm_paced_senders)->Arg(1)->Arg(8)->Arg(64);

static void bm_tcp_over_dumbbell(benchmark::State& state) {
  // Cost of simulating one second of a saturated 10 Mbps TCP transfer.
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;
    exp::testbed d(exp::dumbbell(cfg));
    d.add_tcp_flow();
    d.run_until(sim::seconds(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_tcp_over_dumbbell)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

static void bm_flid_ds_session_second(benchmark::State& state) {
  // Cost of simulating one second of a full FLID-DS session (sender, DELTA,
  // SIGMA control plane, receiver, edge enforcement).
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;
    exp::testbed d(exp::dumbbell(cfg));
    d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    d.run_until(sim::seconds(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_flid_ds_session_second)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

static void bm_attack_scenario(benchmark::State& state) {
  // The full Figure-7 scenario at 1/10th duration: useful to track the cost
  // of the headline experiment.
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 1e6;
    exp::testbed d(exp::dumbbell(cfg));
    exp::receiver_options attacker;
    attacker.attack = adversary::inflate_once(sim::seconds(10.0));
    d.add_flid_session(exp::flid_mode::ds, {attacker});
    d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    d.add_tcp_flow();
    d.add_tcp_flow();
    d.run_until(sim::seconds(20.0));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_attack_scenario)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
