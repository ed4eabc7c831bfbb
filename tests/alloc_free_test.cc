// The per-event path allocates nothing: scheduling, firing and cancelling
// inline-sized callables, passing invariant checks, and a packet hop through
// warmed-up links and a router's fan-out. A counting global operator
// new/delete (replacing the library's for this executable only) measures it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "exp/testbed.h"
#include "flid/flid_sender.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/require.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mcc {
namespace {

// Longer than any std::string small-buffer, so building a std::string from it
// allocates.
constexpr const char* long_message =
    "alloc_free_test: an invariant message well past the small-string buffer";

TEST(alloc_free, counter_sees_allocations) {
  const std::uint64_t before = allocations();
  auto* p = new std::uint64_t[64];
  delete[] p;
  EXPECT_EQ(allocations() - before, 1u);
}

TEST(alloc_free, passing_require_allocates_nothing) {
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    util::require(i >= 0, long_message);
    util::require(i >= 0, long_message, i);
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(alloc_free, schedule_fire_cancel_cycles_allocate_nothing_after_warm_up) {
  sim::scheduler s;
  std::uint64_t fired = 0;
  // One cycle: an event that schedules a nested one from its callback, a
  // victim cancelled before it fires, and a bystander left pending across
  // the cycle boundary, so the queue never drains.
  const auto cycle = [&] {
    sim::event_handle victim = s.after(7, [&fired] { ++fired; });
    s.after(1, [&s, &fired] {
      ++fired;
      s.after(2, [&fired] { ++fired; });
    });
    s.after(15, [&fired] { ++fired; });
    victim.cancel();
    s.run_until(s.now() + 10);
  };
  for (int i = 0; i < 1000; ++i) cycle();  // warm the slab and the heap
  const std::uint64_t fired_before = fired;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 10'000; ++i) cycle();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(fired - fired_before, 30'000u);
}

TEST(alloc_free, throwing_callbacks_recycle_their_slots) {
  // A slot that stayed taken after its callable threw would make the slab
  // grow by a chunk every few hundred failures.
  struct failure {};
  sim::scheduler s;
  int caught = 0;
  const auto cycle = [&] {
    s.after(1, [] { throw failure{}; });
    try {
      s.run();
    } catch (const failure&) {
      ++caught;
    }
  };
  for (int i = 0; i < 1000; ++i) cycle();
  const std::uint64_t before = allocations();
  for (int i = 0; i < 10'000; ++i) cycle();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(caught, 11'000);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(alloc_free, fig07_world_allocates_under_one_per_event) {
  // A short Figure 7 world: one FLID-DS receiver inflating with guessed keys
  // beside an honest FLID-DS session and two TCP flows on the 1 Mbps
  // dumbbell.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 7;
  exp::testbed tb(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = adversary::inflate_once(sim::seconds(10.0),
                                            adversary::key_mode::guess);
  tb.add_flid_session(exp::flid_mode::ds, {attacker});
  tb.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  tb.add_tcp_flow();
  tb.add_tcp_flow();
  tb.run_until(sim::seconds(2.0));  // routing finalized, queues warm

  const std::uint64_t events_before = tb.sched().executed_events();
  const std::uint64_t before = allocations();
  // 20 s of window: about 110,000 events, with silent serialization ends
  // firing none.
  tb.run_until(sim::seconds(22.0));
  const std::uint64_t events = tb.sched().executed_events() - events_before;
  const double per_event =
      static_cast<double>(allocations() - before) / static_cast<double>(events);
  ASSERT_GT(events, 100'000u);
  // About 0.15 here.
  EXPECT_LT(per_event, 0.2) << allocations() - before << " allocations over "
                             << events << " events";
}

/// Counts the packets delivered to its host without keeping them.
class counting_agent : public sim::agent {
 public:
  counting_agent(sim::network& net, sim::node_id host) {
    net.get(host)->add_agent(this);
  }
  bool handle_packet(const sim::packet&, sim::link*) override {
    ++received;
    return true;
  }
  std::uint64_t received = 0;
};

TEST(alloc_free, steady_multicast_forwarding_allocates_nothing) {
  // host -> router -> 3 hosts: every packet crosses two links and is copied
  // onto three branches. Once the link rings and the event slab have
  // reached the batch's peak, a hop allocates nothing.
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id src = net.add_host("src");
  const sim::node_id r = net.add_router("r");
  net.connect(src, r, sim::link_config{});
  const sim::group_addr g{10'000};
  std::vector<std::unique_ptr<counting_agent>> sinks;
  std::vector<sim::node_id> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.add_host("h" + std::to_string(i)));
    net.connect(r, hosts.back(), sim::link_config{});
  }
  net.finalize_routing();
  for (const sim::node_id h : hosts) {
    net.get(r)->graft(g, net.next_hop(r, h));
    net.get(h)->host_join(g);
    sinks.push_back(std::make_unique<counting_agent>(net, h));
  }
  const auto batch = [&] {
    for (int i = 0; i < 10; ++i) {
      sim::packet p;
      p.size_bytes = 576;
      p.dst = sim::dest::to_group(g);
      p.hdr = sim::flid_data{};
      net.get(src)->send(std::move(p));
    }
    s.run();
  };
  for (int i = 0; i < 100; ++i) batch();  // warm the rings and the slab
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1'000; ++i) batch();  // 10k packets
  EXPECT_EQ(allocations() - before, 0u);
  for (const auto& sink : sinks) EXPECT_EQ(sink->received, 11'000u);
  EXPECT_EQ(net.get(r)->stats().forwarded_multicast, 33'000u);
}

TEST(alloc_free, warmed_flid_dl_sender_allocates_nothing_per_slot) {
  // One plain 10-group FLID-DL sender into a router with no members: each
  // slot computes its packet counts, paces about 400 sends through the
  // sender's event series, and every send crosses one link and is dropped
  // at the router. Once the series' buffers, the slab and the link ring
  // have grown on the first slots, a slot allocates nothing.
  sim::scheduler s;
  sim::network net(s);
  const sim::node_id src = net.add_host("src");
  const sim::node_id r = net.add_router("r");
  sim::link_config fast;
  fast.bps = 1e9;
  net.connect(src, r, fast);
  net.finalize_routing();
  flid::flid_config cfg;
  cfg.num_groups = 10;
  flid::flid_sender sender(net, src, cfg, 3);
  sender.start(0);
  s.run_until(10 * cfg.slot_duration);  // warm

  const flid::flid_sender::counters warm = sender.stats();
  const std::uint64_t before = allocations();
  s.run_until(110 * cfg.slot_duration);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(sender.stats().slots - warm.slots, 100u);
  EXPECT_GT(sender.stats().data_packets - warm.data_packets, 100u * 300u);
}

TEST(alloc_free, flid_dl_and_tcp_world_allocates_under_a_twentieth_per_event) {
  // Plain FLID-DL beside TCP Reno over a RED dumbbell: no SIGMA, DELTA or
  // CM, so nearly every event is a packet hop or a protocol timer.
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 2e6;
  cfg.seed = 13;
  cfg.aqm.discipline = sim::qdisc::red;
  exp::testbed tb(exp::dumbbell(cfg));
  for (int i = 0; i < 4; ++i) {
    tb.add_flid_session(exp::flid_mode::dl, {exp::receiver_options{}});
    tb.add_tcp_flow();
  }
  tb.run_until(sim::seconds(5.0));  // routing finalized, queues warm

  const std::uint64_t events_before = tb.sched().executed_events();
  const std::uint64_t before = allocations();
  tb.run_until(sim::seconds(25.0));
  const std::uint64_t events = tb.sched().executed_events() - events_before;
  const double per_event =
      static_cast<double>(allocations() - before) / static_cast<double>(events);
  ASSERT_GT(events, 100'000u);
  // About 0.006 here.
  EXPECT_LT(per_event, 0.05) << allocations() - before << " allocations over "
                             << events << " events";
}

}  // namespace
}  // namespace mcc
