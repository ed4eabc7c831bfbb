#include "sim/link.h"
#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_util.h"

namespace mcc::sim {
namespace {

using mcc::testing::capture_agent;
using mcc::testing::make_packet;

struct two_hosts {
  explicit two_hosts(scheduler& s, const link_config& cfg) : net(s) {
    a = net.add_host("a");
    b = net.add_host("b");
    auto [f, r] = net.connect(a, b, cfg);
    fwd = f;
    rev = r;
    net.finalize_routing();
  }
  network net;
  node_id a, b;
  link* fwd;
  link* rev;
};

TEST(link, delivers_after_serialization_plus_propagation) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = milliseconds(20);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  t.net.get(t.a)->send(make_packet(1000, t.b));  // 8 ms serialization
  s.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(s.now(), milliseconds(28));
}

TEST(link, serializes_back_to_back_packets) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  for (int i = 0; i < 3; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  // Three 8 ms transmissions in series.
  EXPECT_EQ(s.now(), milliseconds(24));
}

TEST(link, drops_when_queue_full) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 2500;  // fits two 1000-byte packets + in-flight
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  // First packet starts transmitting immediately (leaves the queue); the
  // queue then holds two more; the rest drop.
  for (int i = 0; i < 6; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().dropped, 3u);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(link, counts_dropped_bytes_and_queue_high_watermark) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 2500;  // fits two 1000-byte packets + in-flight
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  // First packet starts serializing immediately; two queue; three drop.
  for (int i = 0; i < 6; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  EXPECT_EQ(t.fwd->stats().dropped, 3u);
  EXPECT_EQ(t.fwd->stats().bytes_dropped, 3000);
  // Peak occupancy: two 1000-byte packets waiting behind the in-flight one.
  EXPECT_EQ(t.fwd->stats().max_queued_bytes, 2000);
  s.run();
  // Draining the queue does not lower the recorded high-watermark.
  EXPECT_EQ(t.fwd->queued_bytes(), 0);
  EXPECT_EQ(t.fwd->stats().max_queued_bytes, 2000);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(link, undropped_traffic_reports_zero_dropped_bytes) {
  scheduler s;
  link_config cfg;
  cfg.bps = 10e6;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(500, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().dropped, 0u);
  EXPECT_EQ(t.fwd->stats().bytes_dropped, 0);
  EXPECT_GT(t.fwd->stats().max_queued_bytes, 0);
}

TEST(link, counts_delivered_bytes) {
  scheduler s;
  link_config cfg;
  cfg.bps = 10e6;
  cfg.delay = milliseconds(1);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(500, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().delivered, 4u);
  EXPECT_EQ(t.fwd->stats().bytes_delivered, 2000);
  EXPECT_EQ(t.fwd->stats().enqueued, 4u);
}

TEST(link, preserves_fifo_order) {
  scheduler s;
  link_config cfg;
  cfg.bps = 5e6;
  cfg.delay = milliseconds(2);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 10; ++i) {
    packet p = make_packet(600, t.b);
    p.hdr = cbr_payload{1, i};
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  ASSERT_EQ(sink.packets.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(header_as<cbr_payload>(sink.packets[static_cast<std::size_t>(i)])
                  ->seq,
              i);
  }
}

TEST(link, ecn_threshold_marks_capable_packets_only) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;  // slow so the queue builds
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  cfg.aqm.discipline = qdisc::ecn_threshold;
  cfg.aqm.ecn_threshold_fraction = 0.3;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  for (int i = 0; i < 12; ++i) {
    packet p = make_packet(1000, t.b);
    p.ecn_capable = (i % 2 == 0);
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  EXPECT_GT(t.fwd->stats().ecn_marked, 0u);
  int marked = 0;
  for (const auto& p : sink.packets) {
    if (p.ecn_marked) {
      ++marked;
      EXPECT_TRUE(p.ecn_capable);
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(marked), t.fwd->stats().ecn_marked);
}

TEST(link, droptail_never_marks) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 12; ++i) {
    packet p = make_packet(1000, t.b);
    p.ecn_capable = true;
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  EXPECT_EQ(t.fwd->stats().ecn_marked, 0u);
}

TEST(link, default_queue_capacity_is_positive) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.queue_capacity_bytes = 0;  // ask for the default
  two_hosts t(s, cfg);
  EXPECT_GT(t.fwd->config().queue_capacity_bytes, 0);
}

TEST(link, auto_sized_queue_is_exactly_two_bdp_at_100ms) {
  // AQM threshold defaults derive from the capacity, so the 2-BDP auto-size
  // is a contract: 2 * bps * 100 ms / 8 bytes. Pin it at several rates.
  scheduler s;
  const struct {
    double bps;
    std::int64_t expect_bytes;
  } cases[] = {{1e6, 25'000}, {10e6, 250'000}, {500e3, 12'500}};
  for (const auto& c : cases) {
    link_config cfg;
    cfg.bps = c.bps;
    cfg.queue_capacity_bytes = 0;
    two_hosts t(s, cfg);
    EXPECT_EQ(t.fwd->config().queue_capacity_bytes, c.expect_bytes) << c.bps;
  }
}

TEST(link, red_thresholds_derive_from_the_auto_sized_capacity) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.queue_capacity_bytes = 0;  // 2-BDP default: 25000 bytes
  cfg.aqm.discipline = qdisc::red;
  two_hosts t(s, cfg);
  const auto& red = dynamic_cast<const red_aqm&>(t.fwd->aqm());
  EXPECT_EQ(red.min_threshold_bytes(),
            static_cast<std::int64_t>(0.15 * 25'000));
  EXPECT_EQ(red.max_threshold_bytes(),
            static_cast<std::int64_t>(0.5 * 25'000));
}

TEST(link, red_splits_early_drops_out_of_total_drops) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;  // slow, so a burst overwhelms it
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  cfg.aqm.discipline = qdisc::red;
  cfg.aqm.red.weight = 0.25;  // react within one burst
  cfg.aqm.seed = 5;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 60; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  const link_stats& st = t.fwd->stats();
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_GE(st.dropped, st.aqm_dropped);
  EXPECT_EQ(st.dropped - st.aqm_dropped,
            60u - st.enqueued - st.aqm_dropped);  // remainder is tail overflow
  EXPECT_EQ(sink.packets.size(), st.enqueued);
}

TEST(link, codel_drops_at_dequeue_and_preserves_order) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 50'000;
  cfg.aqm.discipline = qdisc::codel;
  cfg.aqm.codel.ecn = false;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  // 2x overload for four seconds: sojourn times blow through the target.
  for (int i = 0; i < 100; ++i) {
    packet p = make_packet(1000, t.b);
    p.hdr = cbr_payload{1, i};
    const time_ns at = milliseconds(40) * i;
    s.at(at, [&t, p = std::move(p)]() mutable {
      t.net.get(t.a)->send(std::move(p));
    });
  }
  s.run();
  const link_stats& st = t.fwd->stats();
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_EQ(st.dropped, st.aqm_dropped);  // buffer never physically filled
  // Survivors arrive in order.
  std::int64_t prev = -1;
  for (const auto& p : sink.packets) {
    const auto* hdr = header_as<cbr_payload>(p);
    ASSERT_NE(hdr, nullptr);
    EXPECT_GT(hdr->seq, prev);
    prev = hdr->seq;
  }
  // delivered counts serialized packets; drops happened before serialization.
  EXPECT_EQ(sink.packets.size(), st.delivered);
}

TEST(link, time_average_queue_tracks_occupancy) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;  // 8 ms per 1000-byte packet
  cfg.delay = 0;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  // Queue occupancy: 3000 bytes for 8 ms, 2000 for 8 ms, 1000 for 8 ms, 0
  // afterwards; at t = 32 ms the time-average is (3+2+1)*8/32 = 1500 bytes.
  EXPECT_EQ(s.now(), milliseconds(32));
  EXPECT_DOUBLE_EQ(t.fwd->time_avg_queued_bytes(s.now()), 1'500.0);
}

TEST(ring, grows_while_wrapped_and_keeps_fifo_order) {
  ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Advance the head so the next pushes wrap, then grow the ring from a
  // wrapped state twice; every pop must return the next value in order.
  for (int i = 0; i < 6; ++i) r.emplace_back(next_in++);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 0; i < 30; ++i) r.emplace_back(next_in++);
  EXPECT_EQ(r.capacity(), 32u);
  EXPECT_EQ(r.size(), 31u);
  EXPECT_EQ(r[30], next_in - 1);
  while (!r.empty()) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

/// Records each cbr packet's sequence number and arrival time.
struct timed_sink : agent {
  timed_sink(network& net, node_id host, scheduler& s) : s_(s) {
    net.get(host)->add_agent(this);
  }
  bool handle_packet(const packet& p, link*) override {
    seqs.push_back(header_as<cbr_payload>(p)->seq);
    times.push_back(s_.now());
    return true;
  }
  scheduler& s_;
  std::vector<std::int64_t> seqs;
  std::vector<time_ns> times;
};

TEST(link, bursts_past_the_ring_capacity_wrap_in_order_and_on_time) {
  // 125-byte packets at 1 Mbps: 1 ms each. Bursts larger than the rings'
  // initial capacity arrive before the previous one drains, so the queue
  // ring grows and wraps while the line stays busy from t = 0, and the
  // 30 ms of propagation keeps ~30 packets in the in-flight ring.
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = milliseconds(30);
  two_hosts t(s, cfg);
  timed_sink sink(t.net, t.b, s);
  const time_ns tx = milliseconds(1);
  struct burst {
    time_ns at;
    int packets;
  };
  const std::vector<burst> bursts = {
      {0, 20}, {milliseconds(15), 30}, {milliseconds(40), 45},
      {milliseconds(83), 9}, {milliseconds(90), 60}};
  std::int64_t seq = 0;
  std::int64_t sent = 0;
  for (const burst& b : bursts) {
    const std::int64_t first = seq;
    seq += b.packets;
    s.at(b.at, [&t, first, n = b.packets] {
      for (int i = 0; i < n; ++i) {
        packet p = make_packet(125, t.b);
        p.hdr = cbr_payload{1, first + i};
        t.net.get(t.a)->send(std::move(p));
      }
    });
    sent += b.packets;
    // Mid-serialization checkpoint: every enqueued packet has been
    // serialized, is being serialized, or is waiting.
    s.at(b.at + tx / 2, [&t, sent, tx, at = b.at] {
      const link_stats& st = t.fwd->stats();
      EXPECT_EQ(st.enqueued, static_cast<std::uint64_t>(sent));
      EXPECT_EQ(st.delivered, static_cast<std::uint64_t>(at / tx));
      EXPECT_EQ(st.enqueued,
                st.delivered + 1 + static_cast<std::uint64_t>(
                                       t.fwd->queued_bytes() / 125));
    });
  }
  s.run();
  ASSERT_EQ(sink.seqs.size(), static_cast<std::size_t>(sent));
  for (std::size_t k = 0; k < sink.seqs.size(); ++k) {
    EXPECT_EQ(sink.seqs[k], static_cast<std::int64_t>(k));
    EXPECT_EQ(sink.times[k],
              static_cast<time_ns>(k + 1) * tx + cfg.delay);
  }
  const link_stats& st = t.fwd->stats();
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.enqueued, st.delivered);
  EXPECT_EQ(t.fwd->queued_bytes(), 0);
}

TEST(link, codel_head_drops_in_a_wrapped_ring_keep_the_line_busy) {
  // Two busy periods of 2x overload in bursts (20 ms of work every 10 ms),
  // so the queue never empties inside a period and CoDel drops heads while
  // the queue ring's tail wraps past its head; the second period refills
  // the ring from wherever the first one left its head. A head drop costs
  // no line time: the m-th survivor of a period that starts at t0 arrives
  // at t0 + m * tx + delay.
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = milliseconds(3);
  cfg.queue_capacity_bytes = 1'000'000;
  cfg.aqm.discipline = qdisc::codel;
  cfg.aqm.codel.ecn = false;
  two_hosts t(s, cfg);
  timed_sink sink(t.net, t.b, s);
  const time_ns tx = milliseconds(1);
  const time_ns second_period = seconds(5.0);
  constexpr int bursts = 60;
  constexpr int per_burst = 20;
  std::int64_t seq = 0;
  for (const time_ns t0 : {time_ns{0}, second_period}) {
    for (int b = 0; b < bursts; ++b, seq += per_burst) {
      s.at(t0 + milliseconds(10) * b, [&t, seq] {
        for (int i = 0; i < per_burst; ++i) {
          packet p = make_packet(125, t.b);
          p.hdr = cbr_payload{1, seq + i};
          t.net.get(t.a)->send(std::move(p));
        }
      });
    }
  }
  s.run();
  const link_stats& st = t.fwd->stats();
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_EQ(st.dropped, st.aqm_dropped);
  EXPECT_EQ(st.enqueued, static_cast<std::uint64_t>(seq));
  EXPECT_EQ(st.enqueued, st.delivered + st.aqm_dropped);
  ASSERT_EQ(sink.seqs.size(), st.delivered);
  std::size_t first_of_second = 0;
  while (first_of_second < sink.seqs.size() &&
         sink.seqs[first_of_second] < bursts * per_burst) {
    ++first_of_second;
  }
  ASSERT_GT(first_of_second, 0u);
  ASSERT_LT(first_of_second, sink.seqs.size());
  for (std::size_t m = 0; m < sink.seqs.size(); ++m) {
    if (m > 0) {
      EXPECT_GT(sink.seqs[m], sink.seqs[m - 1]);
    }
    const bool second = m >= first_of_second;
    const time_ns t0 = second ? second_period : 0;
    const std::size_t k = second ? m - first_of_second : m;
    EXPECT_EQ(sink.times[m], t0 + static_cast<time_ns>(k + 1) * tx + cfg.delay);
  }
}

TEST(link, rejects_invalid_config) {
  scheduler s;
  network net(s);
  const node_id a = net.add_host("a");
  const node_id b = net.add_host("b");
  link_config bad;
  bad.bps = 0;
  EXPECT_THROW(net.connect(a, b, bad), util::invariant_error);
}

}  // namespace
}  // namespace mcc::sim
