#include "sim/link.h"
#include "sim/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/prng.h"
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

// --- silent serialization ends ------------------------------------------------

/// (time, uid) of each packet handed to the far end, in order.
using delivery_log = std::vector<std::pair<time_ns, std::uint64_t>>;

/// The link's drop-tail path with one event per serialization end and one
/// per delivery, as sim::link ran before it kept silent ends out of the
/// queue. Test oracle only.
class reference_link {
 public:
  reference_link(scheduler& s, const link_config& cfg) : s_(s), cfg_(cfg) {}

  void transmit(const packet& p) {
    if (queued_bytes_ + p.size_bytes > cfg_.queue_capacity_bytes) {
      ++stats.dropped;
      stats.bytes_dropped += p.size_bytes;
      return;
    }
    queue_.push_back(p);
    ++stats.enqueued;
    queued_bytes_ += p.size_bytes;
    stats.max_queued_bytes = std::max(stats.max_queued_bytes, queued_bytes_);
    if (!busy_) start_transmission();
  }

  link_stats stats;
  delivery_log log;
  std::vector<time_ns> ends;  // serialization ends, in order

 private:
  void start_transmission() {
    busy_ = !queue_.empty();
    if (!busy_) return;
    queued_bytes_ -= queue_.front().size_bytes;
    s_.after(transmission_time(queue_.front().size_bytes, cfg_.bps),
             [this] { on_serialized(); });
  }

  void on_serialized() {
    ends.push_back(s_.now());
    ++stats.delivered;
    stats.bytes_delivered += queue_.front().size_bytes;
    flying_.emplace_back(s_.now() + cfg_.delay, queue_.front());
    queue_.pop_front();
    if (!armed_) {
      armed_ = true;
      s_.at(flying_.back().first, [this] { on_deliver(); });
    }
    start_transmission();
  }

  void on_deliver() {
    if (flying_.size() > 1) {
      s_.at(flying_[1].first, [this] { on_deliver(); });
    } else {
      armed_ = false;
    }
    log.emplace_back(s_.now(), flying_.front().second.uid);
    flying_.pop_front();
  }

  scheduler& s_;
  link_config cfg_;
  std::deque<packet> queue_;
  std::deque<std::pair<time_ns, packet>> flying_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool armed_ = false;
};

/// Logs what a host receives.
class logging_agent : public agent {
 public:
  logging_agent(network& net, node_id host) : sched_(net.sched()) {
    net.get(host)->add_agent(this);
  }
  bool handle_packet(const packet& p, link*) override {
    log.emplace_back(sched_.now(), p.uid);
    return true;
  }
  delivery_log log;

 private:
  scheduler& sched_;
};

auto fields(const link_stats& s) {
  return std::make_tuple(s.enqueued, s.dropped, s.aqm_dropped, s.delivered,
                         s.ecn_marked, s.bytes_delivered, s.bytes_dropped,
                         s.max_queued_bytes);
}

TEST(link, matches_the_two_event_reference_under_random_traffic) {
  // The real link and the reference take the same random transmits on one
  // scheduler. Packet sizes are multiples of 100 bytes at 8 Mbps, so every
  // serialization lasts a multiple of 100 us, and transmits and stats reads
  // fall on that grid: many land on the very instant a serialization ends,
  // before or after it in seq order depending on when they were scheduled.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    std::uint64_t state = seed;
    const auto rnd = [&state](std::uint64_t n) {
      return crypto::splitmix64(state) % n;
    };
    constexpr time_ns grid = microseconds(100);
    scheduler s;
    link_config cfg;
    cfg.bps = 8e6;
    cfg.delay = static_cast<time_ns>(rnd(25)) * grid;  // 0 .. 2.4 ms
    cfg.queue_capacity_bytes = 1000 + 500 * static_cast<std::int64_t>(rnd(8));
    two_hosts t(s, cfg);
    logging_agent sink(t.net, t.b);
    reference_link ref(s, cfg);

    std::uint64_t uid = 0;
    int sends_left = 3000;
    std::vector<time_ns> send_times;
    std::function<void()> send = [&] {
      // The next send is scheduled before or after this one's transmits,
      // so it ranks on either side of the serialization ends they reserve.
      const bool next_first = rnd(2) == 0;
      const auto next = [&] {
        if (--sends_left > 0) {
          s.after(static_cast<time_ns>(rnd(12)) * grid, send);
        }
      };
      if (next_first) next();
      send_times.push_back(s.now());
      for (std::uint64_t n = 1 + rnd(3); n > 0; --n) {
        packet p = make_packet(100 * static_cast<int>(1 + rnd(10)), t.b);
        p.uid = ++uid;
        ref.transmit(p);
        if (rnd(2) == 0) {
          t.fwd->transmit(p);
        } else {
          t.fwd->transmit(packet(p));
        }
      }
      if (!next_first) next();
    };
    int reads = 0;
    std::function<void()> read = [&] {
      ++reads;
      EXPECT_EQ(fields(t.fwd->stats()), fields(ref.stats))
          << "seed " << seed << " at " << s.now();
      if (sends_left > 0) s.after(static_cast<time_ns>(rnd(8)) * grid, read);
    };
    s.at(0, send);
    s.at(0, read);
    s.run();

    EXPECT_EQ(sink.log, ref.log) << "seed " << seed;
    EXPECT_EQ(fields(t.fwd->stats()), fields(ref.stats)) << "seed " << seed;
    // The traffic queued, dropped and tied sends with serialization ends.
    const std::set<time_ns> ends(ref.ends.begin(), ref.ends.end());
    const auto ties = std::count_if(send_times.begin(), send_times.end(),
                                    [&](time_ns x) { return ends.count(x); });
    EXPECT_GT(ties, 300) << "seed " << seed;
    EXPECT_GT(ref.stats.dropped, 0u) << "seed " << seed;
    EXPECT_GT(ref.stats.delivered, 2000u) << "seed " << seed;
    EXPECT_GT(reads, 1000) << "seed " << seed;
  }
}

TEST(link, sparse_traffic_costs_about_one_event_per_hop) {
  // 1 ms serializations every 5 ms on a 20 ms wire: each packet starts on an
  // idle line while the one before it is still in flight, so its
  // serialization end is silent and only its delivery fires.
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = milliseconds(20);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  constexpr int n = 1000;
  for (int i = 0; i < n; ++i) {
    s.at(milliseconds(5) * i, [&] { t.fwd->transmit(make_packet(125, t.b)); });
  }
  s.run();
  ASSERT_EQ(sink.packets.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(t.fwd->stats().delivered, static_cast<std::uint64_t>(n));
  // n sends, n deliveries, and the first packet's serialization end, which
  // arms the delivery timer.
  EXPECT_EQ(s.executed_events(), static_cast<std::uint64_t>(2 * n + 1));
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
