#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/prng.h"

namespace mcc::sim {
namespace {

TEST(scheduler, starts_at_time_zero) {
  scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, events_fire_in_time_order) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(30), [&] { order.push_back(3); });
  s.at(milliseconds(10), [&] { order.push_back(1); });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(scheduler, equal_time_events_fire_in_scheduling_order) {
  scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(milliseconds(5), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(scheduler, now_advances_to_event_time) {
  scheduler s;
  time_ns seen = -1;
  s.at(seconds(1.5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, seconds(1.5));
  EXPECT_EQ(s.now(), seconds(1.5));
}

TEST(scheduler, after_is_relative_to_now) {
  scheduler s;
  time_ns seen = -1;
  s.at(milliseconds(100), [&] {
    s.after(milliseconds(50), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, milliseconds(150));
}

TEST(scheduler, run_until_stops_at_horizon) {
  scheduler s;
  int fired = 0;
  s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(scheduler, rejects_events_in_the_past) {
  scheduler s;
  s.at(milliseconds(10), [] {});
  s.run_until(milliseconds(20));
  EXPECT_THROW(s.at(milliseconds(5), [] {}), util::invariant_error);
}

TEST(scheduler, cancel_prevents_execution) {
  scheduler s;
  int fired = 0;
  event_handle h = s.at(milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(scheduler, cancel_is_idempotent_and_safe_after_fire) {
  scheduler s;
  int fired = 0;
  event_handle h = s.at(milliseconds(1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
  h.cancel();
}

TEST(scheduler, default_handle_is_inert) {
  event_handle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(scheduler, handle_outlives_scheduler) {
  event_handle h;
  {
    scheduler s;
    h = s.at(milliseconds(10), [] {});
    EXPECT_TRUE(h.pending());
  }
  // The scheduler (and its event pool) are gone; the handle must go inert
  // rather than dangle.
  EXPECT_FALSE(h.pending());
  h.cancel();  // safe no-op
}

TEST(scheduler, copied_and_moved_handles_go_inert_with_the_scheduler) {
  event_handle original;
  event_handle copy;
  event_handle moved;
  event_handle cancelled;
  event_handle queried;
  int fired = 0;
  {
    scheduler s;
    original = s.at(milliseconds(10), [&fired] { ++fired; });
    copy = original;
    event_handle temp = s.at(milliseconds(20), [&fired] { ++fired; });
    moved = std::move(temp);
    EXPECT_FALSE(temp.pending());  // NOLINT(bugprone-use-after-move)
    cancelled = s.at(milliseconds(30), [&fired] { ++fired; });
    queried = s.at(milliseconds(40), [&fired] { ++fired; });
    EXPECT_TRUE(copy.pending());
    EXPECT_TRUE(moved.pending());
    EXPECT_TRUE(queried.pending());
    // A pending callable that owns a handle to its own scheduler: the
    // scheduler's destructor destroys it, dropping that handle.
    event_handle self = s.at(milliseconds(50), [] {});
    s.at(milliseconds(60), [self] { (void)self.pending(); });
  }
  // Every way of touching a handle after the scheduler died is inert.
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(copy.pending());
  EXPECT_FALSE(moved.pending());
  EXPECT_FALSE(queried.pending());
  cancelled.cancel();
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  event_handle copied_after = copy;
  EXPECT_FALSE(copied_after.pending());
  copied_after.cancel();
  event_handle moved_after = std::move(moved);
  EXPECT_FALSE(moved_after.pending());
  moved_after = original;  // copy-assign over a live handle
  EXPECT_FALSE(moved_after.pending());
  original = event_handle{};
  EXPECT_FALSE(original.pending());
  EXPECT_EQ(fired, 0);
}

TEST(scheduler, handle_copies_share_one_event) {
  scheduler s;
  int fired = 0;
  event_handle a = s.at(milliseconds(1), [&fired] { ++fired; });
  event_handle b = a;
  event_handle c = std::move(b);
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(c.pending());
  c.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(c.pending());
  s.run();
  EXPECT_EQ(fired, 0);
  event_handle d = s.at(milliseconds(2), [&fired] { ++fired; });
  a = d;  // reassigning a stale handle to a live one
  EXPECT_TRUE(a.pending());
  s.run();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(d.pending());
  EXPECT_EQ(fired, 1);
}

TEST(scheduler, stale_handle_does_not_affect_recycled_slot) {
  scheduler s;
  int first = 0;
  int second = 0;
  event_handle h1 = s.at(milliseconds(1), [&] { ++first; });
  s.run();
  ASSERT_EQ(first, 1);
  // The fired event's pool slot is recycled by the next schedule; the old
  // handle's generation is stale, so cancelling it must not touch the new
  // event.
  event_handle h2 = s.at(milliseconds(2), [&] { ++second; });
  EXPECT_FALSE(h1.pending());
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(scheduler, cancel_from_within_an_event) {
  scheduler s;
  int fired = 0;
  event_handle victim = s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(5), [&] { victim.cancel(); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(scheduler, fifo_tie_break_survives_cancellations) {
  scheduler s;
  std::vector<int> order;
  std::vector<event_handle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(s.at(milliseconds(5), [&, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  s.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
}

TEST(scheduler, pool_reuse_under_churn_stays_deterministic) {
  // Schedule/cancel/fire far more events than the pool's initial capacity,
  // interleaved, and check the executed count and clock.
  scheduler s;
  std::uint64_t fired = 0;
  std::vector<event_handle> cancelled;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      s.at(milliseconds(round * 10 + 1), [&] { ++fired; });
      cancelled.push_back(s.at(milliseconds(round * 10 + 2), [&] { ++fired; }));
    }
    for (auto& h : cancelled) h.cancel();
    cancelled.clear();
    s.run_until(milliseconds(round * 10 + 5));
  }
  EXPECT_EQ(fired, 5000u);
  EXPECT_EQ(s.executed_events(), 5000u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, large_capture_falls_back_to_heap_and_still_runs) {
  scheduler s;
  std::array<std::uint64_t, 32> big{};  // 256 bytes: exceeds inline storage
  big[31] = 7;
  std::uint64_t seen = 0;
  s.at(milliseconds(1), [big, &seen] { seen = big[31]; });
  s.run();
  EXPECT_EQ(seen, 7u);
}

TEST(scheduler, events_scheduled_during_execution_run) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(10), [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(scheduler, executed_event_count) {
  scheduler s;
  for (int i = 0; i < 5; ++i) s.at(milliseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(scheduler, cascading_chain_terminates_at_horizon) {
  scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    s.after(milliseconds(10), tick);
  };
  s.at(0, tick);
  s.run_until(milliseconds(95));
  EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
}

// --- reserved ranks ----------------------------------------------------------

TEST(scheduler, ticket_queued_late_fires_at_its_reserved_rank) {
  // Tickets at t = 10, queued from an earlier instant (a) and from an event
  // at t = 10 itself (c): each fires exactly where an at() call made at
  // reserve time would have, between the plain events reserved around it.
  scheduler s;
  std::vector<int> order;
  scheduler::ticket a{};
  scheduler::ticket b{};
  scheduler::ticket c{};
  s.at(10, [&] {
    order.push_back(1);
    s.queue(c, [&] { order.push_back(3); });
  });
  a = s.reserve_at(10);
  c = s.reserve_at(10);
  b = s.reserve_at(10);
  s.at(10, [&] {
    order.push_back(4);
    // b ranks before this event, so it would already have fired.
    EXPECT_TRUE(s.passed(b));
    EXPECT_THROW(s.queue(b, [] {}), util::invariant_error);
  });
  s.at(5, [&] {
    order.push_back(0);
    s.queue(a, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(scheduler, queueing_a_passed_ticket_throws) {
  scheduler s;
  const scheduler::ticket t = s.reserve_at(10);
  s.run_until(10);
  EXPECT_THROW(s.queue(t, [] {}), util::invariant_error);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, passed_splits_one_instant_by_seq) {
  scheduler s;
  const scheduler::ticket before = s.reserve_at(10);
  const scheduler::ticket own = s.reserve_at(10);
  const scheduler::ticket after = s.reserve_at(10);
  const scheduler::ticket later = s.reserve_at(20);
  std::vector<bool> seen;
  s.queue(own, [&] {
    // Inside the event at `own`'s rank: only the earlier seq has passed.
    seen = {s.passed(before), s.passed(own), s.passed(after),
            s.passed(later)};
  });
  EXPECT_FALSE(s.passed(before));  // before the rank
  s.run_until(9);
  EXPECT_FALSE(s.passed(before));
  s.run_until(10);
  EXPECT_EQ(seen, (std::vector<bool>{true, false, false, false}));
  // Between events, after run_until(10): every rank at 10 reserved so far
  // has passed, but one reserved now would still fire at 10.
  EXPECT_TRUE(s.passed(before));
  EXPECT_TRUE(s.passed(own));
  EXPECT_TRUE(s.passed(after));
  EXPECT_FALSE(s.passed(later));
  const scheduler::ticket now = s.reserve_at(10);
  EXPECT_FALSE(s.passed(now));
  bool fired = false;
  s.queue(now, [&] { fired = true; });
  s.run_until(10);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(s.passed(now));
  s.run_until(20);
  EXPECT_TRUE(s.passed(later));  // after the rank
}

TEST(scheduler, unqueued_ticket_never_fires_and_is_not_counted) {
  scheduler s;
  int fired = 0;
  (void)s.reserve_at(5);
  s.at(5, [&] { ++fired; });
  (void)s.reserve_at(7);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.max_pending_events(), 1u);
  EXPECT_EQ(s.now(), 5);
}

// --- in-place invocation ----------------------------------------------------
// A callable is built in its slab slot, runs there and is destroyed there;
// the slot returns to the free list only after the call.

TEST(scheduler, throwing_callback_leaves_scheduler_consistent) {
  scheduler s;
  auto captured = std::make_shared<int>(0);
  std::vector<int> order;
  event_handle thrower = s.at(milliseconds(10), [captured] {
    throw std::runtime_error("callback failed");
  });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.at(milliseconds(30), [&] { order.push_back(3); });
  EXPECT_EQ(captured.use_count(), 2);
  EXPECT_THROW(s.run(), std::runtime_error);

  // The failed event fired (clock moved, count taken), its callable was
  // destroyed and its handle is inert; the other two are still pending.
  EXPECT_EQ(s.now(), milliseconds(10));
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(captured.use_count(), 1);
  EXPECT_FALSE(thrower.pending());
  EXPECT_EQ(s.pending_events(), 2u);

  // The recycled slot is handed out again and everything still fires.
  s.at(milliseconds(25), [&] { order.push_back(25); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 25, 3}));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.executed_events(), 4u);
  EXPECT_EQ(s.slots_high_water(), 3u);
}

TEST(scheduler, callback_cancelling_its_own_handle_does_nothing) {
  scheduler s;
  int fired = 0;
  int after_cancel = 0;
  event_handle self;
  self = s.at(milliseconds(5), [&] {
    ++fired;
    EXPECT_FALSE(self.pending());  // a running event is no longer pending
    self.cancel();
    ++after_cancel;  // the callable is still alive after the cancel
  });
  event_handle next = s.at(milliseconds(6), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(after_cancel, 1);
  EXPECT_FALSE(next.pending());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, callback_growing_the_slab_by_many_chunks_runs_cleanly) {
  // The running callable lives in its slab slot while it schedules enough
  // events to add many chunks; its captures must stay valid throughout (the
  // sanitizer build catches a dangling read here).
  scheduler s;
  std::vector<int> seen;
  const std::vector<int> payload = {1, 2, 3};
  s.at(milliseconds(1), [&s, &seen, payload] {
    for (int i = 0; i < 5000; ++i) {
      s.at(milliseconds(2), [&seen, i] { seen.push_back(i); });
      ASSERT_EQ(payload.size(), 3u);
    }
    seen.push_back(-payload[2]);
  });
  s.run();
  ASSERT_EQ(seen.size(), 5001u);
  EXPECT_EQ(seen.front(), -3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i) + 1], i);
  }
  EXPECT_EQ(s.slots_high_water(), 5000u);
}

TEST(scheduler, slots_high_water_counts_the_running_slot_as_free) {
  // One event that schedules one event from inside its callback: the nested
  // event is the only live slot while the first one runs.
  scheduler s;
  s.at(milliseconds(1), [&s] { s.after(milliseconds(1), [] {}); });
  s.run();
  EXPECT_EQ(s.slots_high_water(), 1u);
  EXPECT_EQ(s.max_pending_events(), 1u);

  // Two pending at once, and one of them schedules two more while it runs:
  // the peak is the running event's sibling plus the two it scheduled.
  scheduler t;
  t.at(milliseconds(1), [&t] {
    t.after(milliseconds(5), [] {});
    t.after(milliseconds(5), [] {});
  });
  t.at(milliseconds(2), [] {});
  t.run();
  EXPECT_EQ(t.slots_high_water(), 3u);
}

/// One scheduled event as the oracle sees it: deadline and cancellation.
/// Records are appended in scheduling order, so a record's index is its seq.
struct scheduled_event {
  time_ns when;
  bool cancelled = false;
};

/// Drives one scheduler through a deterministic random schedule/cancel/nested
/// workload at delays spread over eight orders of magnitude; returns the fire
/// order (event ids = indices into `records`).
std::vector<std::size_t> random_workload_fire_order(
    std::uint64_t seed, std::vector<scheduled_event>& records) {
  scheduler s;
  std::vector<std::size_t> log;
  std::vector<event_handle> handles;
  std::uint64_t state = seed;
  const std::array<std::uint64_t, 5> spreads = {
      std::uint64_t{1} << 12, std::uint64_t{1} << 20, std::uint64_t{1} << 28,
      std::uint64_t{1} << 36, std::uint64_t{1} << 43};
  for (std::uint64_t i = 0; i < 600; ++i) {
    const time_ns delay = static_cast<time_ns>(crypto::splitmix64(state) %
                                               spreads[i % spreads.size()]);
    const std::size_t id = records.size();
    records.push_back({delay});
    handles.push_back(s.at(delay, [&, i, delay, id] {
      log.push_back(id);
      // A third of events schedule a follow-up from inside the callback, at
      // a moved clock.
      if (i % 3 == 0) {
        const std::size_t nested = records.size();
        records.push_back({s.now() + delay / 2 + 1});
        s.after(delay / 2 + 1, [&log, nested] { log.push_back(nested); });
      }
    }));
  }
  // Cancel a deterministic quarter of them before anything runs.
  for (std::size_t i = 0; i < handles.size(); i += 4) {
    handles[i].cancel();
    records[i].cancelled = true;
  }
  s.run();
  return log;
}

TEST(scheduler, randomized_fire_order_matches_oracle) {
  // The oracle: uncancelled events stable-sorted by deadline, i.e. exact
  // (when, seq) order with ties broken by scheduling order.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    std::vector<scheduled_event> records;
    const std::vector<std::size_t> fired =
        random_workload_fire_order(seed, records);
    std::vector<std::size_t> oracle;
    for (std::size_t id = 0; id < records.size(); ++id) {
      if (!records[id].cancelled) oracle.push_back(id);
    }
    std::stable_sort(oracle.begin(), oracle.end(),
                     [&](std::size_t a, std::size_t b) {
                       return records[a].when < records[b].when;
                     });
    // 450 survivors, a third of which (150) scheduled one follow-up each.
    ASSERT_EQ(fired.size(), 600u) << "seed " << seed;
    EXPECT_EQ(fired, oracle) << "seed " << seed;
  }
}

TEST(event_series, lanes_split_where_time_decreases_and_fire_in_time_order) {
  // Three lanes: [10 20 30] [5 6] [1]. Only each lane's next event is in the
  // heap.
  scheduler s;
  std::vector<std::size_t> fired;
  event_series series(s, [&](std::size_t k) { fired.push_back(k); });
  for (const time_ns t : {10, 20, 30, 5, 6, 1}) series.add(t);
  series.schedule();
  EXPECT_EQ(s.pending_events(), 3u);
  s.run_until(1);
  EXPECT_EQ(s.pending_events(), 2u);
  s.run_until(5);
  EXPECT_EQ(s.pending_events(), 2u);  // [5 6] moved on to 6
  s.run_until(6);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.max_pending_events(), 3u);
  EXPECT_EQ(s.executed_events(), 6u);
  EXPECT_EQ(fired, (std::vector<std::size_t>{5, 3, 4, 0, 1, 2}));
}

TEST(event_series, next_batch_needs_the_previous_one_drained) {
  scheduler s;
  int fired = 0;
  event_series series(s, [&](std::size_t) { ++fired; });
  series.add(10);
  series.add(20);
  series.schedule();
  s.run_until(15);
  EXPECT_THROW(series.add(30), util::invariant_error);
  s.run();
  EXPECT_EQ(fired, 2);
  // Drained: the next batch starts at the clock's current time or later.
  EXPECT_THROW(series.add(5), util::invariant_error);
  series.add(20);
  series.schedule();
  s.run();
  EXPECT_EQ(fired, 3);
}

/// Replays one deterministic random workload and returns its fire log. Each
/// round queues plain at() events and a batch for each of two series, all on
/// a coarse time grid so equal times are common and batches step backwards
/// (several lanes). With `use_series` false the batches are plain at() calls
/// in the same order, which is the order the series must reproduce. Some
/// events schedule a follow-up when they fire.
std::vector<int> series_workload(std::uint64_t seed, bool use_series,
                                 int& lanes, int& ties) {
  scheduler s;
  std::vector<int> log;
  std::uint64_t state = seed;
  const auto rnd = [&state](std::uint64_t n) {
    return crypto::splitmix64(state) % n;
  };
  int next_id = 0;
  const auto on_fire = [&](int id) {
    log.push_back(id);
    if (id % 3 == 0) {
      const int nested = next_id++;
      s.after((id % 4) * 10, [&log, nested] { log.push_back(nested); });
    }
  };
  const auto plain = [&](time_ns when) {
    const int id = next_id++;
    s.at(when, [&on_fire, id] { on_fire(id); });
  };
  std::array<std::vector<int>, 2> batch_ids;
  std::array<std::unique_ptr<event_series>, 2> series;
  for (std::size_t j = 0; j < series.size(); ++j) {
    series[j] = std::make_unique<event_series>(
        s, [&on_fire, &batch_ids, j](std::size_t k) {
          on_fire(batch_ids[j][k]);
        });
  }
  std::function<void(int)> round = [&](int r) {
    if (r == 40) return;
    const time_ns t0 = s.now();
    const auto when = [&] { return t0 + static_cast<time_ns>(rnd(8)) * 10; };
    time_ns last = t0;
    for (std::size_t j = 0; j < series.size(); ++j) {
      for (std::uint64_t n = rnd(3); n > 0; --n) plain(when());
      batch_ids[j].clear();
      time_ns prev = -1;
      for (std::uint64_t n = 1 + rnd(12); n > 0; --n) {
        const time_ns t = when();
        const int id = next_id++;
        batch_ids[j].push_back(id);
        if (t < prev || prev < 0) ++lanes;
        if (t == prev) ++ties;
        prev = t;
        last = std::max(last, t);
        if (use_series) {
          series[j]->add(t);
        } else {
          s.at(t, [&on_fire, id] { on_fire(id); });
        }
      }
      if (use_series) series[j]->schedule();
    }
    for (std::uint64_t n = rnd(3); n > 0; --n) plain(when());
    // The next round starts at the batches' last time, queued after them, so
    // both series have drained by then.
    s.at(last, [&round, r] { round(r + 1); });
  };
  s.at(0, [&round] { round(0); });
  s.run();
  return log;
}

TEST(event_series, randomized_fire_order_matches_plain_at_calls) {
  for (std::uint64_t seed : {3ULL, 77ULL, 0xfeedULL}) {
    int lanes = 0;
    int ties = 0;
    int unused = 0;
    const std::vector<int> with_series =
        series_workload(seed, true, lanes, ties);
    const std::vector<int> plain = series_workload(seed, false, unused, unused);
    ASSERT_GT(plain.size(), 500u) << "seed " << seed;
    EXPECT_EQ(with_series, plain) << "seed " << seed;
    // The workload exercised several lanes per batch and equal times.
    EXPECT_GT(lanes, 2 * 80) << "seed " << seed;
    EXPECT_GT(ties, 20) << "seed " << seed;
  }
}

TEST(time_helpers, conversions_are_consistent) {
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_EQ(milliseconds(250), 250'000'000);
  EXPECT_EQ(microseconds(5), 5'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(80)), 80.0);
}

TEST(time_helpers, transmission_time_matches_rate) {
  // 1000 bytes at 1 Mbps = 8 ms.
  EXPECT_EQ(transmission_time(1000, 1e6), milliseconds(8));
  // 576 bytes at 10 Mbps = 460.8 us.
  EXPECT_EQ(transmission_time(576, 10e6), nanoseconds(460'800));
}

}  // namespace
}  // namespace mcc::sim
