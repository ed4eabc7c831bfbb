// Discrete-event scheduler: a time-ordered queue of callbacks.
//
// Events at equal timestamps fire in scheduling order (FIFO tie-break via a
// monotone sequence number) so runs are deterministic.
//
// The hot path is allocation-free: callbacks live in a slab of pooled slots
// (recycled through a free list, addressed by generation-counted handles) and
// the priority queue orders small POD entries that point into the slab. A
// callable is constructed in its slot when scheduled and invoked and
// destroyed there when it fires; it is never moved. Scheduling, firing or
// cancelling an event allocates nothing once the slab and the queue have
// warmed up, as long as the callable fits event_fn's inline buffer.
//
// The queue is a 4-ary min-heap of 16-byte entries laid out so that a node's
// four children share one cache line: O(log n) schedule/pop (see
// docs/performance.md for the layout and for why no O(1) structure replaces
// it).
//
// An owner can also take an event's rank without queueing it: reserve_at()
// returns the (when, seq) ticket an at() call would have taken, passed()
// says whether an event at that rank would already have fired, and queue()
// puts the event in the heap at its reserved rank later. The owner decides
// meanwhile whether the event is needed at all. A link whose serialization
// ends with nothing to do applies that end itself on its next read instead
// of firing an event for it (sim/link.h).
//
// The heap stays shallow because batches stay out of it. An owner that knows
// a whole batch of fire times at once (a paced sender's slot of packets, a
// SIGMA control block) hands them to an event_series, which reserves a
// ticket per event and keeps only the next event of each non-decreasing run
// ("lane") in the heap. Each event still fires at the (when, seq) rank plain
// at() calls would have given it, so the order is unchanged; only
// pending_events() and its high-water mark shrink, from one entry per queued
// packet to about one per lane.
//
// Threading contract: a world — its scheduler, every event_handle the
// scheduler returned, and every copy of those handles — belongs to one
// thread. Handles share the event pool through a plain (non-atomic)
// reference count, so copying or dropping handles of one scheduler on two
// threads at once is a data race. Sweeps run many worlds in parallel, one
// world per thread, and never hand a handle across.
#ifndef MCC_SIM_SCHEDULER_H
#define MCC_SIM_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/require.h"

namespace mcc::sim {

/// Type-erased `void()` callable with inline small-buffer storage, built and
/// run in place: the scheduler constructs it in its slab slot (`emplace`),
/// invokes it there and destroys it there, so it is never moved. Callables
/// up to `inline_size` bytes are stored in place; larger ones fall back to
/// one heap allocation. Simulator-internal events (link timers, protocol slot
/// ticks) capture a pointer and a few scalars and stay inline.
class event_fn {
 public:
  static constexpr std::size_t inline_size = 48;

  event_fn() = default;
  event_fn(const event_fn&) = delete;
  event_fn& operator=(const event_fn&) = delete;
  ~event_fn() { reset(); }

  /// Constructs `f`'s decayed copy in place. The event_fn must be empty.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= inline_size &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct vtable {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  template <typename D>
  static const vtable* inline_ops() {
    static constexpr vtable t{
        [](void* b) { (*std::launder(reinterpret_cast<D*>(b)))(); },
        [](void* b) { std::launder(reinterpret_cast<D*>(b))->~D(); }};
    return &t;
  }

  template <typename D>
  static const vtable* heap_ops() {
    static constexpr vtable t{
        [](void* b) { (**std::launder(reinterpret_cast<D**>(b)))(); },
        [](void* b) { delete *std::launder(reinterpret_cast<D**>(b)); }};
    return &t;
  }

  alignas(std::max_align_t) unsigned char buf_[inline_size];
  const vtable* ops_ = nullptr;
};

namespace detail {

/// Heap entries carry a slot index in this many bits.
inline constexpr unsigned slot_bits = 24;

/// One slab slot: the callable plus the generation counter that invalidates
/// stale handles when the slot is recycled. A pending slot whose callable is
/// empty was cancelled.
struct event_slot {
  std::uint32_t gen = 0;
  event_fn fn;
};

/// The slab: fixed-size chunks of slots, so a slot's address never changes
/// while the slab grows (a running callable lives in its slot and may
/// schedule events that add chunks).
///
/// The scheduler and its handles share the pool through an intrusive,
/// non-atomic reference count, so handles stay safe (inert) after the
/// scheduler is destroyed: dropping the scheduler's reference clears `alive`
/// and frees the slab, and the pool object itself goes with the last
/// reference.
/// The count is deliberately not atomic (see the threading contract above):
/// a shared_ptr/weak_ptr pair would make every at() pay two atomic
/// read-modify-writes once any second thread exists in the process.
struct event_pool {
  static constexpr std::uint32_t chunk_bits = 8;
  static constexpr std::uint32_t chunk_slots = 1u << chunk_bits;

  /// The scheduler plus every live handle.
  std::size_t refs = 1;
  /// False once the scheduler is gone; handles then read as inert.
  bool alive = true;
  std::vector<std::unique_ptr<event_slot[]>> chunks;
  /// Free slot indices. Its capacity always covers every slot, so pushing a
  /// recycled slot back never allocates.
  std::vector<std::uint32_t> free_list;

  event_slot& operator[](std::uint32_t i) {
    return chunks[i >> chunk_bits][i & (chunk_slots - 1)];
  }

  /// Index of a free slot. It stays on the free list until the caller has
  /// built its callable (pop_free), so a throwing constructor leaks nothing.
  std::uint32_t next_free() {
    if (free_list.empty()) grow();
    return free_list.back();
  }
  void pop_free() { free_list.pop_back(); }

  void grow() {
    const auto base = static_cast<std::uint32_t>(chunks.size() * chunk_slots);
    util::require(base + chunk_slots <= (1u << slot_bits),
                  "scheduler: more than 2^24 slab slots");
    chunks.push_back(std::make_unique<event_slot[]>(chunk_slots));
    free_list.reserve(base + chunk_slots);
    // Lowest index on top, so slots are handed out in address order.
    for (std::uint32_t i = chunk_slots; i-- > 0;) free_list.push_back(base + i);
  }

  void retain() { ++refs; }
  /// Drops one reference, deleting the pool with the last one.
  void release() {
    if (--refs == 0) destroy(this);
  }

 private:
  /// Out of line: the last release happens once per scheduler, and an
  /// inlined delete in every handle destructor makes GCC 12 report a
  /// use-after-free on a count it cannot follow.
  [[gnu::cold, gnu::noinline]] static void destroy(event_pool* p) { delete p; }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert, and handles may outlive the scheduler. A handle and
/// its copies stay on their scheduler's thread (see the threading contract
/// at the top of this file).
class event_handle {
 public:
  event_handle() = default;
  event_handle(const event_handle& o)
      : pool_(o.pool_), slot_(o.slot_), gen_(o.gen_) {
    if (pool_ != nullptr) pool_->retain();
  }
  event_handle(event_handle&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)), slot_(o.slot_), gen_(o.gen_) {}
  event_handle& operator=(event_handle o) noexcept {
    std::swap(pool_, o.pool_);
    slot_ = o.slot_;
    gen_ = o.gen_;
    return *this;
  }
  ~event_handle() { drop(); }

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel() {
    if (pool_ != nullptr && pool_->alive) {
      detail::event_slot& s = (*pool_)[slot_];
      // Free the captured state now rather than when the dead entry is
      // eventually popped at its deadline.
      if (s.gen == gen_) s.fn.reset();
    }
    drop();
  }

  /// True if the handle still refers to a pending, uncancelled event.
  [[nodiscard]] bool pending() const {
    if (pool_ == nullptr || !pool_->alive) return false;
    const detail::event_slot& s = (*pool_)[slot_];
    return s.gen == gen_ && s.fn;
  }

 private:
  friend class scheduler;
  event_handle(detail::event_pool* pool, std::uint32_t slot, std::uint32_t gen)
      : pool_(pool), slot_(slot), gen_(gen) {
    pool_->retain();
  }

  void drop() {
    if (pool_ != nullptr) std::exchange(pool_, nullptr)->release();
  }

  detail::event_pool* pool_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event queue. All simulation modules share one scheduler.
class scheduler {
 public:
  scheduler() { heap_.reserve(1024); }
  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  [[nodiscard]] time_ns now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past). The
  /// callable is constructed directly in its slab slot.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  event_handle at(time_ns when, F&& fn) {
    const std::uint32_t idx = push(reserve_at(when), std::forward<F>(fn));
    return event_handle(pool_.pool, idx, (*pool_.pool)[idx].gen);
  }

  /// A reserved rank: events fire in (when, seq) order.
  struct ticket {
    time_ns when;
    std::uint64_t seq;
  };

  /// Takes the rank an at(when) call would take now, without queueing
  /// anything. A ticket that is never queued never fires and is not counted.
  ticket reserve_at(time_ns when) {
    util::require(when >= now_, "scheduler: event scheduled in the past");
    util::require(next_seq_ < seq_limit,
                  "scheduler: sequence numbers exhausted");
    return {when, next_seq_++};
  }

  /// True if an event at `t`'s rank would already have fired: it ranks
  /// before the running event or, between events, it was reserved before
  /// the last run_until()/run() returned and is not after now() (the
  /// horizon of run_until is inclusive).
  [[nodiscard]] bool passed(const ticket& t) const {
    return t.when < now_ || (t.when == now_ && t.seq < running_seq_);
  }

  /// Queues `fn` at a reserved rank that has not passed yet; it fires
  /// exactly where an at() call made at reserve time would have.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  void queue(const ticket& t, F&& fn) {
    util::require(!passed(t), "scheduler: ticket queued after its rank");
    push(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after a relative delay.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  event_handle after(time_ns delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue drains or simulated time would pass `until`.
  /// Leaves now() == until when the horizon is reached.
  void run_until(time_ns until) {
    entry top;
    while (pop_next(until, top)) fire(top);
    if (now_ <= until) {
      now_ = until;
      running_seq_ = next_seq_;
    }
  }

  /// Runs until the queue is empty.
  void run() {
    entry top;
    while (pop_next(std::numeric_limits<time_ns>::max(), top)) fire(top);
    running_seq_ = next_seq_;
  }

  /// Pending entries, cancelled-but-not-yet-reaped ones included.
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() - root;
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// High-watermark of pending_events() over the run (sampled at schedule
  /// time — the only place the count grows).
  [[nodiscard]] std::size_t max_pending_events() const { return max_pending_; }
  /// Slab high-water mark: the peak count of live slots, with a running
  /// event's slot counted as free. Every pending entry holds exactly one
  /// slot, so this is max_pending_events(); the slab itself can hold one
  /// slot more (the running one) plus the unused rest of its last chunk.
  [[nodiscard]] std::size_t slots_high_water() const { return max_pending_; }

 private:
  /// Builds `fn` in a free slab slot and queues it at the ticket's rank;
  /// returns the slot.
  template <typename F>
  std::uint32_t push(const ticket& t, F&& fn) {
    detail::event_pool& pool = *pool_.pool;
    const std::uint32_t idx = pool.next_free();
    pool[idx].fn.emplace(std::forward<F>(fn));
    pool.pop_free();
    heap_push(
        entry{static_cast<std::uint64_t>(t.when), t.seq << slot_bits | idx});
    if (pending_events() > max_pending_) max_pending_ = pending_events();
    return idx;
  }

  /// A heap entry: 16 bytes, so the four children of a node fill exactly
  /// one 64-byte cache line. `key` packs the FIFO sequence number above the
  /// slab slot; comparing (when, key) as one unsigned 128-bit number is the
  /// exact (when, seq) order, since seqs are unique.
  struct entry {
    std::uint64_t when;  // a time_ns; never negative (at() requires >= now_)
    std::uint64_t key;   // seq << slot_bits | slot
  };
  static constexpr unsigned slot_bits = detail::slot_bits;
  static constexpr std::uint64_t seq_limit = std::uint64_t{1}
                                             << (64 - slot_bits);
  __extension__ typedef unsigned __int128 rank_t;
  static rank_t rank(const entry& e) {
    return (static_cast<rank_t>(e.when) << 64) | e.key;
  }
  static bool before(const entry& a, const entry& b) {
    return rank(a) < rank(b);
  }
  static std::uint32_t slot_of(const entry& e) {
    return static_cast<std::uint32_t>(e.key & ((1u << slot_bits) - 1));
  }

  /// Allocates the heap array on 64-byte boundaries.
  template <typename T>
  struct line_allocator {
    using value_type = T;
    line_allocator() = default;
    template <typename U>
    explicit line_allocator(const line_allocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{64});
    }
    friend bool operator==(const line_allocator&, const line_allocator&) {
      return true;
    }
  };

  // 4-ary min-heap, rooted at index 3 of a 64-byte-aligned array (indices
  // 0..2 are padding): node j's children are 4j-8 .. 4j-5, a multiple of 4,
  // so the four sit in one cache line. Hole-based sifting (no swaps).
  static constexpr std::size_t root = 3;

  /// Pops the globally least (when, seq) entry with when <= limit into `out`;
  /// false when nothing that early is pending.
  bool pop_next(time_ns limit, entry& out) {
    if (heap_.size() == root ||
        static_cast<time_ns>(heap_[root].when) > limit) {
      return false;
    }
    out = heap_pop();
    return true;
  }

  void heap_push(entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > root) {
      const std::size_t parent = (i + 8) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  entry heap_pop() {
    entry* h = heap_.data();
    const entry top = h[root];
    const entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == root) return top;
    std::size_t i = root;
    for (;;) {
      const std::size_t c = 4 * i - 8;
      if (c >= n) break;
      std::size_t best;
      if (c + 4 <= n) {  // all four children: pick without branches
        const std::size_t lo = c + before(h[c + 1], h[c]);
        const std::size_t hi = c + 2 + before(h[c + 3], h[c + 2]);
        best = before(h[hi], h[lo]) ? hi : lo;
      } else {
        best = c;
        for (std::size_t k = c + 1; k < n; ++k) {
          if (before(h[k], h[best])) best = k;
        }
      }
      if (!before(h[best], last)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = last;
    return top;
  }

  /// Runs a popped event's callable in place in its slot, then destroys it
  /// and recycles the slot — also when the callable throws. The generation
  /// is bumped first, so the event's own handle already reads as not pending
  /// inside the callback.
  void fire(const entry& top) {
    detail::event_pool& pool = *pool_.pool;
    const std::uint32_t idx = slot_of(top);
    detail::event_slot& slot = pool[idx];
    ++slot.gen;
    const slot_recycler recycle{pool, idx};
    if (!slot.fn) return;  // cancelled
    now_ = static_cast<time_ns>(top.when);
    running_seq_ = top.key >> slot_bits;
    executed_++;
    slot.fn();
  }

  struct slot_recycler {
    detail::event_pool& pool;
    std::uint32_t idx;
    ~slot_recycler() {
      detail::event_slot& slot = pool[idx];
      slot.fn.reset();
      pool.free_list.push_back(idx);  // capacity reserved by grow()
    }
  };

  time_ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// The ranks at now_ below this seq have fired: the running event's seq
  /// or, between events, next_seq_ as the last run ended.
  std::uint64_t running_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;  // high-water mark of pending_events()
  /// The scheduler's own reference to its pool. Dropping it destroys every
  /// pending callable, and handles still alive go inert.
  struct pool_owner {
    detail::event_pool* pool = new detail::event_pool;
    pool_owner() = default;
    pool_owner(const pool_owner&) = delete;
    pool_owner& operator=(const pool_owner&) = delete;
    ~pool_owner() {
      pool->alive = false;
      // A destroyed callable may drop handles it captured; this reference
      // keeps the pool alive until the slab is gone.
      pool->chunks.clear();
      pool->free_list.clear();
      pool->release();
    }
  };
  pool_owner pool_;
  std::vector<entry, line_allocator<entry>> heap_ =
      std::vector<entry, line_allocator<entry>>(root);
};

/// A batch of events whose owner knows all their fire times up front (a
/// paced sender's packets for one slot). The owner add()s the times where it
/// would have called at() for them, and each add() reserves the rank that
/// at() call would have taken. schedule() then queues the batch, which
/// splits into lanes wherever the time decreases; only the next event of
/// each lane sits in the heap. When it fires, the series queues the lane's
/// next reserved rank and then calls `on_fire(k)` with the event's index in
/// the batch. Every event keeps the (when, seq) rank that the at() calls
/// would have given it, so the firing order is the same, ties included,
/// while the heap holds one entry per lane instead of one per event.
///
/// One batch at a time: starting the next one before the previous one has
/// drained is an error. Lane events cannot be cancelled, and the series must
/// outlive them (like any owner whose callbacks capture `this`).
class event_series {
 public:
  event_series(scheduler& s, std::function<void(std::size_t)> on_fire)
      : sched_(s), on_fire_(std::move(on_fire)) {}
  event_series(const event_series&) = delete;
  event_series& operator=(const event_series&) = delete;

  /// Appends an event at `when` to the batch being built, at the rank an
  /// at(when) call would take now; the first add() after schedule() starts
  /// a new batch.
  void add(time_ns when) {
    if (!open_) {
      util::require(unfired_ == 0,
                    "event_series: new batch before the previous one drained");
      batch_.clear();
      open_ = true;
    }
    batch_.push_back(sched_.reserve_at(when));
  }

  /// Queues the batch built by add(): the head of each lane goes into the
  /// heap.
  void schedule() {
    if (!open_) return;  // nothing added since the last batch
    open_ = false;
    unfired_ = batch_.size();
    for (std::size_t k = 0; k < batch_.size(); ++k) {
      if (k == 0 || batch_[k].when < batch_[k - 1].when) push(k);
    }
  }

 private:
  void push(std::size_t k) {
    sched_.queue(batch_[k], [this, k] { fire(k); });
  }

  void fire(std::size_t k) {
    --unfired_;
    if (k + 1 < batch_.size() && batch_[k + 1].when >= batch_[k].when) {
      push(k + 1);
    }
    on_fire_(k);
  }

  scheduler& sched_;
  std::function<void(std::size_t)> on_fire_;
  /// The batch's reserved ranks, in add() order.
  std::vector<scheduler::ticket> batch_;
  std::size_t unfired_ = 0;
  bool open_ = false;  // add() is filling batch_ for the next schedule()
};

}  // namespace mcc::sim

#endif  // MCC_SIM_SCHEDULER_H
