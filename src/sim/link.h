// Unidirectional point-to-point link with serialization delay, propagation
// delay, and a finite queue whose admission/marking/head-drop decisions are
// delegated to a pluggable AQM policy (sim/aqm.h): drop-tail, threshold-ECN,
// RED, or CoDel, selected via link_config::aqm.
//
// The transmit -> propagate chain runs on at most two pending events per
// link (the end of the head's serialization and the next delivery) whose
// callbacks capture only the link pointer: packets wait in the link's own
// ring FIFOs instead of being moved through per-hop closures. A packet is
// moved twice per link — into the queue ring, and from its head into the
// in-flight ring once serialized — and handed to the next node by
// reference, so forwarding a packet allocates nothing once the rings have
// reached their peak size.
//
// Most serialization ends are silent: nothing waits behind the packet and
// the delivery timer is already armed, so the end only moves the packet to
// the in-flight ring and frees the line. Such an end fires no event. The
// link reserves its rank (scheduler::reserve_at) and applies it on its next
// transmit, delivery or stats read once the rank has passed. A transmit
// that queues behind the head, or a delivery that disarms the timer, before
// that rank turns it back into a real event at the reserved rank. Either
// way every effect happens in the same (time, seq) order as with one event
// per end.
#ifndef MCC_SIM_LINK_H
#define MCC_SIM_LINK_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "sim/aqm.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/wire.h"

namespace mcc::sim {

class node;

struct link_config {
  double bps = 10e6;                      // line rate, bits/second
  time_ns delay = milliseconds(10);       // propagation delay
  std::int64_t queue_capacity_bytes = 0;  // 0 = pick 2 BDP at 100 ms
  aqm_config aqm;                         // queue discipline + parameters
};

/// Per-link counters. Byte-level drop accounting and the queue-occupancy
/// high-watermark let overload scenarios report loss in bytes and peak
/// buffer pressure, not just packet counts. `aqm_dropped` splits policy
/// decisions (RED early drops, CoDel sojourn drops) out of `dropped`, whose
/// remainder is physical tail overflow.
struct link_stats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;      // total: tail overflow + AQM decisions
  std::uint64_t aqm_dropped = 0;  // subset of dropped decided by the policy
  std::uint64_t delivered = 0;
  std::uint64_t ecn_marked = 0;
  std::int64_t bytes_delivered = 0;
  std::int64_t bytes_dropped = 0;
  std::int64_t max_queued_bytes = 0;  // high-watermark of queued_bytes()
};

/// One direction of a wire. Created in pairs by network::connect().
class link {
 public:
  link(scheduler& sched, node* from, node* to, const link_config& cfg);
  link(const link&) = delete;
  link& operator=(const link&) = delete;

  /// Hands a packet to the link for transmission; may drop (queue full or
  /// AQM early drop). The packet is moved into the queue only if admitted.
  void transmit(packet&& p);
  /// Same, for a packet that stays with the caller (a multicast branch): it
  /// is copied into the queue only if admitted.
  void transmit(const packet& p);

  [[nodiscard]] node* from() const { return from_; }
  [[nodiscard]] node* to() const { return to_; }
  [[nodiscard]] link* reverse() const { return reverse_; }
  void set_reverse(link* r) { reverse_ = r; }
  /// This link's index among its source node's out-links, set by
  /// network::connect; per-interface router state is indexed by it.
  [[nodiscard]] std::size_t port() const { return port_; }
  void set_port(std::size_t port) { port_ = port; }

  [[nodiscard]] const link_config& config() const { return cfg_; }
  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }

  /// The instantiated queue policy (RED's EWMA average lives here).
  [[nodiscard]] const aqm_policy& aqm() const { return *aqm_; }

  /// Time-weighted average of queued_bytes() over [0, now]; the queue-trace
  /// companion of the max_queued_bytes high-watermark.
  [[nodiscard]] double time_avg_queued_bytes(time_ns now) const;

  /// The counters as of now(), a silent serialization end that has passed
  /// included.
  [[nodiscard]] link_stats stats() const;

 private:
  /// The buffer limit and the policy's arrival decision, with drops
  /// counted: drop, or pass/mark for a packet that may be queued.
  aqm_decision admit(const packet& p, time_ns now);
  /// Accounts a packet just queued at the back of queue_ (ECN-marking it
  /// first when `d` is mark) and starts the line if it is idle.
  void enqueued(packet& p, aqm_decision d, time_ns now);
  void start_transmission();
  void on_serialized();
  /// Moves the serialized head into the in-flight ring; `end` is when its
  /// serialization ended. Returns when it arrives at the far end.
  time_ns end_serialization(time_ns end);
  /// Applies a silent serialization end whose rank has passed.
  void settle();
  /// Turns a pending silent end into an on_serialized() event at its rank.
  void queue_silent_end();
  void on_deliver();
  /// Folds the elapsed occupancy into the time-weighted integral; call
  /// immediately before every change of queued_bytes_.
  void account_queue(time_ns now);

  scheduler& sched_;
  node* from_;
  node* to_;
  link* reverse_ = nullptr;
  std::size_t port_ = 0;
  link_config cfg_;
  std::unique_ptr<aqm_policy> aqm_;
  /// Waiting packets stamped with their arrival time (CoDel sojourn). While
  /// busy_, the front one is being serialized; it leaves the ring when it
  /// starts propagating.
  struct queued {
    time_ns enqueued_at;
    packet p;
  };
  ring<queued> queue_;
  /// Packets in flight on the wire, FIFO by arrival time (the propagation
  /// delay is constant per link).
  struct in_flight {
    time_ns arrive_at;
    packet p;
  };
  ring<in_flight> flying_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool delivery_armed_ = false;
  /// The reserved rank of the head's serialization end while that end is
  /// silent (it fires no event).
  std::optional<scheduler::ticket> silent_end_;
  double queue_byte_ns_ = 0.0;     // integral of queued_bytes over time
  time_ns queue_changed_at_ = 0;   // left edge of the un-integrated interval
  link_stats stats_;
  /// Event-trace sink, captured from obs::current_trace() at construction;
  /// null (every hook one dead branch) unless the world was built inside an
  /// obs::trace_scope.
  obs::trace_buffer* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_LINK_H
