#include "sim/link.h"

#include <algorithm>
#include <utility>

#include "sim/node.h"

namespace mcc::sim {

namespace {
constexpr std::int64_t default_queue_bytes(double bps) {
  // Two bandwidth-delay products at a nominal 100 ms RTT.
  return static_cast<std::int64_t>(2.0 * bps * 0.1 / 8.0);
}
}  // namespace

link::link(scheduler& sched, node* from, node* to, const link_config& cfg)
    : sched_(sched), from_(from), to_(to), cfg_(cfg) {
  util::require(cfg_.bps > 0, "link: rate must be positive");
  util::require(cfg_.delay >= 0, "link: negative propagation delay");
  if (cfg_.queue_capacity_bytes <= 0) {
    cfg_.queue_capacity_bytes = default_queue_bytes(cfg_.bps);
  }
  util::require(cfg_.queue_capacity_bytes > 0,
                "link: queue capacity auto-size produced no room (rate too "
                "low for the 2-BDP default)");
  aqm_ = make_aqm(cfg_.aqm, cfg_.bps, cfg_.queue_capacity_bytes);
  if ((trace_ = obs::current_trace()) != nullptr) {
    trace_track_ = trace_->track("link:" + from_->name() + ">" + to_->name());
  }
}

void link::account_queue(time_ns now) {
  queue_byte_ns_ += static_cast<double>(queued_bytes_) *
                    static_cast<double>(now - queue_changed_at_);
  queue_changed_at_ = now;
}

double link::time_avg_queued_bytes(time_ns now) const {
  if (now <= 0) return 0.0;
  const double integral =
      queue_byte_ns_ + static_cast<double>(queued_bytes_) *
                           static_cast<double>(now - queue_changed_at_);
  return integral / static_cast<double>(now);
}

aqm_decision link::admit(const packet& p, time_ns now) {
  const aqm_queue_view view{queued_bytes_, cfg_.queue_capacity_bytes};
  // Physical backstop for every policy: a packet never enters a queue beyond
  // capacity. Policies shape behaviour below this limit but still observe
  // the overflow arrival (RED's average must track the full queue).
  if (queued_bytes_ + p.size_bytes > cfg_.queue_capacity_bytes) {
    aqm_->on_overflow(p, view, now);
    ++stats_.dropped;
    stats_.bytes_dropped += p.size_bytes;
    if (trace_ != nullptr) {
      trace_->record(now, obs::trace_event::packet_drop, trace_track_,
                     static_cast<std::uint64_t>(p.size_bytes), 0);
    }
    return aqm_decision::drop;
  }
  const aqm_decision d = aqm_->on_arrival(p, view, now);
  if (d == aqm_decision::drop) {
    ++stats_.dropped;
    ++stats_.aqm_dropped;
    stats_.bytes_dropped += p.size_bytes;
    if (trace_ != nullptr) {
      trace_->record(now, obs::trace_event::packet_drop, trace_track_,
                     static_cast<std::uint64_t>(p.size_bytes), 1);
    }
  }
  return d;
}

link_stats link::stats() const {
  link_stats s = stats_;
  if (silent_end_ && sched_.passed(*silent_end_)) {
    ++s.delivered;
    s.bytes_delivered += queue_.front().p.size_bytes;
  }
  return s;
}

void link::transmit(packet&& p) {
  settle();
  const time_ns now = sched_.now();
  const aqm_decision d = admit(p, now);
  if (d == aqm_decision::drop) return;
  enqueued(queue_.emplace_back(now, std::move(p)).p, d, now);
}

void link::transmit(const packet& p) {
  settle();
  const time_ns now = sched_.now();
  const aqm_decision d = admit(p, now);
  if (d == aqm_decision::drop) return;
  enqueued(queue_.emplace_back(now, p).p, d, now);
}

void link::enqueued(packet& p, aqm_decision d, time_ns now) {
  if (d == aqm_decision::mark && p.ecn_capable && !p.ecn_marked) {
    p.ecn_marked = true;
    ++stats_.ecn_marked;
    if (trace_ != nullptr) {
      trace_->record(now, obs::trace_event::packet_mark, trace_track_,
                     static_cast<std::uint64_t>(p.size_bytes), 0);
    }
  }
  ++stats_.enqueued;
  account_queue(now);
  queued_bytes_ += p.size_bytes;
  stats_.max_queued_bytes = std::max(stats_.max_queued_bytes, queued_bytes_);
  if (trace_ != nullptr) {
    trace_->record(now, obs::trace_event::packet_enqueue, trace_track_,
                   static_cast<std::uint64_t>(p.size_bytes),
                   static_cast<std::uint64_t>(queued_bytes_));
  }
  if (busy_) {
    queue_silent_end();  // the head's end now starts this packet
  } else {
    start_transmission();
  }
}

void link::start_transmission() {
  const time_ns now = sched_.now();
  while (!queue_.empty()) {
    queued& head = queue_.front();
    account_queue(now);
    queued_bytes_ -= head.p.size_bytes;
    const aqm_queue_view view{queued_bytes_, cfg_.queue_capacity_bytes};
    switch (aqm_->on_dequeue(head.p, head.enqueued_at, view, now)) {
      case aqm_decision::drop:
        // CoDel sojourn drop: discard the head and consult the policy about
        // the next packet.
        ++stats_.dropped;
        ++stats_.aqm_dropped;
        stats_.bytes_dropped += head.p.size_bytes;
        if (trace_ != nullptr) {
          trace_->record(now, obs::trace_event::packet_drop, trace_track_,
                         static_cast<std::uint64_t>(head.p.size_bytes), 2);
        }
        queue_.pop_front();
        continue;
      case aqm_decision::mark:
        if (head.p.ecn_capable && !head.p.ecn_marked) {
          head.p.ecn_marked = true;
          ++stats_.ecn_marked;
          if (trace_ != nullptr) {
            trace_->record(now, obs::trace_event::packet_mark, trace_track_,
                           static_cast<std::uint64_t>(head.p.size_bytes), 1);
          }
        }
        break;
      case aqm_decision::pass:
        break;
    }
    // The head stays at the front of queue_ while it is serialized.
    busy_ = true;
    const scheduler::ticket end = sched_.reserve_at(
        now + transmission_time(head.p.size_bytes, cfg_.bps));
    if (queue_.size() == 1 && delivery_armed_) {
      silent_end_ = end;  // nothing to start or arm: see link.h
    } else {
      sched_.queue(end, [this] { on_serialized(); });
    }
    return;
  }
  busy_ = false;
}

void link::on_serialized() {
  const time_ns arrive_at = end_serialization(sched_.now());
  if (!delivery_armed_) {
    delivery_armed_ = true;
    sched_.at(arrive_at, [this] { on_deliver(); });
  }
  start_transmission();
}

time_ns link::end_serialization(time_ns end) {
  // The packet starts propagating while the link head becomes free for the
  // next packet.
  packet& p = queue_.front().p;
  ++stats_.delivered;
  stats_.bytes_delivered += p.size_bytes;
  const time_ns arrive_at = end + cfg_.delay;
  flying_.emplace_back(arrive_at, std::move(p));
  queue_.pop_front();
  return arrive_at;
}

void link::settle() {
  if (silent_end_ && sched_.passed(*silent_end_)) {
    end_serialization(silent_end_->when);
    silent_end_.reset();
    busy_ = false;
  }
}

void link::queue_silent_end() {
  if (silent_end_) {
    sched_.queue(*std::exchange(silent_end_, std::nullopt),
                 [this] { on_serialized(); });
  }
}

void link::on_deliver() {
  settle();
  util::require(!flying_.empty(), "link: delivery with nothing in flight");
  if (flying_.size() > 1) {
    sched_.at(flying_[1].arrive_at, [this] { on_deliver(); });
  } else {
    delivery_armed_ = false;
    queue_silent_end();  // the head's end now arms the delivery
  }
  // Handed over in place: only the end of a serialization pushes to
  // flying_, and receive() at the far end never transmits on this link, so
  // the front slot stays put until it is popped on the way out (also when
  // receive() throws).
  struct pop_front_on_exit {
    ring<in_flight>& r;
    ~pop_front_on_exit() { r.pop_front(); }
  } const pop{flying_};
  packet& p = flying_.front().p;
  if (trace_ != nullptr) {
    trace_->record(sched_.now(), obs::trace_event::packet_deliver,
                   trace_track_, static_cast<std::uint64_t>(p.size_bytes),
                   p.uid);
  }
  to_->receive(std::move(p), this);
}

}  // namespace mcc::sim
