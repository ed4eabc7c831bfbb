#include "sim/link.h"

#include <algorithm>

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

void link::transmit(packet&& p) {
  const time_ns now = sched_.now();
  const aqm_decision d = admit(p, now);
  if (d == aqm_decision::drop) return;
  enqueued(queue_.emplace_back(now, std::move(p)).p, d, now);
}

void link::transmit(const packet& p) {
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
  if (!busy_) start_transmission();
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
    const time_ns tx = transmission_time(head.p.size_bytes, cfg_.bps);
    sched_.after(tx, [this] { on_serialized(); });
    return;
  }
  busy_ = false;
}

void link::on_serialized() {
  packet& p = queue_.front().p;
  ++stats_.delivered;
  stats_.bytes_delivered += p.size_bytes;
  // The packet starts propagating while the link head becomes free for the
  // next packet.
  const in_flight& f =
      flying_.emplace_back(sched_.now() + cfg_.delay, std::move(p));
  queue_.pop_front();
  if (!delivery_armed_) {
    delivery_armed_ = true;
    sched_.at(f.arrive_at, [this] { on_deliver(); });
  }
  start_transmission();
}

void link::on_deliver() {
  util::require(!flying_.empty(), "link: delivery with nothing in flight");
  if (flying_.size() > 1) {
    sched_.at(flying_[1].arrive_at, [this] { on_deliver(); });
  } else {
    delivery_armed_ = false;
  }
  // Handed over in place: only on_serialized() pushes to flying_, never a
  // receive() call, so the front slot stays put until it is popped on the
  // way out (also when receive() throws).
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
