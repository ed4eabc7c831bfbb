#include "flid/replicated.h"

namespace mcc::flid {

replicated_receiver::replicated_receiver(sim::network& net, sim::node_id host,
                                         sim::node_id edge_router,
                                         const flid_config& cfg)
    : net_(net),
      host_(host),
      cfg_(cfg),
      membership_(net, host, edge_router),
      monitor_(net.sched()) {
  util::require(cfg_.structure == session_structure::replicated,
                "replicated_receiver: replicated session required");
  net_.get(host_)->add_agent(this);
}

replicated_receiver::~replicated_receiver() {
  net_.get(host_)->remove_agent(this);
}

void replicated_receiver::start(sim::time_ns at) {
  net_.sched().at(at, [this] {
    group_ = 1;
    join_time_ = net_.sched().now();
    membership_.join(cfg_.group(1));
    const sim::time_ns t = cfg_.slot_duration;
    const std::int64_t current = net_.sched().now() / t;
    net_.sched().at((current + 1) * t + t / 2, [this, current] {
      evaluate_slot(current);
    });
  });
}

bool replicated_receiver::handle_packet(const sim::packet& p, sim::link*) {
  const auto* hdr = sim::header_as<sim::flid_data>(p);
  if (hdr == nullptr || hdr->session_id != cfg_.session_id) return false;
  monitor_.on_bytes(p.size_bytes);
  // A straggler from an already evaluated slot changes nothing.
  if (hdr->slot < records_.floor()) return true;
  slot_record& rec = records_[hdr->slot];
  if (hdr->group_index == group_) {
    ++rec.received;
    rec.expected = hdr->packets_in_slot;
    rec.xor_components ^= hdr->component;
  }
  if (hdr->group_index == group_ + 1) rec.decrease = hdr->decrease;
  rec.auth_mask |= hdr->upgrade_auth_mask;
  return true;
}

void replicated_receiver::evaluate_slot(std::int64_t slot) {
  const sim::time_ns t = cfg_.slot_duration;
  const bool full_slot = join_time_ >= 0 && join_time_ <= slot * t;
  if (full_slot) {
    const slot_record* rec = records_.find(slot);
    const bool complete = rec != nullptr && rec->expected >= 0 &&
                          rec->received >= rec->expected;
    const std::uint32_t mask = rec != nullptr ? rec->auth_mask : 0;
    if (!complete) {
      if (group_ > 1) {
        membership_.leave(cfg_.group(group_));
        --group_;
        membership_.join(cfg_.group(group_));
        join_time_ = net_.sched().now();
      }
    } else if (group_ < cfg_.num_groups && (mask & (1u << (group_ + 1)))) {
      membership_.leave(cfg_.group(group_));
      ++group_;
      membership_.join(cfg_.group(group_));
      join_time_ = net_.sched().now();
    }
  }
  records_.drop_below(slot + 1);
  net_.sched().at((slot + 2) * t + t / 2,
                  [this, slot] { evaluate_slot(slot + 1); });
}

}  // namespace mcc::flid
