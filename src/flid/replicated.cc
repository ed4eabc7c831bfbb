#include "flid/replicated.h"

#include <cmath>

#include "crypto/oneway.h"

namespace mcc::flid {

replicated_sender::replicated_sender(sim::network& net, sim::node_id host,
                                     const flid_config& cfg, std::uint64_t)
    : net_(net),
      host_(host),
      cfg_(cfg),
      series_(net.sched(), [this](std::size_t k) {
        const paced_send s = sends_[k];
        send_packet(slot_, s.group, s.seq,
                    counts_[static_cast<std::size_t>(s.group)], mask_);
      }) {
  util::require(cfg_.num_groups >= 1 && cfg_.num_groups <= 30,
                "replicated_sender: unsupported group count");
}

void replicated_sender::start(sim::time_ns at) {
  util::require(!started_, "replicated_sender: already started");
  started_ = true;
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    net_.register_group_source(cfg_.group(g), host_);
  }
  auto ann = cfg_.announcement();
  ann.sigma_protected = sigma_protected_;
  net_.announce_session(ann);
  const sim::time_ns t = cfg_.slot_duration;
  const std::int64_t first_slot = (at + t - 1) / t;
  net_.sched().at(first_slot * t, [this, first_slot] { begin_slot(first_slot); });
}

std::uint32_t replicated_sender::auth_mask_for_slot(std::int64_t slot) {
  std::uint32_t mask = 0;
  for (int g = 2; g <= cfg_.num_groups; ++g) {
    const std::uint64_t h = crypto::oneway_mix(
        (static_cast<std::uint64_t>(cfg_.session_id) << 48) ^ 0x5a5aULL ^
        (static_cast<std::uint64_t>(slot) * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(g));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < cfg_.upgrade_prob_for(g)) mask |= (1u << g);
  }
  return mask;
}

int replicated_sender::packets_in_slot(int g, std::int64_t slot) const {
  // In replicated multicast, group g carries the whole content at the level-g
  // rate (not a differential layer).
  const double rate = cfg_.cumulative_rate_bps(g);
  const double t = sim::to_seconds(cfg_.slot_duration);
  const double per_packet_bits = 8.0 * cfg_.packet_bytes;
  const auto upto = [&](std::int64_t s) {
    return static_cast<std::int64_t>(
        std::floor(rate * t * static_cast<double>(s) / per_packet_bits));
  };
  return static_cast<int>(std::max<std::int64_t>(upto(slot + 1) - upto(slot), 1));
}

void replicated_sender::begin_slot(std::int64_t slot) {
  const std::uint32_t mask = auth_mask_for_slot(slot);
  counts_.assign(static_cast<std::size_t>(cfg_.num_groups) + 1, 0);
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    counts_[static_cast<std::size_t>(g)] = packets_in_slot(g, slot);
  }
  if (delta_ != nullptr) delta_->begin_slot(slot, mask, counts_);

  // One series lane per group: each group's sends are evenly spaced.
  slot_ = slot;
  mask_ = mask;
  sends_.clear();
  const sim::time_ns t = cfg_.slot_duration;
  const sim::time_ns slot_start = slot * t;
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    const int n = counts_[static_cast<std::size_t>(g)];
    for (int i = 0; i < n; ++i) {
      series_.add(slot_start +
                  (2 * static_cast<sim::time_ns>(i) + 1) * t / (2 * n));
      sends_.push_back({g, i});
    }
  }
  series_.schedule();
  net_.sched().at(slot_start + t, [this, slot] { begin_slot(slot + 1); });
}

void replicated_sender::send_packet(std::int64_t slot, int g, int seq,
                                    int count, std::uint32_t auth_mask) {
  sim::flid_data hdr;
  hdr.session_id = cfg_.session_id;
  hdr.group_index = g;
  hdr.slot = slot;
  hdr.seq_in_slot = seq;
  hdr.packets_in_slot = count;
  hdr.last_in_slot = (seq == count - 1);
  hdr.upgrade_auth_mask = auth_mask;
  if (delta_ != nullptr) {
    delta_->fill_fields(slot, g, seq, hdr.last_in_slot, hdr);
  }
  sim::packet p;
  p.size_bytes = cfg_.packet_bytes;
  p.dst = sim::dest::to_group(cfg_.group(g));
  p.ecn_capable = true;
  if (sigma_tagging_) p.tag = sim::sigma_tag{cfg_.session_id, slot};
  p.hdr = hdr;
  net_.get(host_)->send(std::move(p));
}

// ---------------------------------------------------------------------------
// replicated_receiver
// ---------------------------------------------------------------------------

replicated_receiver::replicated_receiver(sim::network& net, sim::node_id host,
                                         sim::node_id edge_router,
                                         const flid_config& cfg)
    : net_(net),
      host_(host),
      cfg_(cfg),
      membership_(net, host, edge_router),
      monitor_(net.sched()) {
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
