#include "flid/flid_receiver.h"

#include <algorithm>

namespace mcc::flid {

namespace {
/// Congested over groups lo..hi = one of them has missing or invalidated
/// packets (FLID-DL / RLC define congestion as a single packet loss in the
/// slot).
bool incomplete(const std::vector<group_slot_record>& groups, int lo, int hi) {
  for (int g = lo; g <= hi; ++g) {
    if (!groups[static_cast<std::size_t>(g)].complete()) return true;
  }
  return false;
}
}  // namespace

flid_receiver::flid_receiver(sim::network& net, sim::node_id host,
                             sim::node_id edge_router, const flid_config& cfg,
                             std::unique_ptr<subscription_strategy> strategy)
    : net_(net),
      host_(host),
      edge_router_(edge_router),
      cfg_(cfg),
      strategy_(std::move(strategy)),
      membership_(net, host, edge_router),
      monitor_(net.sched()) {
  util::require(strategy_ != nullptr, "flid_receiver: strategy required");
  join_time_.assign(static_cast<std::size_t>(cfg_.num_groups) + 1, -1);
  net_.get(host_)->add_agent(this);
}

flid_receiver::~flid_receiver() {
  *alive_ = false;
  net_.get(host_)->remove_agent(this);
}

void flid_receiver::start(sim::time_ns at) {
  util::require(!started_, "flid_receiver: already started");
  started_ = true;
  net_.sched().at(at, [this, alive = alive_] {
    if (!*alive) return;
    strategy_->session_start(*this);
    const sim::time_ns t = cfg_.slot_duration;
    eval_slot_ = net_.sched().now() / t;
    arm_fallback();
  });
}

void flid_receiver::arm_fallback() {
  // Blackout fallback: if no later-slot packet triggers the evaluation, run
  // it one full slot after the slot ends (covers total loss of a slot).
  eval_fallback_.cancel();
  const sim::time_ns t = cfg_.slot_duration;
  const sim::time_ns deadline = (eval_slot_ + 2) * t;
  const std::int64_t target = eval_slot_;
  eval_fallback_ = net_.sched().at(
      std::max(deadline, net_.sched().now()),
      [this, alive = alive_, target] {
        if (!*alive) return;
        if (eval_slot_ == target) evaluate_up_to(target);
      });
}

void flid_receiver::evaluate_up_to(std::int64_t slot) {
  while (eval_slot_ <= slot) {
    evaluate_slot(eval_slot_);
    ++eval_slot_;
  }
  arm_fallback();
}

bool flid_receiver::handle_packet(const sim::packet& p, sim::link*) {
  const auto* hdr = sim::header_as<sim::flid_data>(p);
  if (hdr == nullptr || hdr->session_id != cfg_.session_id) return false;
  const int g = hdr->group_index;
  if (g < 1 || g > cfg_.num_groups) return false;

  ++stats_.packets;
  monitor_.on_bytes(p.size_bytes);

  // A packet from a later slot means every earlier slot has drained from the
  // shared FIFO path: evaluate pending slots now.
  if (eval_slot_ >= 0 && hdr->slot > eval_slot_) {
    evaluate_up_to(hdr->slot - 1);
  }

  // A straggler from an already evaluated slot changes nothing.
  if (hdr->slot < records_.floor()) return true;
  slot_summary& slot = records_[hdr->slot];
  if (slot.groups.empty()) {
    slot.groups.assign(static_cast<std::size_t>(cfg_.num_groups) + 1,
                       group_slot_record{});
  }
  auto& rec = slot.groups[static_cast<std::size_t>(g)];
  ++rec.received;
  rec.expected = hdr->packets_in_slot;
  // The one model of the section 3.1.2 ECN scrub: a marked packet's
  // component never enters the XOR, so the group cannot prove a key this
  // slot. Routers forward components unchanged.
  if (p.ecn_marked) {
    rec.scrubbed = true;
  } else {
    rec.xor_components ^= hdr->component;
  }
  if (g >= 2) rec.decrease = hdr->decrease;
  rec.shares.insert(rec.shares.end(), hdr->level_shares.begin(),
                    hdr->level_shares.end());
  slot.auth_mask |= hdr->upgrade_auth_mask;
  return true;
}

slot_summary flid_receiver::summarize(std::int64_t slot) {
  slot_summary* received = records_.find(slot);
  slot_summary s = received != nullptr ? std::move(*received) : slot_summary{};
  s.slot = slot;
  if (s.groups.empty()) {
    s.groups.assign(static_cast<std::size_t>(cfg_.num_groups) + 1,
                    group_slot_record{});
  }

  // Level held for the whole slot: the groups held now, counted up from the
  // lowest, as long as each was joined before the slot began.
  const sim::time_ns slot_start = slot * cfg_.slot_duration;
  int lvl = 0;
  for (int g = cfg_.lowest_group(level_); g <= level_; ++g) {
    if (join_time_[static_cast<std::size_t>(g)] > slot_start) break;
    lvl = g;
    s.groups[static_cast<std::size_t>(g)].full_slot = true;
  }
  s.level = lvl;

  s.congested = incomplete(s.groups, cfg_.lowest_group(lvl), lvl);
  return s;
}

int slot_summary::granted() const {
  int g = 0;
  while (g + 1 < static_cast<int>(groups.size()) &&
         groups[static_cast<std::size_t>(g + 1)].received > 0) {
    ++g;
  }
  return g;
}

slot_summary slot_summary::at_level(int n) const {
  slot_summary out = *this;
  out.level = n;
  out.congested = incomplete(groups, 1, n);
  return out;
}

void flid_receiver::set_congestion_path(cm::congestion_manager* manager,
                                        cm::path_id path) {
  util::require(!started_,
                "flid_receiver: attach the congestion manager before start");
  util::require(manager != nullptr,
                "flid_receiver: null congestion manager");
  cm_ = manager;
  cm_path_ = path;
  cm_cum_kbps_.resize(static_cast<std::size_t>(cfg_.num_groups));
  for (int level = 1; level <= cfg_.num_groups; ++level) {
    cm_cum_kbps_[static_cast<std::size_t>(level - 1)] =
        cfg_.cumulative_rate_bps(level) / 1e3;
  }
  cm_trace_ = obs::current_trace();
  if (cm_trace_ != nullptr) {
    cm_track_ = cm_trace_->track("cm/" + net_.get(host_)->name());
  }
}

void flid_receiver::apply_congestion_manager(slot_summary& summary) {
  // Report first, consult second: a slot's own congestion evidence is part
  // of the state the cap is computed from (all co-located receivers fold
  // into the same entry before any of them acts on it).
  cm::observation report;
  report.slot = summary.slot;
  report.congested = summary.congested;
  for (int g = cfg_.lowest_group(summary.level); g <= summary.level; ++g) {
    if (summary.groups[static_cast<std::size_t>(g)].scrubbed) {
      report.ecn_marked = true;
      break;
    }
  }
  report.delivered_kbps =
      summary.level > 0
          ? cm_cum_kbps_[static_cast<std::size_t>(summary.level - 1)]
          : 0.0;
  cm_->observe(cm_path_, report);

  const int cap = cm_->level_cap(cm_path_, summary.slot, cm_cum_kbps_);
  if (cap >= cfg_.num_groups) return;
  // Mask authorization above the cap — the same granted-prefix idiom as the
  // population aggregates: bits 1..cap survive, upgrades past the estimated
  // fair level are withheld. Downgrades are never forced; strategies that
  // ignore authorization (attackers) are untouched by design.
  const std::uint32_t masked =
      summary.auth_mask & (cap >= 31 ? ~0u : ((2u << cap) - 2u));
  if (masked == summary.auth_mask) return;
  summary.auth_mask = masked;
  ++stats_.cm_bindings;
  if (cm_trace_ != nullptr) {
    cm_trace_->record(net_.sched().now(), obs::trace_event::cm_cap, cm_track_,
                      static_cast<std::uint64_t>(summary.slot),
                      static_cast<std::uint64_t>(cap));
  }
}

void flid_receiver::evaluate_slot(std::int64_t slot) {
  ++stats_.slots_evaluated;
  slot_summary summary = summarize(slot);
  if (summary.congested) ++stats_.slots_congested;
  if (cm_ != nullptr) apply_congestion_manager(summary);

  const int before = level_;
  strategy_->on_slot(*this, summary);
  if (level_ > before) ++stats_.upgrades;
  if (level_ < before) ++stats_.downgrades;

  records_.drop_below(slot + 1);
}

void flid_receiver::set_local_level(int new_level) {
  new_level = std::clamp(new_level, 0, cfg_.num_groups);
  if (new_level == level_) return;
  sim::node* h = net_.get(host_);
  for (int g = cfg_.lowest_group(level_); g <= level_; ++g) {
    if (cfg_.holds(new_level, g)) continue;
    h->host_leave(cfg_.group(g));
    join_time_[static_cast<std::size_t>(g)] = -1;
  }
  for (int g = cfg_.lowest_group(new_level); g <= new_level; ++g) {
    if (cfg_.holds(level_, g)) continue;
    h->host_join(cfg_.group(g));
    join_time_[static_cast<std::size_t>(g)] = net_.sched().now();
  }
  level_ = new_level;
  level_history_.emplace_back(net_.sched().now(), level_);
}

// ---------------------------------------------------------------------------
// Plain strategies
// ---------------------------------------------------------------------------

int honest_level_step(int level, int cap, const slot_summary& s) {
  if (s.level == 0) return level;  // not yet receiving a full slot
  if (s.congested) return level > 1 ? level - 1 : level;
  if (level < cap && s.upgrade_authorized(level + 1)) return level + 1;
  return level;
}

void apply_plain_level(flid_receiver& r, int target) {
  const flid_config& cfg = r.config();
  const int level = r.level();
  for (int g = level; g >= cfg.lowest_group(level); --g) {
    if (!cfg.holds(target, g)) r.membership().leave(cfg.group(g));
  }
  for (int g = cfg.lowest_group(target); g <= target; ++g) {
    if (!cfg.holds(level, g)) r.membership().join(cfg.group(g));
  }
  r.set_local_level(target);
}

void honest_plain_strategy::session_start(flid_receiver& r) {
  apply_plain_level(r, 1);
}

void honest_plain_strategy::on_slot(flid_receiver& r, const slot_summary& s) {
  apply_plain_level(r, decide(r, s));
}

int honest_plain_strategy::decide(const flid_receiver& r,
                                  const slot_summary& s) {
  return honest_level_step(r.level(), r.config().num_groups, s);
}

}  // namespace mcc::flid
