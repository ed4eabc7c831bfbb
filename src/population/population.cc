#include "population/population.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace mcc::population {

namespace {

constexpr double two_pi = 6.283185307179586476925286766559;

/// Poisson sample: Knuth inversion for small means, a rounded-and-clamped
/// normal approximation for storms. Both consume a bounded number of stream
/// draws per call, so churn stays deterministic and O(1) per slot whatever
/// the population size.
std::int64_t sample_poisson(crypto::prng& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 32.0) {
    const double limit = std::exp(-lambda);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > limit);
    return k - 1;
  }
  const double u1 = std::max(rng.uniform(), 1e-12);
  const double u2 = rng.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
  return std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::llround(lambda + z * std::sqrt(lambda))));
}

/// Binomial(n, p) sample: exact Bernoulli counting for small n, Poisson
/// approximation for rare events, normal approximation for the bulk.
std::int64_t sample_binomial(crypto::prng& rng, std::int64_t n, double p) {
  if (n <= 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    std::int64_t k = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      if (rng.bernoulli(p)) ++k;
    }
    return k;
  }
  const double nd = static_cast<double>(n);
  const double var = nd * p * (1.0 - p);
  if (var < 25.0) {
    // One tail is rare: Poisson-approximate the rare side.
    if (p <= 0.5) return std::min(n, sample_poisson(rng, nd * p));
    return n - std::min(n, sample_poisson(rng, nd * (1.0 - p)));
  }
  const double u1 = std::max(rng.uniform(), 1e-12);
  const double u2 = rng.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
  return std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::llround(nd * p + z * std::sqrt(var))), 0,
      n);
}

}  // namespace

edge_aggregate::edge_aggregate(sim::scheduler& sched,
                               const flid::flid_config& session,
                               const population_config& cfg)
    : session_(session),
      cfg_(cfg),
      rng_(cfg.seed),
      zipf_(session.num_groups,
            cfg.demand.k == demand_config::kind::zipf ? cfg.demand.zipf_s : 0.0),
      demand_count_(static_cast<std::size_t>(session.num_groups) + 1, 0),
      flash_cohort_(static_cast<std::size_t>(session.num_groups) + 1, 0),
      member_monitor_(sched) {
  util::require(session.num_groups >= 1, "edge_aggregate: no groups");
  util::require(cfg.initial_members >= 0,
                "edge_aggregate: negative initial population");
  util::require(cfg.churn.arrival_per_sec >= 0.0,
                "edge_aggregate: negative arrival rate");
  util::require(cfg.churn.leave_per_sec >= 0.0,
                "edge_aggregate: negative departure hazard");
  util::require(cfg.churn.flash_members >= 0,
                "edge_aggregate: negative flash-crowd size");
  add_members(cfg.initial_members, demand_count_);
  members_ = cfg.initial_members;
  stats_.peak_members = members_;
}

void edge_aggregate::add_members(std::int64_t k,
                                 std::vector<std::int64_t>& into) {
  if (k <= 0) return;
  const int n = session_.num_groups;
  if (cfg_.demand.k == demand_config::kind::max) {
    into[static_cast<std::size_t>(n)] += k;
    return;
  }
  const auto layer_pmf = [&](int d) {
    return cfg_.demand.k == demand_config::kind::uniform
               ? 1.0 / static_cast<double>(n)
               : zipf_.pmf(d);
  };
  if (k <= 64) {
    for (std::int64_t i = 0; i < k; ++i) {
      const int d = cfg_.demand.k == demand_config::kind::uniform
                        ? static_cast<int>(rng_.uniform_int(1, n))
                        : zipf_.sample(rng_.uniform());
      ++into[static_cast<std::size_t>(d)];
    }
    return;
  }
  // Join storm: one multinomial split via sequential binomials — O(groups)
  // draws however many members arrive.
  std::int64_t remaining = k;
  double mass = 1.0;
  for (int d = 1; d < n && remaining > 0; ++d) {
    const double pd = layer_pmf(d);
    const double cond = mass > 0.0 ? std::clamp(pd / mass, 0.0, 1.0) : 0.0;
    const std::int64_t x = sample_binomial(rng_, remaining, cond);
    into[static_cast<std::size_t>(d)] += x;
    remaining -= x;
    mass -= pd;
  }
  into[static_cast<std::size_t>(n)] += remaining;
}

int edge_aggregate::demand_cap() const {
  for (int d = session_.num_groups; d >= 1; --d) {
    if (demand_count_[static_cast<std::size_t>(d)] > 0) return d;
  }
  return 0;
}

void edge_aggregate::account_slot(const slot_view& v) {
  ++stats_.slots;
  if (members_ <= 0 || v.granted <= 0) return;
  const double slot_s = sim::to_seconds(session_.slot_duration);
  double bytes = 0.0;
  for (int d = 1; d <= session_.num_groups; ++d) {
    const std::int64_t c = demand_count_[static_cast<std::size_t>(d)];
    if (c == 0) continue;
    const double rate = session_.cumulative_rate_bps(std::min(v.granted, d));
    bytes += static_cast<double>(c) * rate / 8.0 * slot_s;
  }
  total_member_bytes_ += bytes;
  member_monitor_.on_bytes(
      std::llround(bytes / static_cast<double>(members_)));
}

void edge_aggregate::churn_tick(const slot_view& v) {
  const int n = session_.num_groups;
  const double slot_s = sim::to_seconds(session_.slot_duration);

  // Hazard departures shrink the histogram where the members are.
  if (cfg_.churn.leave_per_sec > 0.0 && members_ > 0) {
    const double p = 1.0 - std::exp(-cfg_.churn.leave_per_sec * slot_s);
    for (int d = 1; d <= n; ++d) {
      auto& c = demand_count_[static_cast<std::size_t>(d)];
      if (c == 0) continue;
      const std::int64_t gone = sample_binomial(rng_, c, p);
      c -= gone;
      members_ -= gone;
      stats_.departures += static_cast<std::uint64_t>(gone);
      // The flash cohort shares the hazard; keep its residue consistent.
      auto& f = flash_cohort_[static_cast<std::size_t>(d)];
      f = std::min(f, c);
    }
  }

  if (cfg_.churn.arrival_per_sec > 0.0) {
    const std::int64_t k =
        sample_poisson(rng_, cfg_.churn.arrival_per_sec * slot_s);
    add_members(k, demand_count_);
    members_ += k;
    stats_.arrivals += static_cast<std::uint64_t>(k);
  }

  if (!flash_joined_ && cfg_.churn.flash_at >= 0 &&
      v.now >= cfg_.churn.flash_at) {
    flash_joined_ = true;
    add_members(cfg_.churn.flash_members, flash_cohort_);
    for (int d = 1; d <= n; ++d) {
      demand_count_[static_cast<std::size_t>(d)] +=
          flash_cohort_[static_cast<std::size_t>(d)];
    }
    members_ += cfg_.churn.flash_members;
    stats_.flash_arrivals += static_cast<std::uint64_t>(cfg_.churn.flash_members);
  }
  if (flash_joined_ && !flash_left_ && cfg_.churn.flash_leave_at >= 0 &&
      v.now >= cfg_.churn.flash_leave_at) {
    flash_left_ = true;
    for (int d = 1; d <= n; ++d) {
      auto& f = flash_cohort_[static_cast<std::size_t>(d)];
      demand_count_[static_cast<std::size_t>(d)] -= f;
      members_ -= f;
      stats_.flash_departures += static_cast<std::uint64_t>(f);
      f = 0;
    }
  }
  stats_.peak_members = std::max(stats_.peak_members, members_);
}

void edge_aggregate::on_slot(const slot_view& v) {
  // Account against the pre-churn histogram (these members sat through the
  // slot), then evolve the population for the next one.
  account_slot(v);
  churn_tick(v);
}

std::size_t edge_aggregate::state_bytes() const {
  return sizeof(*this) +
         (demand_count_.capacity() + flash_cohort_.capacity()) *
             sizeof(std::int64_t) +
         static_cast<std::size_t>(zipf_.n()) * sizeof(double);
}

// ---------------------------------------------------------------------------
// Delegate strategies: the honest control laws, capped at the consolidated
// member demand.
// ---------------------------------------------------------------------------

namespace {

class aggregate_plain_strategy : public flid::honest_plain_strategy {
 public:
  explicit aggregate_plain_strategy(edge_aggregate& agg) : agg_(agg) {}

  void session_start(flid::flid_receiver& r) override {
    // An empty population waits: arrivals re-admit it in decide().
    if (agg_.member_count() > 0) honest_plain_strategy::session_start(r);
  }

 protected:
  int decide(const flid::flid_receiver& r,
             const flid::slot_summary& s) override {
    agg_.on_slot({s.slot, r.net().sched().now(), s.granted(), s.congested});
    const int cap = agg_.demand_cap();
    // Population emptied: tear the whole subscription down.
    if (cap == 0) return 0;
    // Members returned to an emptied aggregate: re-enter at the base.
    if (r.level() == 0) return 1;
    // Churn may have lowered the consolidated demand below the current
    // carry; the honest step runs from the capped level.
    const int level = std::min(r.level(), cap);
    return flid::honest_level_step(level, cap, s);
  }

 private:
  edge_aggregate& agg_;
};

class aggregate_sigma_strategy : public core::honest_sigma_strategy {
 public:
  explicit aggregate_sigma_strategy(edge_aggregate& agg) : agg_(agg) {}

  void session_start(flid::flid_receiver& r) override {
    if (agg_.member_count() > 0) {
      honest_sigma_strategy::session_start(r);
    } else {
      attach(r);  // waits at level 0: arrivals re-admit it in decide()
    }
  }

 protected:
  core::slot_decision decide(const flid::flid_receiver& r,
                             const flid::slot_summary& s,
                             const core::slot_feedback& fb) override {
    agg_.on_slot({s.slot, fb.now, fb.granted, s.congested});
    const int cap = agg_.demand_cap();
    if (cap == 0) return {.level = 0, .leave = leaves(r, 0, r.level())};
    // Only an emptied population sits at level 0: members returned. It
    // re-enters the base with a session-join, once the guard lets one out.
    if (r.level() == 0 && !may_rejoin()) return {};
    if (r.level() == 0) return {.level = 1, .rejoin = true};
    // Cap the honest climb at the consolidated demand: with the upgrade
    // authorization bits above the cap cleared, reconstruct() never steps
    // past it — and when cap == num_groups the summary is untouched, so this
    // path is step-for-step the honest strategy (the conformance contract).
    flid::slot_summary capped = s;
    capped.auth_mask &= cap >= 31 ? ~0u : ((2u << cap) - 2u);
    core::slot_decision d = honest_sigma_strategy::decide(r, capped, fb);
    if (d.level > cap) {
      // Churn lowered the demand below the level the honest step retained:
      // leave the groups above the cap as well.
      const std::vector<sim::group_addr> cut = leaves(r, cap, d.level);
      d.leave.insert(d.leave.begin(), cut.begin(), cut.end());
      d.level = cap;
    }
    return d;
  }

 private:
  edge_aggregate& agg_;
};

}  // namespace

std::unique_ptr<flid::subscription_strategy> make_aggregate_strategy(
    flid::protocol proto, edge_aggregate& agg, bool interface_keying) {
  if (proto == flid::protocol::plain) {
    return std::make_unique<aggregate_plain_strategy>(agg);
  }
  auto s = std::make_unique<aggregate_sigma_strategy>(agg);
  s->set_interface_keying(interface_keying);
  return s;
}

}  // namespace mcc::population
