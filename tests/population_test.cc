// Conformance and containment tests for the population subsystem.
//
// The headline contract: an aggregate of N honest members produces EXACTLY
// the router-visible subscription timeline of N individually simulated
// honest receivers — checked by running both worlds on every topology in
// both protocol modes and comparing the delegate's level history against the
// ABR-consolidated histories of the individual receivers. Alongside it: the
// O(interfaces)-not-O(receivers) state invariant, deterministic churn, and
// `--jobs` byte-identity of a population sweep.
#include "population/population.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/stats.h"

namespace mcc::population {
namespace {

flid::flid_config session_config() {
  flid::flid_config cfg;
  cfg.num_groups = 10;
  cfg.base_rate_bps = 100e3;
  cfg.rate_multiplier = 1.5;
  cfg.packet_bytes = 576;
  cfg.slot_duration = sim::milliseconds(250);
  return cfg;
}

// ---------------------------------------------------------------------------
// sim::consolidate_level_timelines — the ABR merge primitive the conformance
// comparison is stated in.
// ---------------------------------------------------------------------------

TEST(consolidate_timelines, single_timeline_is_identity) {
  const sim::level_timeline a = {{0, 1}, {10, 2}, {20, 1}};
  EXPECT_EQ(sim::consolidate_level_timelines({&a}), a);
}

TEST(consolidate_timelines, carries_the_member_maximum) {
  const sim::level_timeline a = {{0, 1}, {10, 3}, {30, 1}};
  const sim::level_timeline b = {{0, 1}, {20, 2}};
  const sim::level_timeline want = {{0, 1}, {10, 3}, {30, 2}};
  EXPECT_EQ(sim::consolidate_level_timelines({&a, &b}), want);
}

TEST(consolidate_timelines, drops_changes_hidden_below_the_max) {
  // b's excursion to 2 while a holds 3 must not emit a change.
  const sim::level_timeline a = {{0, 3}};
  const sim::level_timeline b = {{0, 1}, {5, 2}, {9, 1}};
  const sim::level_timeline want = {{0, 3}};
  EXPECT_EQ(sim::consolidate_level_timelines({&a, &b}), want);
}

TEST(consolidate_timelines, simultaneous_changes_merge_into_one_entry) {
  const sim::level_timeline a = {{0, 2}, {10, 1}};
  const sim::level_timeline b = {{0, 1}, {10, 1}, {12, 3}};
  const sim::level_timeline want = {{0, 2}, {10, 1}, {12, 3}};
  EXPECT_EQ(sim::consolidate_level_timelines({&a, &b}), want);
}

// ---------------------------------------------------------------------------
// edge_aggregate mechanics (driven directly, no network)
// ---------------------------------------------------------------------------

TEST(edge_aggregate, state_bytes_independent_of_member_count) {
  sim::scheduler sched;
  population_config small;
  small.initial_members = 8;
  population_config huge;
  huge.initial_members = 1'000'000;
  edge_aggregate a(sched, session_config(), small);
  edge_aggregate b(sched, session_config(), huge);
  // The whole point of the subsystem: a million members cost the same bytes
  // as eight.
  EXPECT_EQ(a.state_bytes(), b.state_bytes());
  EXPECT_EQ(b.member_count(), 1'000'000);
}

TEST(edge_aggregate, max_demand_puts_everyone_on_the_top_layer) {
  sim::scheduler sched;
  population_config cfg;
  cfg.initial_members = 1000;
  edge_aggregate agg(sched, session_config(), cfg);
  EXPECT_EQ(agg.demand_cap(), 10);
  EXPECT_EQ(agg.demand_histogram()[10], 1000);
}

TEST(edge_aggregate, demand_histogram_sums_to_members) {
  sim::scheduler sched;
  for (const auto kind : {demand_config::kind::uniform,
                          demand_config::kind::zipf}) {
    population_config cfg;
    cfg.initial_members = 100'000;
    cfg.demand.k = kind;
    edge_aggregate agg(sched, session_config(), cfg);
    std::int64_t total = 0;
    for (int d = 1; d <= 10; ++d) total += agg.demand_histogram()[d];
    EXPECT_EQ(total, 100'000);
    EXPECT_EQ(agg.member_count(), 100'000);
  }
}

TEST(edge_aggregate, zipf_demand_skews_toward_the_base_layer) {
  sim::scheduler sched;
  population_config cfg;
  cfg.initial_members = 100'000;
  cfg.demand.k = demand_config::kind::zipf;
  cfg.demand.zipf_s = 1.1;
  edge_aggregate agg(sched, session_config(), cfg);
  const auto& h = agg.demand_histogram();
  EXPECT_GT(h[1], h[5]);
  EXPECT_GT(h[5], h[10]);
}

TEST(edge_aggregate, flash_crowd_joins_and_leaves_on_schedule) {
  sim::scheduler sched;
  population_config cfg;
  cfg.initial_members = 1000;
  cfg.churn.flash_at = sim::seconds(1.0);
  cfg.churn.flash_members = 1'000'000;
  cfg.churn.flash_leave_at = sim::seconds(2.0);
  edge_aggregate agg(sched, session_config(), cfg);

  const auto tick = [&](double at_s) {
    edge_aggregate::slot_view v;
    v.now = sim::seconds(at_s);
    v.granted = 10;
    agg.on_slot(v);
  };
  tick(0.5);
  EXPECT_EQ(agg.member_count(), 1000);
  tick(1.0);
  EXPECT_EQ(agg.member_count(), 1'001'000);
  EXPECT_EQ(agg.stats().flash_arrivals, 1'000'000u);
  tick(1.5);
  EXPECT_EQ(agg.member_count(), 1'001'000);
  tick(2.0);
  // No other churn: the whole cohort survives to leave together.
  EXPECT_EQ(agg.member_count(), 1000);
  EXPECT_EQ(agg.stats().flash_departures, 1'000'000u);
  EXPECT_EQ(agg.stats().peak_members, 1'001'000);
}

TEST(edge_aggregate, poisson_arrivals_and_hazard_departures_flow) {
  sim::scheduler sched;
  population_config cfg;
  cfg.initial_members = 10'000;
  cfg.churn.arrival_per_sec = 100.0;
  cfg.churn.leave_per_sec = 0.01;  // ~1%/s of 10k = ~100/s: near equilibrium
  edge_aggregate agg(sched, session_config(), cfg);
  for (int i = 0; i < 400; ++i) {  // 100 simulated seconds of 250 ms slots
    edge_aggregate::slot_view v;
    v.now = i * sim::milliseconds(250);
    v.granted = 10;
    agg.on_slot(v);
  }
  EXPECT_GT(agg.stats().arrivals, 0u);
  EXPECT_GT(agg.stats().departures, 0u);
  // Near-equilibrium churn: the population stays the same order of magnitude.
  EXPECT_GT(agg.member_count(), 5'000);
  EXPECT_LT(agg.member_count(), 20'000);
}

TEST(edge_aggregate, churn_is_deterministic_per_seed) {
  const auto run = [](std::uint64_t seed) {
    sim::scheduler sched;
    population_config cfg;
    cfg.initial_members = 5000;
    cfg.demand.k = demand_config::kind::zipf;
    cfg.churn.arrival_per_sec = 200.0;
    cfg.churn.leave_per_sec = 0.05;
    cfg.seed = seed;
    edge_aggregate agg(sched, session_config(), cfg);
    for (int i = 0; i < 200; ++i) {
      edge_aggregate::slot_view v;
      v.now = i * sim::milliseconds(250);
      v.granted = (i % 11) + 1;  // exercise partial grants in accounting
      v.congested = i % 7 == 0;
      agg.on_slot(v);
    }
    return std::make_tuple(agg.demand_histogram(), agg.member_count(),
                           agg.stats().arrivals, agg.stats().departures,
                           agg.total_member_bytes());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(edge_aggregate, accounting_charges_min_of_grant_and_demand) {
  sim::scheduler sched;
  const flid::flid_config session = session_config();
  population_config cfg;
  cfg.initial_members = 10;  // demand max: all ten members want layer 10
  edge_aggregate agg(sched, session, cfg);
  edge_aggregate::slot_view v;
  v.granted = 3;
  agg.on_slot(v);
  const double expect_bytes = 10.0 * session.cumulative_rate_bps(3) / 8.0 *
                              sim::to_seconds(session.slot_duration);
  EXPECT_NEAR(agg.total_member_bytes(), expect_bytes, 1e-6);
}

TEST(edge_aggregate, rejects_bad_configs) {
  sim::scheduler sched;
  population_config cfg;
  cfg.initial_members = -1;
  EXPECT_THROW(edge_aggregate(sched, session_config(), cfg),
               util::invariant_error);
  cfg.initial_members = 1;
  cfg.churn.arrival_per_sec = -1.0;
  EXPECT_THROW(edge_aggregate(sched, session_config(), cfg),
               util::invariant_error);
}

// ---------------------------------------------------------------------------
// Conformance: aggregate of N == N individual honest receivers, as seen by
// the routers, on every topology and in both protocol worlds.
// ---------------------------------------------------------------------------

exp::testbed_config conformance_config(const std::string& topo,
                                       std::uint64_t seed) {
  if (topo == "dumbbell") {
    exp::dumbbell_config cfg;
    cfg.seed = seed;
    return exp::dumbbell(cfg);
  }
  if (topo == "parking_lot") {
    exp::parking_lot_config cfg;
    cfg.seed = seed;
    return exp::parking_lot(cfg);
  }
  if (topo == "star") {
    exp::star_config cfg;
    cfg.seed = seed;
    return exp::star(cfg);
  }
  exp::tree_config cfg;
  cfg.seed = seed;
  return exp::balanced_tree(cfg);
}

sim::level_timeline individual_consolidated(const std::string& topo,
                                            exp::flid_mode mode, int n,
                                            sim::time_ns until) {
  exp::testbed d(conformance_config(topo, 5));
  auto& s = d.add_flid_session(
      mode, std::vector<exp::receiver_options>(static_cast<std::size_t>(n)));
  d.run_until(until);
  std::vector<const sim::level_timeline*> timelines;
  for (auto& r : s.receivers) timelines.push_back(&r->level_history());
  return sim::consolidate_level_timelines(timelines);
}

sim::level_timeline aggregate_timeline(const std::string& topo,
                                       exp::flid_mode mode, int members,
                                       sim::time_ns until) {
  exp::testbed d(conformance_config(topo, 5));
  auto& s = d.add_flid_session(mode, {});
  exp::population_options opts;
  opts.population.initial_members = members;  // demand: max; churn: none
  auto& pop = d.add_population(s, opts);
  d.run_until(until);
  return pop.delegate->level_history();
}

class population_conformance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(population_conformance, aggregate_matches_individual_receivers) {
  const std::string topo = GetParam();
  const sim::time_ns until = sim::seconds(40.0);
  for (const exp::flid_mode mode : {exp::flid_mode::dl, exp::flid_mode::ds}) {
    const auto individuals = individual_consolidated(topo, mode, 4, until);
    const auto aggregate = aggregate_timeline(topo, mode, 4, until);
    // The 1 Mbps contested path cannot carry the full 10-layer demand, so a
    // vacuous flat-at-base timeline would indicate a broken run.
    ASSERT_GE(individuals.size(), 3u)
        << topo << " produced no subscription dynamics";
    EXPECT_EQ(aggregate, individuals)
        << topo << "/" << (mode == exp::flid_mode::dl ? "dl" : "ds");
  }
}

INSTANTIATE_TEST_SUITE_P(all_topologies, population_conformance,
                         ::testing::Values("dumbbell", "parking_lot", "star",
                                           "tree"));

// ---------------------------------------------------------------------------
// Testbed integration: coexistence with individually simulated adversaries,
// bounded edge control-plane state, and --jobs byte-identity.
// ---------------------------------------------------------------------------

TEST(population_testbed, adversary_and_aggregate_coexist_at_one_edge) {
  exp::dumbbell_config cfg;
  cfg.seed = 9;
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = adversary::inflate_once(sim::seconds(15.0));
  auto& s = d.add_flid_session(exp::flid_mode::ds, {attacker});
  exp::population_options opts;
  opts.population.initial_members = 100'000;
  auto& pop = d.add_population(s, opts);
  d.run_until(sim::seconds(40.0));

  EXPECT_GT(pop.aggregate->stats().slots, 100u);
  EXPECT_GT(pop.aggregate->total_member_bytes(), 0.0);
  // One delegate + one attacker at the edge: the IGMP control plane stays
  // bounded by slots x groups, nowhere near the member count.
  const auto& igmp = d.igmp("r").stats();
  EXPECT_LT(igmp.joins + igmp.leaves, 5'000u);
  // Both parties are live: the attacker got packets and so did the members.
  EXPECT_GT(s.receiver(0).stats().packets, 0u);
  EXPECT_GT(pop.delegate->stats().packets, 0u);
}

TEST(population_testbed, emptied_sigma_aggregate_waits_at_0_and_rejoins) {
  // A FLID-DS population with no members waits at level 0; a flash crowd
  // re-admits it through a session-join within two slots, and the cohort's
  // departure tears the subscription down again.
  exp::dumbbell_config cfg;
  cfg.seed = 4;
  exp::testbed d(exp::dumbbell(cfg));
  auto& s = d.add_flid_session(exp::flid_mode::ds, {});
  exp::population_options opts;
  opts.population.churn.flash_at = sim::seconds(5.0);
  opts.population.churn.flash_members = 100;
  opts.population.churn.flash_leave_at = sim::seconds(15.0);
  auto& pop = d.add_population(s, opts);
  d.run_until(sim::seconds(4.9));
  EXPECT_EQ(pop.delegate->level(), 0);
  EXPECT_EQ(pop.delegate->stats().packets, 0u);

  d.run_until(sim::seconds(12.0));
  const sim::level_timeline& h = pop.delegate->level_history();
  const auto first_up = std::find_if(
      h.begin(), h.end(), [](const auto& e) { return e.second >= 1; });
  ASSERT_NE(first_up, h.end());
  EXPECT_GE(first_up->first, sim::seconds(5.0));
  EXPECT_LE(first_up->first,
            sim::seconds(5.0) + 2 * pop.delegate->config().slot_duration);
  EXPECT_GE(pop.delegate->level(), 1);
  EXPECT_GT(pop.delegate->stats().packets, 0u);

  d.run_until(sim::seconds(20.0));
  EXPECT_EQ(pop.delegate->level(), 0);
}

TEST(population_testbed, add_population_after_run_is_rejected) {
  exp::testbed d(exp::dumbbell({}));
  auto& s = d.add_flid_session(exp::flid_mode::dl, {});
  d.run_until(sim::seconds(1.0));
  exp::population_options opts;
  opts.population.initial_members = 10;
  EXPECT_THROW(d.add_population(s, opts), util::invariant_error);
}

TEST(population_sweep, jobs_parallelism_is_byte_identical) {
  // A miniature fig_flash_crowd cell: population + flash crowd + hidden
  // adversary, swept over three population sizes. The JSON document must be
  // byte-equal between serial and 4-way parallel execution.
  const std::int64_t pops[] = {100, 1000, 10000};
  const auto run = [&](int jobs) {
    exp::sweep_options opts;
    opts.jobs = jobs;
    opts.base_seed = 11;
    const auto rows = exp::run_sweep(
        {0.0, 1.0, 2.0}, opts, [&](const exp::sweep_point& pt) {
          exp::dumbbell_config cfg;
          cfg.seed = pt.seed;
          exp::testbed d(exp::dumbbell(cfg));
          exp::receiver_options attacker;
          attacker.attack = adversary::inflate_once(sim::seconds(8.0));
          auto& s = d.add_flid_session(exp::flid_mode::ds, {attacker});
          exp::population_options popts;
          popts.population.initial_members = pops[pt.index];
          popts.population.demand.k = demand_config::kind::zipf;
          popts.population.churn.arrival_per_sec = 50.0;
          popts.population.churn.leave_per_sec = 0.01;
          popts.population.churn.flash_at = sim::seconds(5.0);
          popts.population.churn.flash_members = pops[pt.index];
          auto& pop = d.add_population(s, popts);
          d.run_until(sim::seconds(20.0));
          exp::sweep_row row;
          row.label = "pop" + std::to_string(pops[pt.index]);
          row.value("peak_members",
                    static_cast<double>(pop.aggregate->stats().peak_members));
          row.value("member_kbps", pop.aggregate->member_monitor().average_kbps(
                                       0, sim::seconds(20.0)));
          row.value("state_bytes",
                    static_cast<double>(pop.aggregate->state_bytes()));
          row.value("events",
                    static_cast<double>(d.sched().executed_events()));
          row.trace("member_kbps_series",
                    pop.aggregate->member_monitor().series_kbps());
          return row;
        });
    std::ostringstream os;
    exp::write_json(os, "mini_flash_crowd", rows);
    return os.str();
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace mcc::population
