// Observability layer: metrics registry (views, flattened naming, snapshot
// order), the bare histogram, the deterministic event-trace buffer (track
// interning, serialization, thread-local scope), and their integration with
// exp::testbed and exp::run_sweep (per-row metric snapshots and trace blobs
// that stay byte-identical across --jobs settings).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "exp/testbed.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"
#include "util/require.h"

namespace mcc::obs {
namespace {

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(metrics_registry, flatten_without_labels_is_the_bare_name) {
  EXPECT_EQ(registry::flatten("sched.executed_events", {}),
            "sched.executed_events");
}

TEST(metrics_registry, flatten_preserves_label_order) {
  EXPECT_EQ(registry::flatten("link.dropped", {{"from", "l"}, {"to", "r"}}),
            "link.dropped{from=l,to=r}");
  EXPECT_EQ(registry::flatten("link.dropped", {{"to", "r"}, {"from", "l"}}),
            "link.dropped{to=r,from=l}")
      << "label order is part of the name, not canonicalized away";
}

TEST(metrics_registry, snapshot_returns_registration_order) {
  registry reg;
  reg.add_view("b.second", {}, [] { return 3.0; });
  reg.add_view("a.first", {{"k", "v"}}, [] { return 2.5; });
  reg.add_view("c.third", {}, [] { return 7.0; });

  const metric_snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "b.second");
  EXPECT_EQ(snap[0].second, 3.0);
  EXPECT_EQ(snap[1].first, "a.first{k=v}");
  EXPECT_EQ(snap[1].second, 2.5);
  EXPECT_EQ(snap[2].first, "c.third");
  EXPECT_EQ(snap[2].second, 7.0);
}

TEST(metrics_registry, views_read_live_state_at_snapshot_time) {
  registry reg;
  double live = 1.0;
  reg.add_view("live", {}, [&live] { return live; });
  EXPECT_EQ(reg.snapshot()[0].second, 1.0);
  live = 42.0;
  EXPECT_EQ(reg.snapshot()[0].second, 42.0);
}

TEST(metrics_histogram, buckets_count_first_bound_geq_value) {
  histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bound is inclusive)
  h.observe(5.0);    // <= 10
  h.observe(100.0);  // <= 100
  h.observe(500.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 606.5);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // overflow bucket
}

TEST(metrics_histogram, rejects_bounds_that_do_not_increase) {
  EXPECT_THROW(histogram(std::vector<double>{}), util::invariant_error);
  EXPECT_THROW(histogram({10.0, 1.0}), util::invariant_error);
  EXPECT_THROW(histogram({1.0, 1.0}), util::invariant_error);
}

// ---------------------------------------------------------------------------
// trace buffer + scope
// ---------------------------------------------------------------------------

TEST(trace_buffer, interns_track_names_once) {
  trace_buffer tb;
  const std::uint32_t a = tb.track("link:l>r");
  const std::uint32_t b = tb.track("sigma:r:h");
  EXPECT_EQ(tb.track("link:l>r"), a);
  EXPECT_NE(a, b);
  ASSERT_EQ(tb.tracks().size(), 2u);
  EXPECT_EQ(tb.tracks()[a], "link:l>r");
  EXPECT_EQ(tb.tracks()[b], "sigma:r:h");
}

TEST(trace_buffer, records_carry_time_kind_and_payload) {
  trace_buffer tb;
  const std::uint32_t t = tb.track("link:l>r");
  tb.record(1'000, trace_event::packet_drop, t, 576, 1);
  ASSERT_EQ(tb.size(), 1u);
  const trace_record& r = tb.records()[0];
  EXPECT_EQ(r.t, 1'000);
  EXPECT_EQ(r.track, t);
  EXPECT_EQ(r.kind, static_cast<std::uint16_t>(trace_event::packet_drop));
  EXPECT_EQ(r.a, 576u);
  EXPECT_EQ(r.b, 1u);
}

TEST(trace_buffer, serialize_round_trips_tracks_and_records) {
  trace_buffer tb;
  const std::uint32_t t0 = tb.track("link:l>r");
  const std::uint32_t t1 = tb.track("recv:h");
  tb.record(10, trace_event::packet_enqueue, t0, 576, 1152);
  tb.record(20, trace_event::slot_feedback, t1, 3, 2);

  const std::string blob = tb.serialize();
  // Layout: u32 track_count, (u32 len + name)*, u64 record_count, records.
  std::size_t off = 0;
  std::uint32_t ntracks = 0;
  std::memcpy(&ntracks, blob.data() + off, 4);
  off += 4;
  ASSERT_EQ(ntracks, 2u);
  for (const char* expected : {"link:l>r", "recv:h"}) {
    std::uint32_t len = 0;
    std::memcpy(&len, blob.data() + off, 4);
    off += 4;
    EXPECT_EQ(blob.substr(off, len), expected);
    off += len;
  }
  std::uint64_t nrecords = 0;
  std::memcpy(&nrecords, blob.data() + off, 8);
  off += 8;
  ASSERT_EQ(nrecords, 2u);
  trace_record rec{};
  std::memcpy(&rec, blob.data() + off, sizeof rec);
  EXPECT_EQ(rec.t, 10);
  EXPECT_EQ(rec.kind, static_cast<std::uint16_t>(trace_event::packet_enqueue));
  EXPECT_EQ(blob.size(), off + 2 * sizeof(trace_record));
}

TEST(trace_scope, installs_and_restores_the_thread_local_sink) {
  EXPECT_EQ(current_trace(), nullptr);
  trace_buffer outer;
  {
    trace_scope a(&outer);
    EXPECT_EQ(current_trace(), &outer);
    trace_buffer inner;
    {
      trace_scope b(&inner);
      EXPECT_EQ(current_trace(), &inner);
      // A null scope is "tracing off", even nested inside an active one.
      trace_scope c(nullptr);
      EXPECT_EQ(current_trace(), nullptr);
    }
    EXPECT_EQ(current_trace(), &outer);
  }
  EXPECT_EQ(current_trace(), nullptr);
}

TEST(trace_event_names, every_kind_has_a_name) {
  for (std::uint16_t k = 1; k <= 14; ++k) {
    EXPECT_STRNE(trace_event_name(static_cast<trace_event>(k)), "?")
        << "kind " << k;
  }
}

// ---------------------------------------------------------------------------
// testbed integration: one small FLID-DS world populates both the registry
// and the trace buffer.
// ---------------------------------------------------------------------------

TEST(testbed_metrics, registry_covers_scheduler_edges_and_links) {
  exp::dumbbell_config cfg;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  d.run_until(sim::seconds(10.0));

  const metric_snapshot snap = d.metrics().snapshot();
  const auto value_of = [&snap](const std::string& name) -> double {
    for (const auto& [k, v] : snap) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "metric not in snapshot: " << name;
    return -1.0;
  };

  EXPECT_GT(value_of("sched.executed_events"), 0.0);
  EXPECT_GT(value_of("sched.max_pending_events"), 0.0);
  EXPECT_GT(value_of("sched.slots_high_water"), 0.0);
  // The receiver site "r" became an edge, so its agents registered views.
  EXPECT_GT(value_of("sigma.subscribe_msgs{router=r}"), 0.0);
  EXPECT_GT(value_of("sigma.valid_keys{router=r}"), 0.0);
  // The bottleneck l->r carried the session's traffic.
  EXPECT_GT(value_of("link.delivered{from=l,to=r}"), 0.0);
  EXPECT_GT(value_of("link.bytes_delivered{from=l,to=r}"), 0.0);
}

TEST(testbed_metrics, views_match_the_structs_they_wrap) {
  exp::dumbbell_config cfg;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  d.run_until(sim::seconds(10.0));

  const metric_snapshot snap = d.metrics().snapshot();
  double sigma_valid = -1.0;
  double sched_executed = -1.0;
  for (const auto& [k, v] : snap) {
    if (k == "sigma.valid_keys{router=r}") sigma_valid = v;
    if (k == "sched.executed_events") sched_executed = v;
  }
  EXPECT_EQ(sigma_valid, static_cast<double>(d.sigma().stats().valid_keys))
      << "the view must read the same struct the legacy accessor exposes";
  EXPECT_EQ(sched_executed, static_cast<double>(d.sched().executed_events()));
}

TEST(testbed_metrics, snapshot_is_deterministic_across_identical_worlds) {
  const auto build_and_snapshot = [] {
    obs::trace_buffer tb;
    obs::trace_scope scope(&tb);
    exp::dumbbell_config cfg;
    cfg.seed = 3;
    exp::testbed d(exp::dumbbell(cfg));
    d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    d.run_until(sim::seconds(10.0));
    return std::make_pair(d.metrics().snapshot(), tb.serialize());
  };
  const auto [snap_a, blob_a] = build_and_snapshot();
  const auto [snap_b, blob_b] = build_and_snapshot();
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(blob_a, blob_b) << "trace blobs must be bit-reproducible";
  EXPECT_FALSE(blob_a.empty());
}

TEST(testbed_trace, engine_emits_all_three_track_families) {
  obs::trace_buffer tb;
  obs::trace_scope scope(&tb);
  exp::dumbbell_config cfg;
  cfg.seed = 3;
  exp::testbed d(exp::dumbbell(cfg));
  d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  d.run_until(sim::seconds(10.0));

  bool saw_link = false;
  bool saw_sigma = false;
  bool saw_recv = false;
  for (const std::string& name : tb.tracks()) {
    saw_link |= name.rfind("link:", 0) == 0;
    saw_sigma |= name.rfind("sigma:", 0) == 0;
    saw_recv |= name.rfind("recv:", 0) == 0;
  }
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_sigma);
  EXPECT_TRUE(saw_recv);
  EXPECT_GT(tb.size(), 0u);
}

// ---------------------------------------------------------------------------
// sweep integration: rows carry metrics + trace blobs byte-identically
// across --jobs, and the JSON writer emits schema 2.
// ---------------------------------------------------------------------------

exp::sweep_row tiny_world_row(const exp::sweep_point& pt) {
  exp::dumbbell_config cfg;
  cfg.seed = pt.seed;
  exp::testbed d(exp::dumbbell(cfg));
  d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  d.run_until(sim::seconds(5.0));
  exp::sweep_row row;
  row.value("events", static_cast<double>(d.sched().executed_events()));
  row.metrics = d.metrics().snapshot();
  return row;
}

std::vector<exp::sweep_row> tiny_sweep(const exp::sweep_options& opts) {
  return exp::run_sweep({1.0, 2.0, 3.0}, opts, tiny_world_row);
}

std::string sweep_json(const std::vector<exp::sweep_row>& rows) {
  std::ostringstream os;
  exp::write_json(os, "obs_test", rows);
  return os.str();
}

TEST(sweep_obs, rows_with_metrics_and_traces_are_jobs_invariant) {
  exp::sweep_options serial;
  serial.jobs = 1;
  serial.base_seed = 11;
  serial.trace = true;
  exp::sweep_options threaded = serial;
  threaded.jobs = 3;
  const auto a = tiny_sweep(serial);
  const auto b = tiny_sweep(threaded);
  EXPECT_EQ(sweep_json(a), sweep_json(b));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_blob, b[i].trace_blob) << "row " << i;
  }
}

// The sweep runner owns --trace: with sweep_options::trace on, every point's
// world is built inside a trace scope and its row carries the serialized
// buffer — exactly what a trace_scope installed by the point function itself
// records. Off, rows carry no blob and the JSON is unchanged.
TEST(sweep_obs, run_sweep_records_each_points_trace_when_asked) {
  exp::sweep_options opts;
  opts.base_seed = 11;
  const auto untraced = tiny_sweep(opts);
  opts.trace = true;
  const auto traced = tiny_sweep(opts);
  ASSERT_EQ(traced.size(), 3u);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_TRUE(untraced[i].trace_blob.empty()) << "row " << i;
    exp::sweep_point pt;
    pt.index = i;
    pt.seed = exp::point_seed(opts.base_seed, i);
    obs::trace_buffer tb;
    {
      obs::trace_scope scope(&tb);
      (void)tiny_world_row(pt);
    }
    ASSERT_FALSE(tb.empty());
    EXPECT_EQ(traced[i].trace_blob, tb.serialize()) << "row " << i;
  }
  EXPECT_EQ(sweep_json(untraced), sweep_json(traced))
      << "tracing must not perturb the rows";
}

TEST(sweep_obs, json_document_carries_schema_version_2_and_metrics) {
  exp::sweep_options opts;
  opts.base_seed = 11;
  const std::string json = sweep_json(tiny_sweep(opts));
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"sched.executed_events\""), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos)
      << "no profile block unless one is passed";
  EXPECT_EQ(json.find("trace_blob"), std::string::npos)
      << "binary trace blobs must never leak into the JSON document";
}

TEST(sweep_obs, metric_of_looks_up_flattened_names) {
  exp::sweep_row row;
  row.metrics = {{"a", 1.0}, {"b{k=v}", 2.0}};
  EXPECT_EQ(row.metric_of("a"), 1.0);
  EXPECT_EQ(row.metric_of("b{k=v}"), 2.0);
  EXPECT_TRUE(row.metric_of("missing") != row.metric_of("missing"))
      << "absent metrics read as NaN";
}

TEST(sweep_obs, profile_block_reports_wall_clock_and_event_totals) {
  exp::sweep_options opts;
  opts.base_seed = 11;
  opts.profile = std::make_shared<exp::sweep_profile>();
  const exp::sweep_profile& prof = *opts.profile;
  const std::vector<double> xs = {1.0, 2.0};
  const auto rows = exp::run_sweep(
      xs, opts, tiny_world_row);
  EXPECT_EQ(prof.points, 2u);
  EXPECT_GT(prof.wall_ms, 0.0);
  EXPECT_GT(prof.points_per_sec, 0.0);
  EXPECT_GT(prof.events_executed, 0.0)
      << "rows snapshot sched.executed_events, so the profile must sum it";
  EXPECT_EQ(prof.point_ms.count(), 2u);

  std::ostringstream os;
  exp::write_json(os, "obs_test", rows, &prof);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"profile\": {"), std::string::npos);
  EXPECT_NE(json.find("\"events_executed\""), std::string::npos);
  EXPECT_NE(json.find("\"point_ms\""), std::string::npos);
}

}  // namespace
}  // namespace mcc::obs
