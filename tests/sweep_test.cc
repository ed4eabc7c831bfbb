#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "crypto/prng.h"
#include "util/require.h"

namespace mcc::exp {
namespace {

std::vector<double> grid(int n) {
  std::vector<double> xs;
  for (int i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
  return xs;
}

/// A deterministic stand-in for a simulation run: consumes the point's PRNG
/// stream and reports values that depend on (x, seed) only.
sweep_row fake_experiment(const sweep_point& pt) {
  crypto::prng rng(pt.seed);
  sweep_row row;
  row.value("mean", pt.x * 10.0 + rng.uniform());
  series s;
  for (int t = 0; t < 5; ++t) {
    s.emplace_back(t, rng.uniform(0.0, pt.x));
  }
  row.trace("trajectory", std::move(s));
  return row;
}

TEST(sweep, point_seed_is_deterministic_and_spread) {
  EXPECT_EQ(point_seed(42, 0), point_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) seen.insert(point_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across a realistic grid
  EXPECT_NE(point_seed(1, 0), point_seed(2, 0));
}

TEST(sweep, rows_come_back_in_grid_order) {
  sweep_options opts;
  opts.jobs = 1;
  const auto rows = run_sweep(grid(7), opts, [](const sweep_point& pt) {
    sweep_row row;
    row.value("index", static_cast<double>(pt.index));
    return row;
  });
  ASSERT_EQ(rows.size(), 7u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].x, static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(rows[i].value_of("index"), static_cast<double>(i));
  }
}

TEST(sweep, parallel_is_bit_identical_to_serial) {
  sweep_options serial;
  serial.jobs = 1;
  serial.base_seed = 99;
  sweep_options parallel = serial;
  parallel.jobs = 4;

  const auto a = run_sweep(grid(9), serial, fake_experiment);
  const auto b = run_sweep(grid(9), parallel, fake_experiment);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].value_of("mean"), b[i].value_of("mean"));
    const series* sa = a[i].trace_of("trajectory");
    const series* sb = b[i].trace_of("trajectory");
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(*sa, *sb);
  }
}

TEST(sweep, workers_actually_run_concurrently_when_asked) {
  sweep_options opts;
  opts.jobs = 3;
  std::atomic<int> started{0};
  const auto rows = run_sweep(grid(3), opts, [&](const sweep_point& pt) {
    started.fetch_add(1);
    // Wait (briefly) for all three points to be in flight at once; on a
    // loaded machine this times out harmlessly and the test still passes.
    for (int spin = 0; spin < 1000 && started.load() < 3; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    sweep_row row;
    row.value("x", pt.x);
    return row;
  });
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(started.load(), 3);
}

TEST(sweep, point_exception_propagates_to_caller) {
  sweep_options opts;
  opts.jobs = 2;
  EXPECT_THROW(run_sweep(grid(4), opts,
                         [](const sweep_point& pt) -> sweep_row {
                           if (pt.index == 2) {
                             util::require(false, "boom");
                           }
                           return {};
                         }),
               util::invariant_error);
}

TEST(sweep, column_extracts_named_values) {
  std::vector<sweep_row> rows(2);
  rows[0].x = 1.0;
  rows[0].value("kbps", 100.0);
  rows[1].x = 2.0;
  rows[1].value("kbps", 200.0);
  const series s = column(rows, "kbps");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].first, 1.0);
  EXPECT_DOUBLE_EQ(s[0].second, 100.0);
  EXPECT_DOUBLE_EQ(s[1].second, 200.0);
}

TEST(sweep, explicit_zero_x_is_preserved) {
  sweep_options opts;
  const auto rows = run_sweep({5.0}, opts, [](const sweep_point&) {
    sweep_row row;
    row.x = 0.0;  // remapped display coordinate; must not be overwritten
    return row;
  });
  EXPECT_DOUBLE_EQ(rows[0].x, 0.0);
}

TEST(sweep, value_of_missing_is_nan) {
  const sweep_row row;
  EXPECT_TRUE(std::isnan(row.value_of("absent")));
  EXPECT_EQ(row.trace_of("absent"), nullptr);
}

TEST(sweep, json_document_shape) {
  std::vector<sweep_row> rows(1);
  rows[0].x = 4.0;
  rows[0].label = "point \"four\"";
  rows[0].value("kbps", 250.5);
  rows[0].trace("traj", series{{0.0, 1.0}, {1.0, 2.5}});
  std::ostringstream os;
  write_json(os, "unit", rows);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"x\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"point \\\"four\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"kbps\": 250.5"), std::string::npos);
  EXPECT_NE(doc.find("[[0, 1], [1, 2.5]]"), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
}

TEST(sweep, flags_register_and_read_back) {
  util::flag_set flags("test");
  flags.add("seed", "7", "seed");
  add_sweep_flags(flags);
  const char* argv[] = {"prog", "--jobs=4", "--json=out.json"};
  ASSERT_TRUE(flags.parse(3, argv));
  const sweep_options opts =
      sweep_options_from_flags(flags, static_cast<std::uint64_t>(flags.i64("seed")));
  EXPECT_EQ(opts.jobs, 4);
  EXPECT_EQ(opts.base_seed, 7u);
  EXPECT_EQ(flags.str("json"), "out.json");
  EXPECT_FALSE(opts.trace) << "tracing is off unless --trace names a file";
  EXPECT_EQ(opts.profile, nullptr) << "profiling is off by default";
}

TEST(sweep, trace_and_profile_flags_switch_the_runner_on) {
  util::flag_set flags("test");
  add_sweep_flags(flags);
  const char* argv[] = {"prog", "--trace=out.trace", "--profile=true"};
  ASSERT_TRUE(flags.parse(3, argv));
  const sweep_options opts = sweep_options_from_flags(flags, 1);
  EXPECT_TRUE(opts.trace);
  ASSERT_NE(opts.profile, nullptr);

  const auto rows = run_sweep(grid(3), opts, [](const sweep_point&) {
    return sweep_row{};
  });
  EXPECT_EQ(opts.profile->points, 3u);
  EXPECT_EQ(opts.profile->point_ms.count(), 3u);
  for (const sweep_row& row : rows) {
    EXPECT_FALSE(row.trace_blob.empty())
        << "every traced point carries a segment, even an empty one";
  }
}

}  // namespace
}  // namespace mcc::exp
