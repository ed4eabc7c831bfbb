#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
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
  add_sweep_flags(flags, 7);
  const char* argv[] = {"prog", "--jobs=4", "--json=out.json"};
  ASSERT_TRUE(flags.parse(3, argv));
  const sweep_options opts = sweep_options_from_flags(flags);
  EXPECT_EQ(opts.jobs, 4);
  EXPECT_EQ(opts.base_seed, 7u) << "the declared default seed";
  EXPECT_EQ(flags.str("json"), "out.json");
  EXPECT_FALSE(opts.trace) << "tracing is off unless --trace names a file";
  EXPECT_EQ(opts.profile, nullptr) << "profiling is off by default";

  util::flag_set seeded("test");
  add_sweep_flags(seeded, 7);
  const char* seed_argv[] = {"prog", "--seed=1e3"};
  ASSERT_TRUE(seeded.parse(2, seed_argv));
  EXPECT_EQ(sweep_options_from_flags(seeded).base_seed, 1000u);
}

TEST(sweep, seedless_benches_declare_no_seed_and_run_with_base_seed_zero) {
  util::flag_set flags("test");
  add_sweep_flags(flags, std::nullopt);
  EXPECT_FALSE(flags.has("seed"));
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(sweep_options_from_flags(flags).base_seed, 0u);
}

TEST(sweep, malformed_sweep_flag_values_fail_the_parse) {
  for (const char* bad : {"--seed=2.5", "--jobs=two", "--jobs=0"}) {
    util::flag_set flags("test");
    add_sweep_flags(flags, 7);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, argv)) << bad;
  }
}

TEST(sweep, write_outputs_writes_json_and_trace_only_when_named) {
  const std::string json = ::testing::TempDir() + "sweep_test_out.json";
  const std::string trace = ::testing::TempDir() + "sweep_test_out.trace";
  std::remove(json.c_str());
  std::remove(trace.c_str());
  std::vector<sweep_row> rows(2);
  rows[1].trace_blob = "blob";

  util::flag_set quiet("test");
  add_sweep_flags(quiet, 7);
  const char* none[] = {"prog"};
  ASSERT_TRUE(quiet.parse(1, none));
  write_outputs(quiet, "unit", rows, sweep_options_from_flags(quiet));
  EXPECT_FALSE(std::ifstream(json).good());
  EXPECT_FALSE(std::ifstream(trace).good());

  util::flag_set flags("test");
  add_sweep_flags(flags, 7);
  const std::string json_arg = "--json=" + json;
  const std::string trace_arg = "--trace=" + trace;
  const char* argv[] = {"prog", json_arg.c_str(), trace_arg.c_str()};
  ASSERT_TRUE(flags.parse(3, argv));
  write_outputs(flags, "unit", rows, sweep_options_from_flags(flags));
  std::ifstream json_in(json);
  const std::string doc((std::istreambuf_iterator<char>(json_in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
  std::ifstream trace_in(trace, std::ios::binary);
  char magic[4] = {};
  trace_in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "MCCT");
  std::remove(json.c_str());
  std::remove(trace.c_str());
}

TEST(sweep, trace_and_profile_flags_switch_the_runner_on) {
  util::flag_set flags("test");
  add_sweep_flags(flags, 1);
  const char* argv[] = {"prog", "--trace=out.trace", "--profile=true"};
  ASSERT_TRUE(flags.parse(3, argv));
  const sweep_options opts = sweep_options_from_flags(flags);
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
