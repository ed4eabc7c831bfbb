#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <ostream>
#include <thread>

#include "crypto/prng.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/require.h"

namespace mcc::exp {

std::uint64_t point_seed(std::uint64_t base_seed, std::size_t index) {
  // Two splitmix64 steps over a mix of base and index: adjacent indices give
  // uncorrelated streams, and the result depends on nothing else.
  std::uint64_t state =
      base_seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
  (void)crypto::splitmix64(state);
  return crypto::splitmix64(state);
}

void add_sweep_flags(util::flag_set& flags) {
  flags.add("jobs", "1", "worker threads for the parameter grid");
  flags.add("json", "", "also write machine-readable results to this file");
  flags.add("trace", "",
            "write the deterministic event trace to this file (convert with "
            "tools/trace2perfetto.py)");
  flags.add("profile", "false",
            "add a wall-clock self-profiling block to the --json document");
  flags.add("log-level", "",
            "log threshold: debug|info|warn|error|off (default: MCC_LOG_LEVEL "
            "env, else warn)");
}

sweep_options sweep_options_from_flags(const util::flag_set& flags,
                                       std::uint64_t base_seed) {
  // Env fallback first, then the flag on top — an explicit --log-level wins.
  if (const auto bad_env = util::apply_log_level_env()) {
    std::fprintf(stderr, "bad MCC_LOG_LEVEL value '%s' (expected one of "
                 "debug, info, warn, error, off)\n", bad_env->c_str());
    std::exit(1);
  }
  const std::string level_name = flags.str("log-level");
  if (!level_name.empty()) {
    if (const auto level = util::log_level_from_name(level_name)) {
      util::set_log_level(*level);
    } else {
      std::fprintf(stderr, "bad value for --log-level: '%s' (expected one of "
                   "debug, info, warn, error, off)\n", level_name.c_str());
      std::exit(1);
    }
  }
  sweep_options opts;
  opts.jobs = static_cast<int>(flags.i64("jobs"));
  opts.base_seed = base_seed;
  opts.trace = !flags.str("trace").empty();
  if (flags.boolean("profile")) opts.profile = std::make_shared<sweep_profile>();
  return opts;
}

double sweep_row::value_of(const std::string& name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const series* sweep_row::trace_of(const std::string& name) const {
  for (const auto& [n, s] : traces) {
    if (n == name) return &s;
  }
  return nullptr;
}

double sweep_row::metric_of(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

series column(const std::vector<sweep_row>& rows, const std::string& name) {
  series out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.emplace_back(row.x, row.value_of(name));
  return out;
}

std::vector<sweep_row> run_sweep(
    const std::vector<double>& xs, const sweep_options& opts,
    const std::function<sweep_row(const sweep_point&)>& fn) {
  sweep_profile* const profile = opts.profile.get();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sweep_row> rows(xs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex profile_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      // Stop claiming points once any point has failed: grid points can take
      // minutes each, and the first error decides the run's fate anyway.
      if (i >= xs.size() || failed.load(std::memory_order_relaxed)) return;
      sweep_point pt;
      pt.index = i;
      pt.x = xs[i];
      pt.seed = point_seed(opts.base_seed, i);
      try {
        const auto start = std::chrono::steady_clock::now();
        // The sink is installed before fn builds its world: engine
        // components latch the point's trace buffer at construction.
        obs::trace_buffer tb;
        sweep_row row;
        {
          const obs::trace_scope scope(opts.trace ? &tb : nullptr);
          row = fn(pt);
        }
        if (opts.trace) row.trace_blob = tb.serialize();
        if (profile != nullptr) {
          const std::chrono::duration<double, std::milli> ms =
              std::chrono::steady_clock::now() - start;
          const std::lock_guard<std::mutex> lock(profile_mutex);
          profile->point_ms.observe(ms.count());
        }
        if (std::isnan(row.x)) row.x = pt.x;
        rows[i] = std::move(row);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const int jobs = std::min<int>(
      std::max(1, opts.jobs),
      static_cast<int>(std::max<std::size_t>(xs.size(), 1)));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (profile != nullptr) {
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    profile->wall_ms = wall.count();
    profile->points = xs.size();
    const double wall_s = profile->wall_ms / 1e3;
    profile->points_per_sec =
        wall_s > 0.0 ? static_cast<double>(profile->points) / wall_s : 0.0;
    profile->events_executed = 0.0;
    for (const sweep_row& row : rows) {
      const double events = row.metric_of("sched.executed_events");
      if (std::isfinite(events)) profile->events_executed += events;
    }
    profile->events_per_sec =
        wall_s > 0.0 ? profile->events_executed / wall_s : 0.0;
  }
  return rows;
}

namespace {

void json_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  } else {
    os << "null";  // JSON has no NaN/Inf
  }
}

}  // namespace

void write_json(std::ostream& os, const std::string& bench,
                const std::vector<sweep_row>& rows,
                const sweep_profile* profile) {
  os << "{\n  \"bench\": ";
  json_escaped(os, bench);
  // Explicit schema version so tools/bench_aggregate.py dispatches on it
  // instead of sniffing keys. Version 2 = per-row "metrics" objects and the
  // optional document "profile" block.
  os << ",\n  \"schema_version\": 2";
  os << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sweep_row& row = rows[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"x\": ";
    json_number(os, row.x);
    if (!row.label.empty()) {
      os << ", \"label\": ";
      json_escaped(os, row.label);
    }
    os << ", \"values\": {";
    for (std::size_t v = 0; v < row.values.size(); ++v) {
      if (v > 0) os << ", ";
      json_escaped(os, row.values[v].first);
      os << ": ";
      json_number(os, row.values[v].second);
    }
    os << "}";
    if (!row.metrics.empty()) {
      os << ", \"metrics\": {";
      for (std::size_t m = 0; m < row.metrics.size(); ++m) {
        if (m > 0) os << ", ";
        json_escaped(os, row.metrics[m].first);
        os << ": ";
        json_number(os, row.metrics[m].second);
      }
      os << "}";
    }
    os << ", \"traces\": {";
    for (std::size_t t = 0; t < row.traces.size(); ++t) {
      if (t > 0) os << ", ";
      json_escaped(os, row.traces[t].first);
      os << ": [";
      const series& s = row.traces[t].second;
      for (std::size_t p = 0; p < s.size(); ++p) {
        if (p > 0) os << ", ";
        os << '[';
        json_number(os, s[p].first);
        os << ", ";
        json_number(os, s[p].second);
        os << ']';
      }
      os << ']';
    }
    os << "}}";
  }
  os << "\n  ]";
  if (profile != nullptr) {
    os << ",\n  \"profile\": {";
    os << "\"wall_ms\": ";
    json_number(os, profile->wall_ms);
    os << ", \"points\": " << profile->points;
    os << ", \"points_per_sec\": ";
    json_number(os, profile->points_per_sec);
    os << ", \"events_executed\": ";
    json_number(os, profile->events_executed);
    os << ", \"events_per_sec\": ";
    json_number(os, profile->events_per_sec);
    os << ", \"point_ms\": {\"count\": " << profile->point_ms.count();
    os << ", \"sum\": ";
    json_number(os, profile->point_ms.sum());
    os << ", \"buckets\": [";
    const auto& bounds = profile->point_ms.bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) os << ", ";
      os << profile->point_ms.bucket(i);
    }
    os << "]}}";
  }
  os << "\n}\n";
}

void maybe_write_json(const util::flag_set& flags, const std::string& bench,
                      const std::vector<sweep_row>& rows,
                      const sweep_options& opts) {
  const std::string path = flags.str("json");
  if (path.empty()) return;
  std::ofstream out(path);
  util::require(out.good(), "sweep: cannot open --json file", path);
  write_json(out, bench, rows, opts.profile.get());
  out.flush();
  util::require(out.good(), "sweep: write to --json file failed", path);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

void maybe_write_trace(const util::flag_set& flags,
                       const std::vector<sweep_row>& rows) {
  const std::string path = flags.str("trace");
  if (path.empty()) return;
  // Container layout (docs/observability.md): "MCCT" magic, u32 version,
  // u32 segment count, then per traced row: u32 row index + u64 blob size +
  // the row's serialized trace_buffer segment. Rows are visited in grid
  // order, so the file is byte-identical across --jobs settings.
  std::ofstream out(path, std::ios::binary);
  util::require(out.good(), "sweep: cannot open --trace file", path);
  std::uint32_t segments = 0;
  for (const sweep_row& row : rows) {
    if (!row.trace_blob.empty()) ++segments;
  }
  const auto put_u32 = [&out](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  out.write("MCCT", 4);
  put_u32(1);  // container version
  put_u32(segments);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sweep_row& row = rows[i];
    if (row.trace_blob.empty()) continue;
    put_u32(static_cast<std::uint32_t>(i));
    const std::uint64_t size = row.trace_blob.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof size);
    out.write(row.trace_blob.data(),
              static_cast<std::streamsize>(row.trace_blob.size()));
  }
  out.flush();
  util::require(out.good(), "sweep: write to --trace file failed", path);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace mcc::exp
