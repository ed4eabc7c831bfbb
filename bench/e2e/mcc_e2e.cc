// mcc_e2e: runs one benchmark workload and prints its measurements as one
// JSON object on stdout. bench/e2e/run.py drives it (one process per timed
// run) and turns the raw numbers into the benchmark's metrics.
//
//   mcc_e2e --workload farm64 [--seed 21] [--scale 1]
//           [--mode run|setup] [--repeats N] [--trace-out trace.json]
//   mcc_e2e --info true        # compiler and build type, for the host block
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.h"
#include "util/flags.h"

#ifndef MCC_E2E_BUILD_TYPE
#define MCC_E2E_BUILD_TYPE "unknown"
#endif

using namespace mcc;
using namespace mcc::e2e;

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The traced run's spans as Chrome/Perfetto JSON: one thread per world
/// (tid = world + 1) and one for the probes (tid 0).
void write_trace(const std::string& path, const workload_result& res,
                 const std::vector<span>& probe_spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    os << (first ? "" : ",\n") << event;
    first = false;
  };
  const auto thread_name = [&](int tid, const std::string& name) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":" + quoted(name) + "}}");
  };
  const auto spans = [&](const std::vector<span>& list) {
    for (const span& s : list) {
      const std::string parent =
          s.parent < 0 ? "" : list[static_cast<std::size_t>(s.parent)].name;
      emit("{\"name\":" + quoted(s.name) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.world + 1) + ",\"ts\":" + num(s.start_us) +
           ",\"dur\":" + num(s.end_us - s.start_us) +
           ",\"args\":{\"parent\":" + quoted(parent) +
           ",\"world\":" + std::to_string(s.world) + "}}");
    }
  };
  thread_name(0, "probes");
  for (const world_result& w : res.worlds) {
    thread_name(w.id + 1, "world " + std::to_string(w.id));
    spans(w.spans);
  }
  spans(probe_spans);
  os << "\n]}\n";
}

/// Peak resident set of this process image (VmHWM), in KiB; -1 if unknown.
/// Read here rather than from the parent's wait4 ru_maxrss, which also
/// counts the forking parent's resident set from before exec.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = -1;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

const workload* find_workload(const std::string& name) {
  for (const workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags("mcc_e2e: one end-to-end benchmark workload");
  flags.add("workload", "", "fig07_seeds | farm64 | cross_dl | crowd_grid");
  flags.add("seed", "-1", "base seed (-1 = the workload's default)");
  flags.add("scale", "1.0", "fraction of the workload's simulated time");
  flags.add_enum("mode", "run", "run the workload, or time set-up only",
                 {"run", "setup"});
  flags.add("repeats", "1", "setup mode: set-ups to time");
  flags.add("trace-out", "",
            "traced run: record spans (10 s run_until chunks), run the layer "
            "probes, and write the spans here as Chrome/Perfetto JSON");
  flags.add("info", "false", "print compiler and build type, then exit");
  if (!flags.parse(argc, argv)) return 1;

  if (flags.boolean("info")) {
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::cout << "{\"compiler\":" << quoted(__VERSION__)
              << ",\"build_type\":" << quoted(MCC_E2E_BUILD_TYPE)
              << ",\"ndebug\":" << (ndebug ? "true" : "false") << "}\n";
    return 0;
  }
  const workload* w = find_workload(flags.str("workload"));
  if (w == nullptr) {
    std::fprintf(stderr, "bad value for --workload: '%s'\n",
                 flags.str("workload").c_str());
    return 1;
  }
  const double scale = flags.f64("scale");
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::fprintf(stderr, "bad value for --scale: %g (expected (0, 1])\n", scale);
    return 1;
  }
  run_options opt;
  opt.seed = flags.i64("seed") < 0
                 ? w->default_seed
                 : static_cast<std::uint64_t>(flags.i64("seed"));
  opt.scale = scale;
  const std::string trace_out = flags.str("trace-out");
  opt.traced = !trace_out.empty();

  std::ostringstream os;
  os << "{\"workload\":" << quoted(w->name) << ",\"seed\":" << opt.seed
     << ",\"scale\":" << num(scale) << ",\"mode\":" << quoted(flags.str("mode"));

  if (flags.str("mode") == "setup") {
    opt.setup_only = true;
    os << ",\"setup_s\":[";
    for (std::int64_t i = 0; i < std::max<std::int64_t>(1, flags.i64("repeats"));
         ++i) {
      double ms = 0.0;
      for (const world_result& r : w->run(opt).worlds) {
        ms += r.build_ms + r.finalize_ms;
      }
      os << (i == 0 ? "" : ",") << num(ms / 1e3);
    }
    std::cout << os.str() << "]}\n";
    return 0;
  }

  const workload_result res = w->run(opt);
  world_result sum;
  std::vector<double> world_ms;
  for (const world_result& r : res.worlds) {
    sum.build_ms += r.build_ms;
    sum.finalize_ms += r.finalize_ms;
    sum.run_ms += r.run_ms;
    sum.run_pre_ms += r.run_pre_ms;
    sum.sim_pre_s += r.sim_pre_s;
    sum.sim_post_s += r.sim_post_s;
    sum.report_ms += r.report_ms;
    sum.snapshot_ms += r.snapshot_ms;
    for (const auto& [k, v] : r.counts) {
      sum.counts[k] = k == "population.state_bytes" ? std::max(sum.counts[k], v)
                                                    : sum.counts[k] + v;
    }
    sum.peak_pending = std::max(sum.peak_pending, r.peak_pending);
    sum.slots_high_water = std::max(sum.slots_high_water, r.slots_high_water);
    sum.max_fanout = std::max(sum.max_fanout, r.max_fanout);
    sum.level_sum += r.level_sum;
    sum.level_samples += r.level_samples;
    sum.attempted += r.attempted;
    sum.failed += r.failed;
    for (const std::string& f : r.failures) {
      if (sum.failures.size() < 10) {
        sum.failures.push_back("world " + std::to_string(r.id) + ": " + f);
      }
    }
    world_ms.push_back(r.world_ms());
  }

  os << ",\"traced\":" << (opt.traced ? "true" : "false")
     << ",\"threads\":" << res.threads << ",\"worlds\":" << res.worlds.size()
     << ",\"wall_s\":" << num(res.wall_s)
     << ",\"setup_s\":" << num((sum.build_ms + sum.finalize_ms) / 1e3)
     << ",\"run_s\":" << num(sum.run_ms / 1e3)
     << ",\"run_pre_s\":" << num(sum.run_pre_ms / 1e3)
     << ",\"sim_pre_s\":" << num(sum.sim_pre_s)
     << ",\"sim_post_s\":" << num(sum.sim_post_s)
     << ",\"build_ms\":" << num(sum.build_ms)
     << ",\"finalize_ms\":" << num(sum.finalize_ms)
     << ",\"report_ms\":" << num(sum.report_ms)
     << ",\"snapshot_ms\":" << num(sum.snapshot_ms) << ",\"world_ms\":[";
  for (std::size_t i = 0; i < world_ms.size(); ++i) {
    os << (i == 0 ? "" : ",") << num(world_ms[i]);
  }
  os << "],\"digest\":" << quoted(hex(workload_digest(res)))
     << ",\"attempted\":" << sum.attempted << ",\"failed\":" << sum.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < sum.failures.size(); ++i) {
    os << (i == 0 ? "" : ",") << quoted(sum.failures[i]);
  }
  const double mean_level =
      sum.level_samples > 0 ? sum.level_sum / sum.level_samples : 1.0;
  os << "],\"peak_pending\":" << num(sum.peak_pending)
     << ",\"slots_high_water\":" << num(sum.slots_high_water)
     << ",\"max_fanout\":" << sum.max_fanout
     << ",\"mean_level\":" << num(mean_level) << ",\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : sum.counts) {
    os << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  os << "}";

  if (opt.traced) {
    span_log probe_log(true, -1);
    probe_params p;
    p.peak_pending = sum.peak_pending;
    p.max_fanout = sum.max_fanout;
    p.mean_level = static_cast<int>(mean_level + 0.5);
    p.cm_sessions = static_cast<int>(sum.counts["cm.registered_sessions"]);
    os << ",\"probes\":{";
    first = true;
    for (const auto& [k, v] : run_probes(*w, p, probe_log)) {
      os << (first ? "" : ",") << quoted(k) << ":" << num(v);
      first = false;
    }
    os << "}";
    write_trace(trace_out, res, probe_log.spans());
  }
  std::cout << os.str() << ",\"peak_rss_kb\":" << peak_rss_kb() << "}\n";
  return 0;
}
