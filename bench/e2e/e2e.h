// End-to-end benchmark program mcc_e2e (bench/e2e): shared declarations.
//
// mcc_e2e times only calls into the simulator's public API — testbed
// construction and attach calls, run_until, the report helpers, the metrics
// snapshot — and never instruments the engine itself. Layer costs come from
// probes: timed calls into each layer's public functions with the parameters
// the real run measured (see probes.cc and README.md).
#ifndef MCC_BENCH_E2E_E2E_H
#define MCC_BENCH_E2E_E2E_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/aqm.h"

namespace mcc::e2e {

/// Microseconds on the steady clock since the program started.
[[nodiscard]] double now_us();

/// One traced interval. Kept in memory and written at exit as
/// Chrome/Perfetto JSON by the traced run.
struct span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the same log's spans; -1 = top level
  int world = 0;    // world id; -1 = the probe phase
};

/// Span recorder for one world (one thread). A disabled log records nothing,
/// so untraced runs pay one branch per boundary.
class span_log {
 public:
  span_log(bool on, int world) : on_(on), world_(world) {}
  int open(std::string name, int parent = -1);
  void close(int id);
  [[nodiscard]] std::vector<span>& spans() { return spans_; }

 private:
  bool on_;
  int world_;
  std::vector<span> spans_;
};

struct run_options {
  std::uint64_t seed = 1;
  /// Fraction of every simulated time in the workload (horizon, attack
  /// onset, flash crowd); 1 = the full workload, 0.1 = the smoke test.
  double scale = 1.0;
  bool traced = false;
  /// Stop each world after routing is finalized (set-up time only).
  bool setup_only = false;
};

/// Everything measured in one world.
struct world_result {
  int id = 0;
  double build_ms = 0.0;     // testbed construction + attach calls
  double finalize_ms = 0.0;  // first run_until, up to the first event
  double run_ms = 0.0;       // run_until after finalize
  double run_pre_ms = 0.0;   // ... before the workload's split time
  double sim_pre_s = 0.0;    // simulated seconds before the split
  double sim_post_s = 0.0;   // simulated seconds after it
  double report_ms = 0.0;    // rollups and monitor averages
  double snapshot_ms = 0.0;  // metrics().snapshot()
  std::uint64_t digest = 0;  // FNV-1a of the snapshot + executed events
  /// Layer counts, summed over the world's components (population.state_bytes
  /// is a maximum).
  std::map<std::string, double> counts;
  double peak_pending = 0.0;
  double slots_high_water = 0.0;
  int max_fanout = 0;        // largest oif set seen at a run boundary
  double level_sum = 0.0;    // SIGMA receiver levels at run boundaries
  int level_samples = 0;
  std::int64_t attempted = 0;  // invariant checks evaluated
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few failed checks
  std::vector<span> spans;

  [[nodiscard]] double world_ms() const {
    return build_ms + finalize_ms + run_ms + report_ms + snapshot_ms;
  }
};

struct workload_result {
  std::vector<world_result> worlds;  // world-id order
  double wall_s = 0.0;               // wall clock over all worlds
  int threads = 1;
};

struct workload {
  std::string name;
  std::uint64_t default_seed = 1;
  /// Bottleneck disciplines and rate the link probe replays.
  std::vector<sim::qdisc> qdiscs;
  double bottleneck_bps = 1e6;
  std::function<workload_result(const run_options&)> run;
};

[[nodiscard]] const std::vector<workload>& workloads();

/// FNV-1a over the worlds' digests in world order: one number that moves if
/// any simulated statistic of any world does.
[[nodiscard]] std::uint64_t workload_digest(const workload_result& res);

/// Parameters the probes take from the measured run.
struct probe_params {
  double peak_pending = 1.0;
  int max_fanout = 1;
  int mean_level = 1;
  int cm_sessions = 2;
};

/// Runs every layer probe; returns name -> cost (ns per unit). Each probe's
/// span lands in `log`.
[[nodiscard]] std::map<std::string, double> run_probes(const workload& w,
                                                       const probe_params& p,
                                                       span_log& log);

}  // namespace mcc::e2e

#endif  // MCC_BENCH_E2E_E2E_H
