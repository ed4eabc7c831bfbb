// Parameter-grid sweep runner: the execution engine behind every figure and
// ablation bench.
//
// A sweep declares its grid as a list of x coordinates (session counts, slot
// durations, protocol modes, ...) and a point function that builds a fully
// isolated simulation world — its own scheduler, network, and PRNG streams —
// and returns a typed result row. Points run on `--jobs` worker threads;
// every point's seed is derived only from (base_seed, point index), and rows
// come back in grid order, so `--jobs N` output is bit-identical to
// `--jobs 1` (and to any interleaving the OS picks).
//
// Rows carry named scalars (table columns) and named series (trajectories);
// the same rows print as the existing gnuplot tables via exp::report and
// serialize as machine-readable BENCH_*.json documents via `--json`.
#ifndef MCC_EXP_SWEEP_H
#define MCC_EXP_SWEEP_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace mcc::exp {

/// One grid point of a parameter sweep.
struct sweep_point {
  std::size_t index = 0;   // position in the declared grid
  double x = 0.0;          // the point's grid coordinate
  std::uint64_t seed = 0;  // derived from (base_seed, index); jobs-invariant
};

/// Deterministic per-point seed: a splitmix64 mix of the base seed and the
/// point index. Depends on nothing else, so parallel and serial runs agree.
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base_seed,
                                       std::size_t index);

/// Wall-clock self-profiling of one sweep run (the "engine events/sec per
/// phase" side of observability). Everything here is measured from the host
/// clock, so it is nondeterministic by design and only ever emitted under
/// --profile — the default BENCH output stays byte-identical run to run.
struct sweep_profile {
  double wall_ms = 0.0;          // whole-grid wall clock
  std::size_t points = 0;        // grid points run
  double points_per_sec = 0.0;   // points / wall seconds
  /// Sum of the rows' "sched.executed_events" metric (0 when no row
  /// snapshots it) and the derived whole-run event throughput.
  double events_executed = 0.0;
  double events_per_sec = 0.0;
  /// Per-point wall time, milliseconds.
  obs::histogram point_ms{
      {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0}};
};

struct sweep_options {
  int jobs = 1;  // worker threads (values < 1 behave like 1)
  std::uint64_t base_seed = 1;
  /// --trace: run_sweep runs each point inside an obs::trace_scope (so the
  /// world the point builds latches the sink) and stores the serialized
  /// buffer in sweep_row::trace_blob.
  bool trace = false;
  /// --profile: run_sweep fills this with the run's wall-clock
  /// self-profiling; null = profiling off.
  std::shared_ptr<sweep_profile> profile;
};

/// Registers the sweep-standard flags on a bench's flag set:
///   --jobs N        worker threads for the parameter grid
///   --json PATH     also write machine-readable results to PATH
///   --trace PATH    write the deterministic event trace to PATH
///                   (convert with tools/trace2perfetto.py)
///   --profile BOOL  add a wall-clock self-profiling block to --json (off by
///                   default: wall clock is environment noise, and CI cmp's
///                   BENCH files byte-for-byte)
///   --log-level L   debug|info|warn|error|off; empty (the default) falls
///                   back to MCC_LOG_LEVEL, else keeps "warn"
void add_sweep_flags(util::flag_set& flags);

/// Reads the standard flags back (--jobs, --trace, --profile); `base_seed` is
/// the bench's own seed flag. Also applies --log-level (flag wins over the
/// MCC_LOG_LEVEL env fallback) to util::set_log_level; a bad level name
/// prints a friendly message and exits(1), like any other bad flag value
/// (bench-main glue).
[[nodiscard]] sweep_options sweep_options_from_flags(
    const util::flag_set& flags, std::uint64_t base_seed);

/// One grid point's reported results: named scalar values plus named series.
struct sweep_row {
  /// Report coordinate. Left NaN (the default), run_sweep fills in the
  /// point's grid coordinate; set explicitly (any finite value, including
  /// 0.0) to remap encoded grid coordinates to display values.
  double x = std::numeric_limits<double>::quiet_NaN();
  std::string label;  // optional human-readable point name
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, series>> traces;
  /// Engine-metrics snapshot of the point's world (obs::registry::snapshot),
  /// serialized as the row's "metrics" object under schema_version 2.
  /// Deterministic — identical across --jobs.
  obs::metric_snapshot metrics;
  /// Serialized obs::trace_buffer segment ("" = tracing off; run_sweep fills
  /// it under sweep_options::trace), merged in row order by
  /// maybe_write_trace, so the trace file is jobs-invariant too.
  std::string trace_blob;

  sweep_row& value(std::string name, double v) {
    values.emplace_back(std::move(name), v);
    return *this;
  }
  sweep_row& trace(std::string name, series s) {
    traces.emplace_back(std::move(name), std::move(s));
    return *this;
  }
  /// Scalar lookup; NaN when the row has no value of that name.
  [[nodiscard]] double value_of(const std::string& name) const;
  /// Series lookup; nullptr when absent.
  [[nodiscard]] const series* trace_of(const std::string& name) const;
  /// Metric lookup by flattened name; NaN when absent.
  [[nodiscard]] double metric_of(const std::string& name) const;
};

/// Extracts the (x, named value) series across rows, for print_columns.
[[nodiscard]] series column(const std::vector<sweep_row>& rows,
                            const std::string& name);

/// Runs `fn` once per grid point on opts.jobs worker threads. Results return
/// in grid order; a row whose x was left unset inherits the point's x. The
/// first exception thrown by any point is rethrown after the workers join;
/// points not yet started when a point fails are abandoned. opts.trace
/// records each point's event trace into its row; a non-null opts.profile
/// collects wall-clock self-profiling for the run. Neither changes what `fn`
/// computes — determinism contracts hold with or without them.
std::vector<sweep_row> run_sweep(
    const std::vector<double>& xs, const sweep_options& opts,
    const std::function<sweep_row(const sweep_point&)>& fn);

/// Writes rows as a machine-readable JSON document ("BENCH_<name>.json"),
/// schema_version 2: per-row "metrics" objects plus an optional document
/// "profile" block (see docs/observability.md).
void write_json(std::ostream& os, const std::string& bench,
                const std::vector<sweep_row>& rows,
                const sweep_profile* profile = nullptr);

/// Honors a bench's --json flag: empty value = no-op, otherwise writes the
/// JSON document to the named file (stderr note on success, throws on I/O
/// failure), with the "profile" block when the run that produced `rows`
/// profiled (opts.profile).
void maybe_write_json(const util::flag_set& flags, const std::string& bench,
                      const std::vector<sweep_row>& rows,
                      const sweep_options& opts);

/// Honors a bench's --trace flag: empty value = no-op, otherwise writes the
/// rows' trace blobs to the named file in row order ("MCCT" container; see
/// docs/observability.md), byte-identical across --jobs. Rows without a blob
/// are skipped.
void maybe_write_trace(const util::flag_set& flags,
                       const std::vector<sweep_row>& rows);

}  // namespace mcc::exp

#endif  // MCC_EXP_SWEEP_H
