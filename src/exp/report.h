// Output helpers for figure-reproduction benches: gnuplot-style series and
// paper-vs-measured summary rows.
#ifndef MCC_EXP_REPORT_H
#define MCC_EXP_REPORT_H

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mcc::exp {

using series = std::vector<std::pair<double, double>>;

/// Prints "# <title>" followed by "x y" rows.
void print_series(std::ostream& os, const std::string& title, const series& s,
                  double x_min = 0.0, double x_max = 1e18);

/// Prints several series as one table: x, then one column per series (series
/// must share x values; missing values are printed as "-").
void print_columns(std::ostream& os, const std::string& title,
                   const std::vector<std::string>& labels,
                   const std::vector<series>& columns, double x_min = 0.0,
                   double x_max = 1e18);

/// One row of a paper-vs-measured summary.
void print_check(std::ostream& os, const std::string& what,
                 const std::string& paper_says, double measured,
                 const std::string& unit);

// ---------------------------------------------------------------------------
// Cross-session roll-up: per-session throughput columns + Jain fairness
// ---------------------------------------------------------------------------

/// Smooths a raw series with an exponentially weighted moving average whose
/// state starts fresh at the first sample. Every call owns its own smoother:
/// per-session smoothed columns can never leak smoothing state into one
/// another, so a session's column depends only on its own samples — never on
/// the order sessions were registered in (regression-pinned by
/// scenario_test).
[[nodiscard]] series ewma_smooth(const series& raw, double weight = 0.3);

/// Input to roll_up_sessions: one named session with its windowed rate and
/// raw rate series.
struct session_sample {
  std::string name;
  double rate = 0.0;  // session throughput over the measurement window
  series raw;         // (time, rate) trajectory
};

/// One session's column of the roll-up.
struct session_column {
  std::string name;
  double rate = 0.0;
  series smoothed;  // EWMA of the session's own raw series
};

/// The cross-session summary of a multi-session run.
struct session_rollup {
  std::vector<session_column> sessions;  // input order
  double jain = 1.0;      // Jain fairness index across session rates
  double total_rate = 0.0;
};

/// Builds the roll-up: one column per sample (order preserved), each
/// smoothed with an independent smoother, plus Jain fairness over the rates.
[[nodiscard]] session_rollup roll_up_sessions(
    const std::vector<session_sample>& sessions, double smooth_weight = 0.3);

}  // namespace mcc::exp

#endif  // MCC_EXP_REPORT_H
