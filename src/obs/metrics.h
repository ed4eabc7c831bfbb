// Metrics registry: named views with hierarchical labels (node, link,
// interface×group, session), registered once and snapshotted per sweep row
// into BENCH_*.json.
//
// The registry is deliberately pull-based and owns no values: the scattered
// stats (sim::link_stats, sigma_router_agent counters, attacker cost,
// population state bytes) are exposed as *views* — a name plus a
// std::function reading the live struct at snapshot time — so no call site
// loses its current API and the simulation hot path pays nothing.
//
// Snapshots are deterministic: entries come back in registration order, and
// registration order is a pure function of world construction order, so
// `--jobs N` rows match `--jobs 1` byte-for-byte.
//
// Naming scheme (docs/observability.md): dotted subsystem paths with
// Prometheus-style label sets, e.g.
//   link.dropped{from=l,to=r}
//   sigma.valid_keys{router=r}
//   population.state_bytes{session=1,edge=r}
#ifndef MCC_OBS_METRICS_H
#define MCC_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mcc::obs {

/// Ordered label set; order is part of the flattened name.
using label_list = std::vector<std::pair<std::string, std::string>>;

/// Fixed-bound histogram: observations are counted into the first bucket
/// whose upper bound is >= the value; values past the last bound land in the
/// overflow bucket. Its owner reports it (exp::sweep_profile::point_ms).
class histogram {
 public:
  explicit histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Observations in bucket i (<= bounds()[i]); index bounds().size() is the
  /// overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }

 private:
  std::vector<double> bounds_;  // strictly increasing
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One snapshot entry: flattened "name{k=v,...}" plus its value.
using metric_snapshot = std::vector<std::pair<std::string, double>>;

class registry {
 public:
  registry() = default;
  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;

  /// A thin view over existing state: `read` is called at snapshot time.
  /// The caller guarantees whatever `read` captures outlives the registry's
  /// last snapshot (in exp::testbed: the testbed owns both).
  void add_view(std::string name, label_list labels,
                std::function<double()> read);

  /// Every view read and flattened, in registration order.
  [[nodiscard]] metric_snapshot snapshot() const;

  /// Canonical flattened form: `name` alone, or `name{k=v,k=v}`.
  [[nodiscard]] static std::string flatten(const std::string& name,
                                           const label_list& labels);

 private:
  struct entry {
    std::string flat;  // flatten(name, labels), computed at registration
    std::function<double()> view;
  };

  std::vector<entry> entries_;
};

}  // namespace mcc::obs

#endif  // MCC_OBS_METRICS_H
