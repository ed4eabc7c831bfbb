#include "obs/metrics.h"

#include "util/require.h"

namespace mcc::obs {

histogram::histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  util::require(!bounds_.empty(), "histogram: needs at least one bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    util::require(bounds_[i - 1] < bounds_[i],
                  "histogram: bounds must be strictly increasing");
  }
  buckets_.assign(bounds_.size() + 1, 0);  // + overflow
}

void histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

void registry::add_view(std::string name, label_list labels,
                        std::function<double()> read) {
  util::require(static_cast<bool>(read), "registry: view needs a reader");
  entries_.push_back(entry{flatten(name, labels), std::move(read)});
}

std::string registry::flatten(const std::string& name,
                              const label_list& labels) {
  if (labels.empty()) return name;
  std::string flat = name;
  flat += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) flat += ',';
    flat += labels[i].first;
    flat += '=';
    flat += labels[i].second;
  }
  flat += '}';
  return flat;
}

metric_snapshot registry::snapshot() const {
  metric_snapshot out;
  out.reserve(entries_.size());
  for (const entry& e : entries_) out.emplace_back(e.flat, e.view());
  return out;
}

}  // namespace mcc::obs
