// Per-launch counter aggregation with percentile rollups.
//
// A CounterRegistry is a gpusim::StatsSink: attach it to a Device (the GPU
// pipeline does this automatically when a global registry is installed, see
// telemetry.hpp) and every kernel launch contributes one sample per metric
// from gpusim::visit_metrics. Rollups report count/mean/min/max and the
// p50/p90/p99 percentiles across launches; per-frame views divide extensive
// (work-proportional) metrics by the frame count and leave intensive ones
// (resources, efficiencies) as launch means. A registry is thread-safe:
// device pumps record launches while a /metrics scrape reads rollups, so
// every method takes its mutex, and accessors hand out copies.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mog/gpusim/stats.hpp"
#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

struct Rollup {
  std::size_t count = 0;
  double total = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

/// Percentile with linear interpolation between order statistics
/// (`p` in [0, 100]; matches numpy's default "linear" method). The input
/// need not be sorted. An empty sample set reports 0.0 — live scrapes hit
/// series that have no samples yet, and that must not abort the exposition.
double percentile(std::vector<double> samples, double p);

/// Rollup over a sample vector (count/total/mean/min/max/p50/p90/p99).
Rollup make_rollup(const std::vector<double>& samples);

class CounterRegistry : public gpusim::StatsSink {
 public:
  void on_kernel_launch(const gpusim::KernelStats& stats) override;

  std::size_t launches() const;
  /// Metric names in gpusim::visit_metrics order (empty before a launch).
  std::vector<std::string> metric_names() const;

  /// Per-launch samples of one metric (empty when unknown / no launches).
  std::vector<double> samples(const std::string& metric) const;

  /// Percentile rollup of one metric across launches.
  Rollup rollup(const std::string& metric) const {
    return make_rollup(samples(metric));
  }

  /// Run total of an extensive metric; launch mean of an intensive one.
  double per_run(const std::string& metric) const;

  /// per_run normalized by `frames` for extensive metrics; launch mean for
  /// intensive ones.
  double per_frame(const std::string& metric, std::uint64_t frames) const;

  void clear();

  /// {"launches": n, "metrics": {name: {count, mean, min, max, p50, ...}}}
  Json to_json() const;

  /// Compact human-readable digest (surveillance example, logs).
  std::string summary(std::uint64_t frames = 0) const;

 private:
  // The helpers below expect mu_ held.
  int index_of(const std::string& metric) const;
  std::size_t checked_index(const std::string& metric) const;
  double per_run_locked(std::size_t i) const;

  mutable std::mutex mu_;
  std::size_t launches_ = 0;
  // Aligned 1:1 with gpusim::visit_metrics order.
  std::vector<std::string> names_;
  std::vector<bool> extensive_;
  std::vector<std::vector<double>> samples_;
};

}  // namespace mog::telemetry
