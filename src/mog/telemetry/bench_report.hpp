// Canonical machine-readable bench report: every bench binary emits one
// schema-versioned BENCH_<name>.json that CI diffs against a checked-in
// baseline (see gate.hpp / the bench_gate binary).
//
// Schema v1:
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "host": {"build_type": ..., "timestamp_utc": ...},
//     "env": {"compiler": ..., "flags": ..., "hw_threads": N,
//             "mog_executor_threads": "...", "executor_threads": N},
//     "workload": {"width": W, "height": H, "frames": N},
//     "tolerances": {"<metric>": <relative tolerance>, ...},   // optional
//     "cases": [
//       {"name": "<case>", "metrics": {"<metric>": <number>, ...}}, ...
//     ],
//     "prof": {...}   // optional sampling-profile block (MOG_BENCH_PROFILE)
//   }
//
// Conventions: metrics prefixed "wall_" are wall-clock measurements and are
// skipped by the regression gate (everything else in this repo is a
// deterministic simulation output and is gated). The "host", "env" and
// "prof" blocks are informational and never compared.
#pragma once

#include <string>
#include <vector>

#include "mog/gpusim/stats.hpp"
#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

class BenchReporter {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Metric prefix the regression gate skips by default.
  static constexpr const char* kWallPrefix = "wall_";

  explicit BenchReporter(std::string name = "unnamed")
      : name_(std::move(name)) {}

  class Case {
   public:
    explicit Case(std::string name) : name_(std::move(name)) {}

    Case& metric(const std::string& name, double value) {
      metrics_.emplace_back(name, value);
      return *this;
    }

    /// Expand a per-frame KernelStats into "ctr_<metric>" entries.
    Case& counters(const gpusim::KernelStats& per_frame);

    const std::string& name() const { return name_; }
    const std::vector<std::pair<std::string, double>>& metrics() const {
      return metrics_;
    }

   private:
    std::string name_;
    std::vector<std::pair<std::string, double>> metrics_;
  };

  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  void set_workload(int width, int height, int frames) {
    width_ = width;
    height_ = height;
    frames_ = frames;
  }

  /// Override the gate's relative tolerance for one metric (embedded in the
  /// report, so a regenerated baseline carries its own bands).
  void set_tolerance(const std::string& metric, double rel_tol) {
    for (auto& [k, v] : tolerances_)
      if (k == metric) {
        v = rel_tol;
        return;
      }
    tolerances_.emplace_back(metric, rel_tol);
  }

  /// Attach a sampling-profile block (emitted as root key "prof"). The
  /// reporter treats it as opaque JSON — profile_report_json (flame.hpp)
  /// builds it — so the report stays independent of the profiler. Like "host"
  /// and "env", the gate never compares it.
  void set_profile(Json prof) { profile_ = std::move(prof); }

  /// Add (or reopen) a case; the reference stays valid until the next add.
  Case& add_case(const std::string& name);

  std::size_t num_cases() const { return cases_.size(); }

  Json to_json() const;

  /// Write BENCH_<name>.json under `dir` (created if missing); returns the
  /// path written.
  std::string write_file(const std::string& dir) const;

 private:
  std::string name_;
  int width_ = 0, height_ = 0, frames_ = 0;
  std::vector<std::pair<std::string, double>> tolerances_;
  std::vector<Case> cases_;
  Json profile_;  ///< null until set_profile(); emitted as "prof"
};

}  // namespace mog::telemetry
