// nvprof-style digestion of counter dumps (the `mogprof` CLI's engine).
//
// A "counter dump" is either a schema-v1 bench report (BENCH_*.json, one
// kernel per case via its ctr_* metrics) or a CounterRegistry::to_json()
// dump (one aggregate kernel from the per-launch means). Loading
// reconstructs gpusim::KernelStats per kernel and re-derives what a real
// profiler would show: branch divergence, coalescing efficiency, occupancy
// (recomputed from the launch resources via the CC 2.0 occupancy rules),
// the analytical kernel time, achieved DRAM bandwidth against the device
// peak, and a memory-/compute-bound roofline classification.
//
// Two reports compose into the paper's measurement story: a dump whose
// cases are optimization levels (A..F) renders a per-step attribution table
// (which counter each step moved, annotated with the step's description),
// and --diff mode compares two dumps kernel by kernel.
#pragma once

#include <string>
#include <vector>

#include "mog/gpusim/device_spec.hpp"
#include "mog/gpusim/occupancy.hpp"
#include "mog/gpusim/stats.hpp"
#include "mog/gpusim/timing_model.hpp"
#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

struct KernelProfile {
  std::string name;             ///< case name ("A".."F", "g8", "aggregate")
  gpusim::KernelStats stats;    ///< reconstructed per-frame counters
  gpusim::Occupancy occupancy;  ///< recomputed from the launch resources
  gpusim::KernelTiming timing;  ///< analytical model on the counters

  double divergence() const { return 1.0 - stats.branch_efficiency(); }
  double coalescing_efficiency() const {
    return stats.memory_access_efficiency();
  }
  double uncoalesced_share() const { return 1.0 - coalescing_efficiency(); }

  /// Achieved DRAM bandwidth over the modeled kernel time.
  double dram_gbps() const {
    return timing.total_seconds > 0
               ? static_cast<double>(stats.bytes_transferred()) /
                     timing.total_seconds / 1e9
               : 0.0;
  }

  bool memory_bound() const {
    return std::string{timing.bound_by} == "bandwidth";
  }
};

struct ProfileDump {
  std::string source;  ///< file path or report name
  gpusim::DeviceSpec spec;
  int width = 0, height = 0, frames = 0;
  std::vector<KernelProfile> kernels;

  const KernelProfile* find(const std::string& name) const;
};

/// Parse a dump document (bench report or CounterRegistry dump). Throws
/// mog::Error when the document is neither, or carries no counter data.
ProfileDump load_profile_dump(const Json& doc, const std::string& source = "",
                              const gpusim::DeviceSpec& spec = {});

/// read_json_file + load_profile_dump.
ProfileDump load_profile_file(const std::string& path,
                              const gpusim::DeviceSpec& spec = {});

/// Per-kernel profiler table (one row per kernel, roofline verdict last).
std::string render_profile_table(const ProfileDump& dump);

/// Optimization-step attribution: consecutive deltas over the cases that
/// name optimization levels (A..F), annotated with each step's description.
/// Empty string when the dump holds fewer than two such cases.
std::string render_step_report(const ProfileDump& dump);

/// Kernel-by-kernel comparison of two dumps (--diff mode). Kernels missing
/// from either side are listed, not diffed.
std::string render_profile_diff(const ProfileDump& baseline,
                                const ProfileDump& fresh);

}  // namespace mog::telemetry
