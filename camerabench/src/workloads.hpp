// The benchmark's workloads: synthetic camera streams, encoded to bytes,
// played into the system's public entry points (ingest readers and
// DecodeWorker -> cluster::DeviceFleet), with cleaned masks read back out
// and checked against the CPU double-precision reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "mog/kernels/opt_level.hpp"
#include "mog/telemetry/json.hpp"

namespace camerabench {

enum class Codec { kMjpeg, kY4m };

/// Open: each camera's bytes are released on a fixed schedule, whatever the
/// system does. Backlog: every frame is due at t=0 and the fleet is pumped
/// until it drains.
enum class Loop { kOpen, kBacklog };

struct WorkloadSpec {
  std::string name;
  int width = 320;
  int height = 180;
  int devices = 1;
  int streams = 1;
  Codec codec = Codec::kY4m;
  int jpeg_quality = 75;
  mog::kernels::OptLevel level = mog::kernels::OptLevel::kF;
  bool tiled = false;
  int frame_group = 8;
  Loop loop = Loop::kBacklog;
  double rate_fps = 0;        ///< open loop: offered frames/s per camera
  int frames_per_stream = 0;  ///< backlog: frames per stream per episode
  bool fail_device_midway = false;  ///< fail_device(0) after half the frames
  int replay_frames = 0;      ///< frames of the standalone pipeline replay
};

/// The named workloads (live_fleet, archive_hd, tiled_failover); throws
/// mog::Error for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where span traces go; empty = not written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value (percentile level, n)
};

struct RunResult {
  FailureCount failures;
  std::vector<std::string> problems;  ///< every failed check, one line each
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<Metric> info;     ///< printed, never part of the result line
  mog::telemetry::Json env;
  bool correct() const { return problems.empty() && failures.failed == 0; }
};

RunResult run_workload(const WorkloadSpec& spec, const Options& options);

/// Everything a backlog episode computes on the modeled clock, plus the
/// masks: must repeat exactly for the same inputs.
struct ModeledOutputs {
  double makespan_s = 0;
  std::vector<double> modeled_latencies_s;
  double dma_busy_s = 0;
  double kernel_busy_s = 0;
  std::uint64_t masks = 0;
  std::vector<std::uint64_t> mask_hashes;  ///< one per mask, stream-major
  bool operator==(const ModeledOutputs&) const = default;
};

/// One backlog episode of `spec` on inputs made from `seed` (tests).
ModeledOutputs run_backlog_modeled(const WorkloadSpec& spec,
                                   std::uint64_t seed);

}  // namespace camerabench
