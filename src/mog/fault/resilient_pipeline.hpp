// Self-healing wrapper around the GPU pipeline.
//
// Recovery machinery, in the order a frame meets it:
//
//   1. Input validation — dropped (empty), truncated (short read), or
//      burst-corrupted frames (saturation integrity check) never reach the
//      model: the last known mask is reused and the update is skipped.
//   2. Bounded retry with exponential backoff — transient DMA / launch
//      faults (gpusim::TransferError / LaunchError) are retried up to
//      RetryPolicy::max_attempts. Retries piggyback on the pipeline's
//      resumable-operation support, so a failed mask download is re-fetched
//      without re-running the model update (no double-update divergence);
//      backoff is modeled time, accumulated in RecoveryStats.
//   3. Checkpoint + rollback — the model is snapshotted on a period (in
//      memory, optionally to disk via model_io, whose v2 format carries a
//      CRC32); a periodic watchdog (fault::validate_model) rolls a diverged
//      or corrupted model back to the last healthy checkpoint.
//   4. Graceful degradation — when whole frames keep failing, the pipeline
//      steps down the ladder tiled -> level F direct -> CPU serial,
//      carrying the model across so masks keep flowing.
//
// Every recovery action is counted in RecoveryStats (comparable, so tests
// can assert deterministic replay). process() never throws on injected
// device faults.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mog/cpu/serial_mog.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/fault/model_health.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"

namespace mog::fault {

/// Degradation ladder, healthiest first.
enum class ExecutionTier { kTiledGpu, kGpuDirect, kCpuSerial };

const char* to_string(ExecutionTier tier);

/// Retry k of an operation waits 1 ms * 2^(k-1) of modeled time first.
struct RetryPolicy {
  int max_attempts = 4;  ///< total attempts per operation

  void validate() const;
};

struct ResilienceConfig {
  RetryPolicy retry;

  int checkpoint_interval = 128;   ///< frames between snapshots; 0 disables
  int health_check_interval = 32;  ///< frames between watchdog scans; 0 off
  std::size_t health_check_stride = 4;  ///< watchdog pixel subsampling
  double weight_drift_tolerance = kDefaultWeightDriftTolerance;

  /// Cap on the total modeled retry/backoff wall-clock spent on one frame
  /// (seconds; 0 = unlimited). A sick device whose every attempt fails would
  /// otherwise stall its stream for the full exponential ladder — with a
  /// deadline the frame is abandoned early (salvaged mask, degradation
  /// counter advances) so the stream fails over instead of stalling.
  double frame_deadline_seconds = 0;

  /// Consecutive unrecoverable frame episodes before stepping down the
  /// degradation ladder.
  int degrade_after_failures = 2;

  /// Optional on-disk snapshot path (model_io MOGM v2, CRC-protected);
  /// empty keeps checkpoints in memory only.
  std::string checkpoint_path;

  void validate() const;
};

/// Counters for every recovery action taken, surfaced like
/// gpusim::KernelStats. Comparable so deterministic replay can be asserted.
struct RecoveryStats {
  std::uint64_t frames_in = 0;         ///< frames offered to process()
  std::uint64_t frames_absorbed = 0;   ///< frames the model actually saw
  std::uint64_t masks_delivered = 0;   ///< masks handed to the caller
  std::uint64_t frames_dropped = 0;    ///< empty input (capture dropout)
  std::uint64_t frames_truncated = 0;  ///< short read at the video layer
  std::uint64_t frames_corrupt = 0;    ///< failed the integrity check
  std::uint64_t masks_reused = 0;      ///< salvaged via last-known-mask
  std::uint64_t transfer_faults = 0;   ///< DMA faults caught
  std::uint64_t launch_faults = 0;     ///< launch faults caught
  std::uint64_t retries = 0;           ///< re-attempts performed
  std::uint64_t frames_lost = 0;       ///< abandoned after all retries
  std::uint64_t checkpoints = 0;       ///< snapshots taken
  std::uint64_t rollbacks = 0;         ///< watchdog-triggered restores
  std::uint64_t degradations = 0;      ///< ladder steps taken
  std::uint64_t deadline_exceeded = 0; ///< retries cut off by frame deadline
  double backoff_seconds = 0.0;        ///< modeled retry delay, total

  bool operator==(const RecoveryStats&) const = default;
  std::string summary() const;
};

template <typename T>
class ResilientPipeline {
 public:
  using GpuConfig = typename GpuMogPipeline<T>::Config;

  /// `injector` is optional; when set it is installed as the device fault
  /// hook of every GPU pipeline this wrapper builds (including rebuilds
  /// after degradation) and consulted at the video-layer and model-memory
  /// fault points.
  ResilientPipeline(const GpuConfig& gpu_config,
                    const ResilienceConfig& resilience,
                    std::shared_ptr<FaultInjector> injector = nullptr);

  /// Process one frame. Injected device faults never escape: the frame is
  /// retried, salvaged (last known mask), or the pipeline degrades. Returns
  /// true when `fg` holds a mask for this call — always, except mid-group
  /// at the tiled tier.
  bool process(const FrameU8& frame, FrameU8& fg);

  /// Drain a buffered partial tiled group (recovering from faults like
  /// process()); appends masks to `out`, returns the count.
  int flush(std::vector<FrameU8>& out);

  ExecutionTier tier() const { return tier_; }
  const RecoveryStats& recovery_stats() const { return stats_; }

  /// Per-frame modeled schedule of the *active* engine. GPU tiers forward
  /// GpuMogPipeline::frame_schedule(); after degradation to the CPU tier the
  /// transfers are zero (no PCIe crossing) and the kernel term is the cost
  /// model's per-frame serial seconds — a CPU-degraded stream stops
  /// consuming shared device time in the serving layer, which is exactly
  /// what happens on real hardware.
  gpusim::FrameSchedule frame_schedule() const;

  /// Current model (downloaded from the active engine).
  MogModel<T> model() const;
  FrameU8 background() const;

  /// Overwrite the live model with externally restored state (migration
  /// resume, warm start). The adopted state also becomes the in-memory
  /// checkpoint, so a later watchdog rollback cannot resurrect whatever the
  /// engine held before adoption, and the failure streak is reset.
  void adopt_model(const MogModel<T>& m);

  /// Active GPU pipeline, or nullptr after degradation to the CPU tier.
  const GpuMogPipeline<T>* gpu_pipeline() const { return gpu_.get(); }

 private:
  void build_engine(ExecutionTier tier);
  void degrade();
  /// Run `op` under the retry policy: bounded attempts, exponential backoff
  /// capped by the frame deadline, device faults counted and traced. False
  /// once the attempts run out; the caller decides what that costs.
  template <typename Op>
  bool with_retries(Op&& op);
  bool run_gpu_with_retry(const FrameU8& frame, FrameU8& fg, bool& delivered);
  bool salvage(FrameU8& fg, std::uint64_t& counter);
  void after_absorbed_frame();
  void rollback();
  void take_checkpoint();
  MogModel<T> current_model() const;
  void restore_model(const MogModel<T>& m);
  void scrub_model_fault_point();

  GpuConfig gpu_config_;
  ResilienceConfig res_;
  std::shared_ptr<FaultInjector> injector_;

  ExecutionTier tier_;
  std::unique_ptr<GpuMogPipeline<T>> gpu_;
  std::unique_ptr<SerialMog<T>> cpu_;

  RecoveryStats stats_;
  FrameU8 last_mask_;
  MogModel<T> checkpoint_;
  bool has_checkpoint_ = false;
  int frames_since_checkpoint_ = 0;
  int frames_since_health_ = 0;
  int consecutive_lost_ = 0;
};

extern template class ResilientPipeline<float>;
extern template class ResilientPipeline<double>;

}  // namespace mog::fault
