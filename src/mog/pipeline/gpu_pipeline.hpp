// Host-side GPU processing pipeline.
//
// Owns the simulated device, the device-resident model, and the per-frame
// I/O buffers; runs the configured kernel variant frame by frame (or in
// frame groups for the tiled variant), accumulates profiler counters, and
// produces modeled wall-clock seconds by composing kernel timing with the
// transfer schedule (sequential for A/B, overlapped Fig. 5b for C+).
//
// Fault-aware operation: frame uploads, kernel launches, and mask downloads
// go through the device's hooked entry points, so an installed
// gpusim::FaultHook can fail them (TransferError / LaunchError). A failure
// leaves the pipeline in a *resumable* state — in_flight() reports whether
// an interrupted group launch, post-processing launch, or mask download is
// outstanding, and resume() re-attempts exactly the remaining work without
// repeating the model update (retries are therefore free of double-update
// divergence; postproc launches only read the already-written raw mask and
// are idempotent by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mog/common/image.hpp"
#include "mog/cpu/mog_model.hpp"
#include "mog/gpusim/occupancy.hpp"
#include "mog/gpusim/timing_model.hpp"
#include "mog/gpusim/transfer_model.hpp"
#include "mog/kernels/mog_kernels.hpp"
#include "mog/kernels/postproc_kernels.hpp"
#include "mog/kernels/tiled_kernel.hpp"
#include "mog/postproc/validation.hpp"

namespace mog {

template <typename T>
class GpuMogPipeline {
 public:
  struct Config {
    int width = 0;
    int height = 0;
    MogParams params;
    kernels::OptLevel level = kernels::OptLevel::kF;
    bool tiled = false;                 ///< §IV-D windowed variant (on top of F)
    kernels::TiledConfig tiled_config;  ///< used when tiled
    int threads_per_block = kernels::kDefaultThreadsPerBlock;

    /// Mask post-processing. Level G (kernel fusion) force-enables this —
    /// the fused epilogue is what step G *is* — with the fused-friendly
    /// default stages unless the caller configured its own.
    MaskPostprocConfig postproc;

    /// Simulated device (defaults to the paper's Tesla C2075; pass
    /// gpusim::embedded_device_spec() for the §VI future-work studies).
    gpusim::DeviceSpec device;

    /// Host worker threads for the device's block executor. 0 inherits
    /// device.executor_threads (whose 0 means one worker per hardware
    /// thread); 1 forces serial execution. Purely a wall-clock knob — masks
    /// and every simulated counter are bit-identical at any value.
    int executor_threads = 0;
  };

  explicit GpuMogPipeline(const Config& config);

  /// Process one frame: upload, kernel (for the tiled variant: buffered
  /// until the frame group fills), download the mask. For the tiled variant
  /// `fg` is only written when the group completes (returns true).
  ///
  /// With a fault hook installed this may throw gpusim::TransferError or
  /// gpusim::LaunchError. An upload or launch failure leaves the pipeline
  /// clean (the call may simply be repeated); a download failure happens
  /// after the model update and leaves the pipeline in_flight() — call
  /// resume() to retry the remaining downloads, not process().
  bool process(const FrameU8& frame, FrameU8& fg);

  /// True when a device fault interrupted a group launch or mask download;
  /// process()/flush() refuse to run until resume() completes the work.
  bool in_flight() const {
    return group_launch_pending_ || postproc_left_ > 0 || downloads_left_ > 0;
  }

  /// Re-attempt the interrupted portion of the last operation (group launch
  /// and/or remaining mask downloads). Idempotent with respect to the model:
  /// the update kernel is never re-run once it has executed. On success
  /// writes the newest mask to `fg` and returns true; may throw again.
  bool resume(FrameU8& fg);

  /// Abandon an interrupted operation after exhausted retries: drops any
  /// owed group launch (its buffered frames leave the accounting) and any
  /// un-downloaded masks. Returns the number of buffered input frames
  /// discarded (0 when only mask downloads were lost — those frames did
  /// update the model).
  int abort_in_flight();

  /// Tiled variant: run any buffered partial group now. Returns the number
  /// of masks appended to `out`. May throw like process(); after resume()
  /// recovers an interrupted flush, the masks are in last_group_masks().
  int flush(std::vector<FrameU8>& out);

  /// Masks of the last completed group (group-size entries; the non-tiled
  /// path behaves as a group of one).
  const std::vector<FrameU8>& last_group_masks() const {
    return group_masks_;
  }

  std::uint64_t frames_processed() const { return frames_; }
  std::uint64_t kernel_launches() const { return launches_; }

  /// Frames whose post-processing ran on the host because the configured
  /// validation stages are not expressible on the device
  /// (ValidationConfig::fusable() is false). Always 0 when the device path
  /// is active; nonzero means level G silently-degraded — except it is not
  /// silent, it is this counter.
  std::uint64_t host_postproc_fallbacks() const {
    return host_postproc_fallbacks_;
  }

  /// True when masks are cleaned on the device before the download (the
  /// fused epilogue at level G, the unfused stencil chain below it).
  bool device_postproc_active() const {
    return postproc_active() && config_.postproc.validation.fusable();
  }

  /// Per-frame averaged profiler counters (tiled launches are normalized by
  /// their group size).
  gpusim::KernelStats per_frame_stats() const;

  gpusim::Occupancy occupancy() const;
  gpusim::KernelTiming per_frame_kernel_timing() const;

  /// Per-frame modeled schedule — upload / kernel / download seconds at the
  /// current averaged counters. The kernel term is only meaningful once at
  /// least one frame has been processed (it is 0 before); the transfer terms
  /// depend only on the frame geometry. The serving layer uses this to
  /// reserve shared-device time for each frame it multiplexes.
  gpusim::FrameSchedule frame_schedule() const;

  /// Modeled end-to-end seconds for `frames` frames at this pipeline's
  /// resolution (defaults to the number actually processed), composing the
  /// per-frame kernel time with the variant's transfer schedule
  /// (gpusim::pipeline_seconds).
  double modeled_seconds(std::uint64_t frames = 0) const;

  /// The variant's transfer schedule: overlapped (Fig. 5b) from level C on,
  /// which includes every tiled configuration (tiled builds on F or G).
  bool overlapped() const { return kernels::uses_overlap(config_.level); }

  /// Frames per update-kernel launch: the tiled frame group, else 1.
  int frames_per_launch() const {
    return config_.tiled ? config_.tiled_config.frame_group : 1;
  }

  /// Download the device model (background estimates, cross-checks,
  /// checkpointing). Uses the un-hooked copy path: reading the model out
  /// never fails, even under fault injection.
  MogModel<T> model() const { return state_.download(config_.params); }

  /// Overwrite the device model (checkpoint restore / rollback). Un-hooked
  /// like model().
  void set_model(const MogModel<T>& m) { state_.upload(m); }

  /// The simulated device — exposed so recovery layers can install fault
  /// hooks and inspect memory accounting.
  gpusim::Device& device() { return device_; }
  const gpusim::Device& device() const { return device_; }
  kernels::DeviceMogState<T>& state() { return state_; }

  const Config& config() const { return config_; }
  const gpusim::DeviceSpec& device_spec() const { return device_.spec(); }

 private:
  bool postproc_active() const {
    return config_.postproc.enabled && config_.postproc.validation.active();
  }
  /// Postproc stages that must run on the host (the unfusable fallback).
  bool host_postproc_active() const {
    return postproc_active() && !device_postproc_active();
  }
  int postproc_threads_per_block() const {
    return config_.tiled ? config_.tiled_config.tile_pixels
                         : config_.threads_per_block;
  }

  void finish_group();
  void run_device_postproc();
  void download_group_masks();

  /// Telemetry: append this launch's upload/kernel/download windows to the
  /// modeled-GPU-timeline trace track (no-op without an installed tracer).
  void emit_modeled_timeline(const gpusim::KernelStats& launch_stats,
                             std::size_t frames_in_launch);

  Config config_;
  TypedMogParams<T> tp_;
  gpusim::Device device_;
  kernels::DeviceMogState<T> state_;
  std::vector<gpusim::DevSpan<std::uint8_t>> frame_bufs_;
  std::vector<gpusim::DevSpan<std::uint8_t>> fg_bufs_;  ///< raw MoG masks
  /// Cleaned masks (device postproc only) — the download source, so the raw
  /// mask never crosses the transfer boundary when the epilogue is active.
  std::vector<gpusim::DevSpan<std::uint8_t>> pp_bufs_;
  /// Intermediate stages of the unfused chain (below level G); the fused
  /// epilogue keeps these in shared memory and needs no scratch.
  std::vector<gpusim::DevSpan<std::uint8_t>> pp_scratch_;

  int pending_ = 0;  ///< buffered frames of the current tiled group
  std::vector<FrameU8> group_masks_;

  // Resumable-operation state (see in_flight()/resume()).
  bool group_launch_pending_ = false;  ///< full group buffered, launch owed
  std::size_t group_size_cur_ = 0;     ///< frames in the group being drained
  std::size_t postproc_left_ = 0;      ///< frames still owed device postproc
  std::size_t downloads_left_ = 0;     ///< masks still owed by the device

  gpusim::KernelStats accumulated_;
  std::uint64_t frames_ = 0;
  std::uint64_t launches_ = 0;
  std::uint64_t host_postproc_fallbacks_ = 0;
  double modeled_ts_us_ = 0;  ///< cursor of the modeled trace track
};

extern template class GpuMogPipeline<float>;
extern template class GpuMogPipeline<double>;

}  // namespace mog
