#include "mog/pipeline/gpu_pipeline.hpp"

#include <algorithm>
#include <array>

#include "mog/telemetry/heatmap.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog {

namespace {

// Validated before any member construction, so a bad config reports itself
// instead of surfacing as a failed device allocation.
template <typename T>
typename GpuMogPipeline<T>::Config validated(
    const typename GpuMogPipeline<T>::Config& config) {
  MOG_CHECK(config.width > 0 && config.height > 0, "bad pipeline dimensions");
  if (config.tiled) {
    MOG_CHECK(config.level == kernels::OptLevel::kF ||
                  config.level == kernels::OptLevel::kG,
              "the tiled variant builds on optimization level F (or G, "
              "which adds the fused postproc epilogue on top)");
    config.tiled_config.validate();
  }
  typename GpuMogPipeline<T>::Config out = config;
  // Level G *is* the fused postproc epilogue: force-enable it so kG can
  // never silently run as plain F. A caller-provided ValidationConfig is
  // kept (an unfusable one falls back to host postproc, with the fallback
  // counter recording the degradation).
  if (kernels::uses_fused_postproc(config.level)) out.postproc.enabled = true;
  if (out.postproc.enabled) out.postproc.validation.validate();
  // The pipeline-level executor knob overrides the spec's so callers can
  // pin the thread count without composing a DeviceSpec.
  if (config.executor_threads != 0)
    out.device.executor_threads = config.executor_threads;
  return out;
}

}  // namespace

template <typename T>
GpuMogPipeline<T>::GpuMogPipeline(const Config& config)
    : config_(validated<T>(config)),
      tp_(TypedMogParams<T>::from(config.params)),
      device_(config_.device),
      state_(device_, config.width, config.height, config.params,
             kernels::uses_aos_layout(config.level)
                 ? kernels::ParamLayout::kAoS
                 : kernels::ParamLayout::kSoA) {
  const int nbuf = frames_per_launch();
  const std::size_t n = state_.num_pixels();
  for (int i = 0; i < nbuf; ++i) {
    frame_bufs_.push_back(device_.memory().alloc<std::uint8_t>(n));
    fg_bufs_.push_back(device_.memory().alloc<std::uint8_t>(n));
  }
  if (device_postproc_active()) {
    for (int i = 0; i < nbuf; ++i)
      pp_bufs_.push_back(device_.memory().alloc<std::uint8_t>(n));
    // The unfused chain ping-pongs through global scratch between stages;
    // the fused epilogue (level G) holds every intermediate in shared memory.
    if (!kernels::uses_fused_postproc(config_.level))
      for (int i = 0; i < 2; ++i)
        pp_scratch_.push_back(device_.memory().alloc<std::uint8_t>(n));
  }
  // Counter export: a globally installed registry observes every launch of
  // this device (survives ResilientPipeline engine rebuilds, which construct
  // a fresh pipeline and land here again). A globally installed heatmap
  // sink (telemetry::set_heatmap_sink; bench_util under MOG_BENCH_PROFILE)
  // goes in front and chains to the registry, adding per-block spatial
  // capture without displacing counter export.
  gpusim::StatsSink* sink = telemetry::counters();
  if (telemetry::HeatmapSink* heat = telemetry::heatmap_sink()) {
    heat->bind_frame(config_.width, config_.height);
    heat->set_chain(sink);
    sink = heat;
  }
  device_.set_stats_sink(sink);
}

template <typename T>
bool GpuMogPipeline<T>::process(const FrameU8& frame, FrameU8& fg) {
  MOG_CHECK(frame.width() == config_.width &&
                frame.height() == config_.height,
            "frame dimensions do not match the pipeline");
  MOG_CHECK(!in_flight(),
            "interrupted device operation outstanding; call resume() first");
  const std::size_t n = state_.num_pixels();

  if (!config_.tiled) {
    {
      auto sp = telemetry::maybe_span("upload", "transfer");
      sp.arg("frame", static_cast<double>(frames_));
      const telemetry::ProfSpan prof{telemetry::ProfTag::kUpload};
      device_.upload(frame_bufs_[0], frame.data(), n);
    }
    gpusim::KernelStats launch_stats;
    {
      auto sp = telemetry::maybe_span("mog_kernel", "kernel");
      sp.arg("frame", static_cast<double>(frames_));
      launch_stats = kernels::launch_mog_frame<T>(
          device_, state_, frame_bufs_[0], fg_bufs_[0], tp_, config_.level,
          config_.threads_per_block);
    }
    accumulated_ += launch_stats;
    emit_modeled_timeline(launch_stats, 1);
    ++launches_;
    ++frames_;
    group_masks_.clear();
    group_size_cur_ = 1;
    postproc_left_ = device_postproc_active() ? 1 : 0;
    downloads_left_ = 1;
    run_device_postproc();
    download_group_masks();
    if (!fg.same_shape(frame)) fg = FrameU8(config_.width, config_.height);
    fg = group_masks_.back();
    return true;
  }

  // Tiled: buffer until the frame group is full.
  {
    auto sp = telemetry::maybe_span("upload", "transfer");
    sp.arg("frame", static_cast<double>(frames_));
    const telemetry::ProfSpan prof{telemetry::ProfTag::kUpload};
    device_.upload(frame_bufs_[static_cast<std::size_t>(pending_)],
                   frame.data(), n);
  }
  ++pending_;
  ++frames_;
  if (pending_ < config_.tiled_config.frame_group) return false;

  group_launch_pending_ = true;
  finish_group();
  if (!fg.same_shape(frame)) fg = FrameU8(config_.width, config_.height);
  fg = group_masks_.back();
  return true;
}

template <typename T>
void GpuMogPipeline<T>::finish_group() {
  if (group_launch_pending_) {
    const std::size_t g = static_cast<std::size_t>(pending_);
    gpusim::KernelStats launch_stats;
    {
      auto sp = telemetry::maybe_span("tiled_kernel", "kernel");
      sp.arg("group_size", static_cast<double>(g));
      launch_stats = kernels::launch_tiled_group<T>(
          device_, state_,
          std::span<const gpusim::DevSpan<std::uint8_t>>{frame_bufs_.data(),
                                                         g},
          std::span<const gpusim::DevSpan<std::uint8_t>>{fg_bufs_.data(), g},
          tp_, config_.tiled_config);
    }
    accumulated_ += launch_stats;
    emit_modeled_timeline(launch_stats, g);
    ++launches_;
    // The update kernel has run: from here on only downloads remain, and a
    // retry must not re-launch.
    group_launch_pending_ = false;
    pending_ = 0;
    group_masks_.clear();
    group_size_cur_ = g;
    postproc_left_ = device_postproc_active() ? g : 0;
    downloads_left_ = g;
  }
  run_device_postproc();
  download_group_masks();
}

/// Drain the device post-processing owed to the current group, one frame at
/// a time in frame order. Each frame's clean-up reads the (complete,
/// immutable) raw mask and writes the cleaned buffer, so a launch that
/// faulted mid-group can simply be re-attempted — the model was updated by
/// the frame pass and is not touched here.
template <typename T>
void GpuMogPipeline<T>::run_device_postproc() {
  const telemetry::ProfSpan prof{telemetry::ProfTag::kPostproc};
  const ValidationConfig& v = config_.postproc.validation;
  while (postproc_left_ > 0) {
    const std::size_t i = group_size_cur_ - postproc_left_;
    if (kernels::uses_fused_postproc(config_.level)) {
      auto sp = telemetry::maybe_span("fused_postproc", "kernel");
      sp.arg("frame_buf", static_cast<double>(i));
      accumulated_ += kernels::launch_fused_postproc(
          device_, fg_bufs_[i], pp_bufs_[i], config_.width, config_.height, v,
          postproc_threads_per_block());
      ++launches_;
    } else {
      // Below G the same stages run unfused: one stencil launch per stage,
      // every intermediate mask round-tripping global memory. This is the
      // measurable pre-fusion cost that step G removes.
      std::array<kernels::MaskStageOp, 3> ops{};
      std::size_t nops = 0;
      if (v.despeckle) ops[nops++] = kernels::MaskStageOp::kMedian3;
      if (v.close_radius == 1) {
        ops[nops++] = kernels::MaskStageOp::kDilate1;
        ops[nops++] = kernels::MaskStageOp::kErode1;
      }
      gpusim::DevSpan<std::uint8_t> src = fg_bufs_[i];
      for (std::size_t s = 0; s < nops; ++s) {
        const gpusim::DevSpan<std::uint8_t> dst =
            s + 1 == nops ? pp_bufs_[i] : pp_scratch_[s % 2];
        auto sp = telemetry::maybe_span("postproc_stage", "kernel");
        sp.arg("stage", static_cast<double>(s));
        accumulated_ += kernels::launch_mask_stage(
            device_, src, dst, config_.width, config_.height, ops[s],
            postproc_threads_per_block());
        ++launches_;
        src = dst;
      }
    }
    --postproc_left_;
  }
}

template <typename T>
void GpuMogPipeline<T>::download_group_masks() {
  const telemetry::ProfSpan prof{telemetry::ProfTag::kDownload};
  const std::size_t n = state_.num_pixels();
  auto sp = telemetry::maybe_span("download", "transfer");
  sp.arg("masks", static_cast<double>(downloads_left_));
  // With device postproc the cleaned buffer is what crosses the transfer
  // boundary; the raw mask stays device-resident.
  const bool from_pp = device_postproc_active();
  while (downloads_left_ > 0) {
    const std::size_t i = group_size_cur_ - downloads_left_;
    FrameU8 mask(config_.width, config_.height);
    device_.download(mask.data(), (from_pp ? pp_bufs_ : fg_bufs_)[i], n);
    if (host_postproc_active()) {
      mask = validate_foreground(mask, config_.postproc.validation);
      // The device path could not express the config: record the
      // degradation instead of diverging silently.
      ++host_postproc_fallbacks_;
    }
    group_masks_.push_back(std::move(mask));
    --downloads_left_;
  }
}

template <typename T>
void GpuMogPipeline<T>::emit_modeled_timeline(
    const gpusim::KernelStats& launch_stats, std::size_t frames_in_launch) {
  telemetry::TraceRecorder* tr = telemetry::tracer();
  if (tr == nullptr) return;

  const std::size_t n = state_.num_pixels();
  const double g = static_cast<double>(frames_in_launch);
  const double upload_us =
      1e6 * gpusim::transfer_seconds(device_.spec(), n) * g;
  const double download_us = upload_us;
  const gpusim::Occupancy occ = gpusim::compute_occupancy(
      device_.spec(), launch_stats.regs_per_thread,
      launch_stats.threads_per_block, launch_stats.shared_bytes_per_block);
  const double kernel_us =
      1e6 * gpusim::kernel_time(launch_stats, occ, device_.spec())
                .total_seconds;

  const auto us = [](double v) { return static_cast<std::int64_t>(v); };
  const std::int64_t t0 = us(modeled_ts_us_);
  const int tid = telemetry::TraceRecorder::kModeledTrack;
  tr->complete("upload", "modeled", tid, t0, us(upload_us),
               {{"frames", g}});
  tr->complete(config_.tiled ? "tiled_kernel" : "mog_kernel", "modeled", tid,
               t0 + us(upload_us), us(kernel_us),
               {{"frames", g}, {"occupancy", occ.achieved}});
  tr->complete("download", "modeled", tid,
               t0 + us(upload_us + kernel_us), us(download_us),
               {{"frames", g}});

  // Advance the cursor the way the variant's transfer schedule would: with
  // overlap the next window starts after max(kernel, transfers) — the hidden
  // portion is the Fig. 5b gain.
  const double serial_us = upload_us + kernel_us + download_us;
  if (overlapped()) {
    const double window_us = std::max(kernel_us, upload_us + download_us);
    tr->complete("overlap_window", "modeled",
                 telemetry::TraceRecorder::kModeledOverlapTrack, t0,
                 us(window_us), {{"hidden_us", serial_us - window_us}});
    modeled_ts_us_ += window_us;
  } else {
    modeled_ts_us_ += serial_us;
  }
}

template <typename T>
bool GpuMogPipeline<T>::resume(FrameU8& fg) {
  MOG_CHECK(in_flight(), "no interrupted device operation to resume");
  finish_group();
  if (fg.width() != config_.width || fg.height() != config_.height)
    fg = FrameU8(config_.width, config_.height);
  fg = group_masks_.back();
  return true;
}

template <typename T>
int GpuMogPipeline<T>::abort_in_flight() {
  int discarded = 0;
  if (group_launch_pending_) {
    discarded = pending_;
    frames_ -= static_cast<std::uint64_t>(pending_);
    pending_ = 0;
    group_launch_pending_ = false;
  }
  postproc_left_ = 0;
  downloads_left_ = 0;
  group_size_cur_ = 0;
  return discarded;
}

template <typename T>
int GpuMogPipeline<T>::flush(std::vector<FrameU8>& out) {
  MOG_CHECK(!in_flight(),
            "interrupted device operation outstanding; call resume() first");
  if (!config_.tiled || pending_ == 0) return 0;
  group_launch_pending_ = true;
  finish_group();
  for (const auto& m : group_masks_) out.push_back(m);
  return static_cast<int>(group_masks_.size());
}

template <typename T>
gpusim::KernelStats GpuMogPipeline<T>::per_frame_stats() const {
  const std::uint64_t processed = frames_ - static_cast<std::uint64_t>(pending_);
  return processed == 0 ? accumulated_ : accumulated_.averaged_over(processed);
}

template <typename T>
gpusim::Occupancy GpuMogPipeline<T>::occupancy() const {
  const gpusim::KernelStats s = per_frame_stats();
  return gpusim::compute_occupancy(device_.spec(), s.regs_per_thread,
                                   s.threads_per_block,
                                   s.shared_bytes_per_block);
}

template <typename T>
gpusim::KernelTiming GpuMogPipeline<T>::per_frame_kernel_timing() const {
  return gpusim::kernel_time(per_frame_stats(), occupancy(), device_.spec());
}

template <typename T>
gpusim::FrameSchedule GpuMogPipeline<T>::frame_schedule() const {
  const std::size_t n = state_.num_pixels();
  gpusim::FrameSchedule sched;
  sched.upload_seconds = gpusim::transfer_seconds(device_.spec(), n);
  sched.download_seconds = gpusim::transfer_seconds(device_.spec(), n);
  const std::uint64_t processed =
      frames_ - static_cast<std::uint64_t>(pending_);
  sched.kernel_seconds =
      processed == 0 ? 0.0 : per_frame_kernel_timing().total_seconds;
  return sched;
}

template <typename T>
double GpuMogPipeline<T>::modeled_seconds(std::uint64_t frames) const {
  const std::uint64_t processed =
      frames_ - static_cast<std::uint64_t>(pending_);
  if (frames == 0) frames = processed;
  if (frames == 0) return 0.0;

  return gpusim::pipeline_seconds(frame_schedule(), frames, overlapped(),
                                  frames_per_launch());
}

template class GpuMogPipeline<float>;
template class GpuMogPipeline<double>;

}  // namespace mog
