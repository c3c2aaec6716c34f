#include "mog/pipeline/experiment.hpp"

#include <cmath>
#include <deque>

#include "mog/common/strutil.hpp"
#include "mog/cpu/serial_mog.hpp"
#include "mog/gpusim/transfer_model.hpp"
#include "mog/metrics/ssim.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {

std::string ExperimentConfig::label() const {
  std::string s = tiled ? strprintf("Tiled(g=%d)", tiled_config.frame_group)
                        : kernels::to_string(level);
  // G implies postproc; below G an enabled postproc is worth calling out.
  if (postproc.enabled && !kernels::uses_fused_postproc(level)) s += "+pp";
  s += strprintf(" K=%d %s", params.num_components,
                 precision == Precision::kDouble ? "double" : "float");
  return s;
}

gpusim::KernelStats scale_stats(const gpusim::KernelStats& stats,
                                double ratio) {
  gpusim::KernelStats s = stats;
  for (const gpusim::KernelCounter& c : gpusim::kKernelCounters) {
    const double scaled = static_cast<double>(s.*c.field) * ratio;
    s.*c.field = static_cast<std::uint64_t>(std::llround(scaled));
  }
  return s;
}

namespace {

/// Full-scale (1080p, 450-frame) modeled GPU seconds from the pipeline's
/// measured per-frame counters, under its own transfer schedule.
template <typename T>
double extrapolate_fullhd450(const GpuMogPipeline<T>& gpu) {
  constexpr double kFullPixels = 1920.0 * 1080.0;
  constexpr std::uint64_t kFullFrames = 450;
  const auto& cfg = gpu.config();
  const double ratio =
      kFullPixels / (static_cast<double>(cfg.width) * cfg.height);
  const gpusim::DeviceSpec& spec = gpu.device_spec();

  const gpusim::KernelStats full = scale_stats(gpu.per_frame_stats(), ratio);
  const gpusim::KernelTiming timing =
      gpusim::kernel_time(full, gpu.occupancy(), spec);

  gpusim::FrameSchedule sched;
  sched.upload_seconds =
      gpusim::transfer_seconds(spec, static_cast<std::uint64_t>(kFullPixels));
  sched.download_seconds = sched.upload_seconds;
  sched.kernel_seconds = timing.total_seconds;
  return gpusim::pipeline_seconds(sched, kFullFrames, gpu.overlapped(),
                                  gpu.frames_per_launch());
}

template <typename T>
ExperimentResult run_impl(const ExperimentConfig& cfg) {
  SceneConfig scene_cfg;
  scene_cfg.width = cfg.width;
  scene_cfg.height = cfg.height;
  scene_cfg.seed = cfg.seed;
  const SyntheticScene scene{scene_cfg};

  typename GpuMogPipeline<T>::Config pipe_cfg;
  pipe_cfg.width = cfg.width;
  pipe_cfg.height = cfg.height;
  pipe_cfg.params = cfg.params;
  pipe_cfg.level = cfg.level;
  pipe_cfg.tiled = cfg.tiled;
  pipe_cfg.tiled_config = cfg.tiled_config;
  pipe_cfg.threads_per_block = cfg.threads_per_block;
  pipe_cfg.postproc = cfg.postproc;
  pipe_cfg.device = cfg.device;
  GpuMogPipeline<T> gpu{pipe_cfg};

  // CPU double-precision serial reference: the quality ground truth.
  SerialMog<double> cpu_ref{cfg.width, cfg.height, cfg.params};

  // Pending frames whose GPU masks have not been produced yet (tiled
  // grouping delays them); pairs of (frame index, CPU mask).
  std::deque<std::pair<int, FrameU8>> pending;

  double msssim_sum = 0, disagreement_sum = 0;
  int quality_frames = 0;
  ConfusionCounts vs_truth;

  FrameU8 frame, truth, cpu_fg, gpu_fg;
  // The pipeline may clean its masks (validated() force-enables postproc at
  // level G); give the CPU reference masks the identical host stages so the
  // comparison measures MoG divergence, not the clean-up itself.
  const MaskPostprocConfig& pp = gpu.config().postproc;
  const bool pp_active = pp.enabled && pp.validation.active();
  auto compare = [&](int t, const FrameU8& gpu_mask, const FrameU8& cpu_mask) {
    if (t < cfg.warmup_frames) return;
    FrameU8 cleaned;
    const FrameU8* ref = &cpu_mask;
    if (pp_active) {
      cleaned = validate_foreground(cpu_mask, pp.validation);
      ref = &cleaned;
    }
    if (cfg.measure_quality) {
      msssim_sum += ms_ssim(gpu_mask, *ref);
      ++quality_frames;
    }
    disagreement_sum += mask_disagreement(gpu_mask, *ref);
    vs_truth += compare_masks(gpu_mask, scene.truth(t));
  };

  int compared = 0;
  for (int t = 0; t < cfg.frames; ++t) {
    scene.render(t, &frame, &truth);
    cpu_ref.apply(frame, cpu_fg);  // ground truth runs on every frame
    const bool done = gpu.process(frame, gpu_fg);
    pending.emplace_back(t, cpu_fg);
    if (done) {
      if (cfg.tiled) {
        for (const FrameU8& mask : gpu.last_group_masks()) {
          compare(pending.front().first, mask, pending.front().second);
          pending.pop_front();
          ++compared;
        }
      } else {
        compare(pending.front().first, gpu_fg, pending.front().second);
        pending.pop_front();
        ++compared;
      }
    }
  }
  {
    std::vector<FrameU8> rest;
    gpu.flush(rest);
    for (const FrameU8& mask : rest) {
      compare(pending.front().first, mask, pending.front().second);
      pending.pop_front();
      ++compared;
    }
  }
  MOG_ASSERT(compared == cfg.frames && pending.empty(),
             "experiment lost track of frames");

  ExperimentResult res;
  res.config = cfg;
  res.per_frame = gpu.per_frame_stats();
  res.occupancy = gpu.occupancy();
  res.kernel_timing = gpu.per_frame_kernel_timing();
  res.gpu_seconds = gpu.modeled_seconds();
  res.launches_per_frame = static_cast<double>(gpu.kernel_launches()) /
                           static_cast<double>(gpu.frames_processed());
  res.host_postproc_fallbacks = gpu.host_postproc_fallbacks();

  const CpuCostModel cost;
  res.cpu_seconds =
      cost.seconds(CpuVariant::kSerial, cfg.precision, cfg.width, cfg.height,
                   cfg.frames, cfg.params.num_components);
  res.cpu_seconds_fullhd450 =
      cost.seconds(CpuVariant::kSerial, cfg.precision, 1920, 1080, 450,
                   cfg.params.num_components);
  res.gpu_seconds_fullhd450 = extrapolate_fullhd450(gpu);
  res.speedup = res.cpu_seconds_fullhd450 / res.gpu_seconds_fullhd450;

  const int qn = cfg.frames - cfg.warmup_frames;
  res.fg_disagreement = qn > 0 ? disagreement_sum / qn : 0.0;
  if (cfg.measure_quality && quality_frames > 0) {
    res.msssim_foreground = msssim_sum / quality_frames;
    const Image<double> bg_gpu =
        to_real<double>(to_u8(gpu.model().background_image()));
    const Image<double> bg_cpu =
        to_real<double>(to_u8(cpu_ref.model().background_image()));
    res.msssim_background = ms_ssim(bg_gpu, bg_cpu);
  }
  res.vs_truth = vs_truth;
  return res;
}

}  // namespace

ExperimentResult run_gpu_experiment(const ExperimentConfig& config) {
  MOG_CHECK(config.frames > config.warmup_frames,
            "need at least one post-warmup frame");
  return config.precision == Precision::kDouble ? run_impl<double>(config)
                                                : run_impl<float>(config);
}

}  // namespace mog
