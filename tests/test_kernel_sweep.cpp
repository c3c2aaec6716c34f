// Property-style sweep over the full kernel configuration space:
// every optimization level x precision x component count (plus tiled
// variants), each checked against the matching CPU reference for decision
// agreement and model sanity. This is the broad net behind the targeted
// tests in test_kernels.cpp.
//
// Each case also runs through every x86-64 level's own kernel build
// (mog/kernels/isa.hpp) at 1, 2 and 8 executor threads: every mask, every
// launch's counters and the final model must equal the pipeline's run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "isa_levels.hpp"
#include "mog/cpu/serial_mog.hpp"
#include "mog/kernels/isa.hpp"
#include "mog/metrics/confusion.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

constexpr int kW = 64, kH = 32, kFrames = 12;

using SweepParam =
    std::tuple<kernels::OptLevel, bool /*float*/, int /*components*/>;

class KernelSweep : public ::testing::TestWithParam<SweepParam> {};

/// Masks, per-launch counters (every visit_metrics value plus the raw
/// requested bytes) and the final model of one run.
template <typename T>
struct SweepRun {
  std::vector<FrameU8> masks;
  std::vector<double> counters;
  std::vector<T> model;
};

template <typename T>
void record(SweepRun<T>& run, const gpusim::KernelStats& stats) {
  gpusim::visit_metrics(stats, [&](const char*, double v, bool) {
    run.counters.push_back(v);
  });
  run.counters.push_back(static_cast<double>(stats.bytes_requested_load));
  run.counters.push_back(static_cast<double>(stats.bytes_requested_store));
}

template <typename T>
std::vector<T> flatten(const MogModel<T>& m) {
  std::vector<T> out(m.weights().begin(), m.weights().end());
  out.insert(out.end(), m.means().begin(), m.means().end());
  out.insert(out.end(), m.sds().begin(), m.sds().end());
  return out;
}

/// Bitwise equality of two runs (NaN-proof, -0.0 distinct from 0.0).
template <typename T>
void expect_same_run(const SweepRun<T>& got, const SweepRun<T>& want) {
  ASSERT_EQ(got.masks.size(), want.masks.size());
  for (std::size_t i = 0; i < got.masks.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(got.masks[i].pixels(),
                                   want.masks[i].pixels()))
        << "mask " << i << " differs";
  ASSERT_EQ(got.counters.size(), want.counters.size());
  EXPECT_EQ(std::memcmp(got.counters.data(), want.counters.data(),
                        got.counters.size() * sizeof(double)),
            0)
      << "launch counters differ";
  ASSERT_EQ(got.model.size(), want.model.size());
  EXPECT_EQ(std::memcmp(got.model.data(), want.model.data(),
                        got.model.size() * sizeof(T)),
            0)
      << "model state differs";
}

/// Runs `run(isa, threads)` at every level this host runs x {1, 2, 8}
/// executor threads and expects each run to equal `want`.
template <typename T, typename RunFn>
void expect_every_level_matches(const SweepRun<T>& want, RunFn&& run) {
  test::for_each_runnable_level([&](kernels::IsaLevel isa) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("executor_threads=" + std::to_string(threads));
      expect_same_run(run(isa, threads), want);
    }
  });
}

gpusim::Device make_device(int executor_threads) {
  gpusim::DeviceSpec spec;
  spec.executor_threads = executor_threads;
  return gpusim::Device{spec};
}

/// The pipeline's per-frame launches (MoG kernel, then level G's fused
/// epilogue), through the entry points of kernel build `isa`.
template <typename T>
SweepRun<T> run_frames_at(kernels::IsaLevel isa, int threads,
                          kernels::OptLevel level, const MogParams& params,
                          const SyntheticScene& scene) {
  gpusim::Device device = make_device(threads);
  const auto tp = TypedMogParams<T>::from(params);
  kernels::DeviceMogState<T> state{device, kW, kH, params,
                                   kernels::uses_aos_layout(level)
                                       ? kernels::ParamLayout::kAoS
                                       : kernels::ParamLayout::kSoA};
  const std::size_t n = state.num_pixels();
  auto frame_buf = device.memory().alloc<std::uint8_t>(n);
  auto fg_buf = device.memory().alloc<std::uint8_t>(n);
  auto pp_buf = device.memory().alloc<std::uint8_t>(n);
  const bool fused = kernels::uses_fused_postproc(level);
  SweepRun<T> run;
  for (int t = 0; t < kFrames; ++t) {
    const FrameU8 f = scene.frame(t);
    gpusim::copy_to_device(frame_buf, f.data(), n);
    record(run, kernels::launch_mog_frame<T>(isa, device, state, frame_buf,
                                             fg_buf, tp, level));
    if (fused)
      record(run, kernels::launch_fused_postproc(
                      isa, device, fg_buf, pp_buf, kW, kH,
                      fused_validation_config(),
                      kernels::kDefaultThreadsPerBlock));
    FrameU8 mask(kW, kH);
    gpusim::copy_from_device(mask.data(), fused ? pp_buf : fg_buf, n);
    run.masks.push_back(std::move(mask));
  }
  run.model = flatten(state.download(params));
  return run;
}

template <typename T>
void run_sweep(kernels::OptLevel level, int components) {
  SceneConfig sc;
  sc.width = kW;
  sc.height = kH;
  sc.seed = 1234;
  const SyntheticScene scene{sc};

  MogParams params;
  params.num_components = components;

  typename GpuMogPipeline<T>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.params = params;
  cfg.level = level;
  GpuMogPipeline<T> gpu{cfg};
  SerialMog<T> cpu{kW, kH, params};

  // Level G post-processes its masks on the device; the reference gets the
  // same cleaning (from the validated config) so decisions stay comparable.
  const MaskPostprocConfig& pp = gpu.config().postproc;
  const bool pp_active = pp.enabled && pp.validation.active();

  FrameU8 cpu_fg, gpu_fg;
  double disagreement = 0;
  SweepRun<T> pipeline_run;
  for (int t = 0; t < kFrames; ++t) {
    const FrameU8 f = scene.frame(t);
    cpu.apply(f, cpu_fg);
    ASSERT_TRUE(gpu.process(f, gpu_fg));
    pipeline_run.masks.push_back(gpu_fg);
    if (t >= 4)
      disagreement += mask_disagreement(
          pp_active ? validate_foreground(cpu_fg, pp.validation) : cpu_fg,
          gpu_fg);
  }
  // Decisions track the same-precision CPU reference closely for every
  // configuration (F's diff rewrite flips a small fraction; others are
  // near-exact).
  EXPECT_LT(disagreement / (kFrames - 4), 0.02);

  // Model state remains sane.
  const MogModel<T> m = gpu.model();
  for (std::size_t p = 0; p < m.num_pixels(); p += 3) {
    T sum{};
    for (int k = 0; k < components; ++k) {
      ASSERT_TRUE(std::isfinite(static_cast<double>(m.weight(p, k))));
      ASSERT_TRUE(std::isfinite(static_cast<double>(m.mean(p, k))));
      ASSERT_GE(m.sd(p, k), static_cast<T>(params.min_sd) - T(1e-5));
      sum += m.weight(p, k);
    }
    ASSERT_NEAR(static_cast<double>(sum), 1.0, 1e-5);
  }

  // Profiler counters are populated and self-consistent.
  const auto stats = gpu.per_frame_stats();
  EXPECT_GT(stats.issue_cycles, 0u);
  EXPECT_GT(stats.load_transactions, 0u);
  EXPECT_GT(stats.branches_executed, stats.branches_divergent);
  EXPECT_GT(gpu.occupancy().achieved, 0.05);
  EXPECT_GT(gpu.modeled_seconds(), 0.0);

  // Every level's build, at every thread count, reproduces the pipeline's
  // run exactly; the baseline build at one thread supplies the counters,
  // which the pipeline only keeps summed.
  const SweepRun<T> base = run_frames_at<T>(kernels::IsaLevel::kBaseline, 1,
                                            level, params, scene);
  pipeline_run.counters = base.counters;
  pipeline_run.model = flatten(m);
  expect_every_level_matches(pipeline_run, [&](kernels::IsaLevel isa,
                                               int threads) {
    return run_frames_at<T>(isa, threads, level, params, scene);
  });
}

TEST_P(KernelSweep, TracksCpuReferenceAndStaysSane) {
  const auto [level, use_float, components] = GetParam();
  if (use_float)
    run_sweep<float>(level, components);
  else
    run_sweep<double>(level, components);
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, KernelSweep,
    ::testing::Combine(::testing::ValuesIn(kernels::kAllLevels),
                       ::testing::Bool(), ::testing::Values(3, 5)),
    [](const auto& suite_info) {
      return std::string(kernels::to_string(std::get<0>(suite_info.param))) +
             (std::get<1>(suite_info.param) ? "_f32_K" : "_f64_K") +
             std::to_string(std::get<2>(suite_info.param));
    });

// Tiled sweep: precision x component count at a fixed group size.
using TiledParam = std::tuple<bool /*float*/, int /*components*/>;
class TiledSweep : public ::testing::TestWithParam<TiledParam> {};

/// The pipeline's frame-group launches of the tiled variant, through the
/// entry points of kernel build `isa`.
template <typename T>
SweepRun<T> run_groups_at(kernels::IsaLevel isa, int threads,
                          const MogParams& params,
                          const kernels::TiledConfig& tcfg,
                          const SyntheticScene& scene, int num_frames) {
  gpusim::Device device = make_device(threads);
  const auto tp = TypedMogParams<T>::from(params);
  kernels::DeviceMogState<T> state{device, kW, kH, params,
                                   kernels::ParamLayout::kSoA};
  const std::size_t n = state.num_pixels();
  std::vector<gpusim::DevSpan<std::uint8_t>> frames, fgs;
  for (int i = 0; i < tcfg.frame_group; ++i) {
    frames.push_back(device.memory().alloc<std::uint8_t>(n));
    fgs.push_back(device.memory().alloc<std::uint8_t>(n));
  }
  SweepRun<T> run;
  for (int t0 = 0; t0 < num_frames; t0 += tcfg.frame_group) {
    for (int i = 0; i < tcfg.frame_group; ++i) {
      const FrameU8 f = scene.frame(t0 + i);
      gpusim::copy_to_device(frames[static_cast<std::size_t>(i)], f.data(),
                             n);
    }
    record(run, kernels::launch_tiled_group<T>(isa, device, state, frames,
                                               fgs, tp, tcfg));
    for (const auto& buf : fgs) {
      FrameU8 mask(kW, kH);
      gpusim::copy_from_device(mask.data(), buf, n);
      run.masks.push_back(std::move(mask));
    }
  }
  run.model = flatten(state.download(params));
  return run;
}

template <typename T>
void run_tiled_sweep(int components) {
  SceneConfig sc;
  sc.width = kW;
  sc.height = kH;
  sc.seed = 77;
  const SyntheticScene scene{sc};

  MogParams params;
  params.num_components = components;

  typename GpuMogPipeline<T>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.params = params;
  cfg.tiled = true;
  cfg.tiled_config.frame_group = 4;
  cfg.tiled_config.tile_pixels = 64;
  GpuMogPipeline<T> gpu{cfg};
  SerialMog<T> cpu{kW, kH, params};

  FrameU8 cpu_fg, gpu_fg;
  std::vector<FrameU8> cpu_masks;
  SweepRun<T> pipeline_run;
  for (int t = 0; t < 8; ++t) {
    const FrameU8 f = scene.frame(t);
    cpu.apply(f, cpu_fg);
    cpu_masks.push_back(cpu_fg);
    if (gpu.process(f, gpu_fg))
      for (const FrameU8& mask : gpu.last_group_masks())
        pipeline_run.masks.push_back(mask);
  }
  // Two complete groups: compare the final group's masks.
  const auto& masks = gpu.last_group_masks();
  ASSERT_EQ(masks.size(), 4u);
  double disagreement = 0;
  for (int i = 0; i < 4; ++i)
    disagreement +=
        mask_disagreement(masks[static_cast<std::size_t>(i)],
                          cpu_masks[static_cast<std::size_t>(4 + i)]);
  EXPECT_LT(disagreement / 4, 0.02);
  EXPECT_EQ(gpu.per_frame_stats().shared_bytes_per_block,
            3u * 64 * static_cast<unsigned>(components) * sizeof(T));

  // Every level's build, at every thread count, reproduces the pipeline's
  // run exactly (see run_sweep).
  const kernels::TiledConfig& tcfg = cfg.tiled_config;
  const SweepRun<T> base = run_groups_at<T>(kernels::IsaLevel::kBaseline, 1,
                                            params, tcfg, scene, 8);
  pipeline_run.counters = base.counters;
  pipeline_run.model = flatten(gpu.model());
  expect_every_level_matches(pipeline_run, [&](kernels::IsaLevel isa,
                                               int threads) {
    return run_groups_at<T>(isa, threads, params, tcfg, scene, 8);
  });
}

TEST_P(TiledSweep, TracksCpuReference) {
  const auto [use_float, components] = GetParam();
  if (use_float)
    run_tiled_sweep<float>(components);
  else
    run_tiled_sweep<double>(components);
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionByComponents, TiledSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(3, 5)),
    [](const auto& suite_info) {
      return std::string(std::get<0>(suite_info.param) ? "f32_K" : "f64_K") +
             std::to_string(std::get<1>(suite_info.param));
    });

}  // namespace
}  // namespace mog
