// Optimization step G: the fused mask post-processing epilogue.
//
// The contract under test is bit-exactness: at level G the pipeline's mask
// must equal validate_foreground() applied to the level-F raw mask —
// per byte, at any executor thread count, for full and ragged grids, and
// for the tiled variant. The unfused device chain (launch_mask_stage) must
// match the host stages individually. On top of equivalence, the launch
// and DRAM accounting that motivates the fusion is pinned: G spends
// strictly fewer launches and strictly fewer DRAM bytes per frame than
// level F running the same stages unfused.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "isa_levels.hpp"
#include "mog/common/rng.hpp"
#include "mog/kernels/postproc_kernels.hpp"
#include "mog/postproc/morphology.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using kernels::MaskStageOp;
using kernels::OptLevel;

FrameU8 random_mask(int w, int h, double fg_fraction, std::uint64_t seed) {
  Rng rng{seed};
  FrameU8 m(w, h, 0);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = rng.chance(fg_fraction) ? 255 : 0;
  return m;
}

void expect_masks_equal(const FrameU8& got, const FrameU8& want,
                        const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (int y = 0; y < got.height(); ++y)
    for (int x = 0; x < got.width(); ++x)
      ASSERT_EQ(got.at(x, y), want.at(x, y))
          << what << " first differs at (" << x << "," << y << ")";
}

// ---------------------------------------------------------------------------
// Kernel level: device stages vs the host postproc, byte for byte
// ---------------------------------------------------------------------------

FrameU8 device_fused(const FrameU8& raw, const ValidationConfig& cfg,
                     int executor_threads, int threads_per_block = 128) {
  gpusim::DeviceSpec spec;
  spec.executor_threads = executor_threads;
  gpusim::Device device{spec};
  const std::size_t n = raw.size();
  const auto in = device.memory().alloc<std::uint8_t>(n);
  const auto out = device.memory().alloc<std::uint8_t>(n);
  gpusim::copy_to_device(in, raw.data(), n);
  kernels::launch_fused_postproc(device, in, out, raw.width(), raw.height(),
                                 cfg, threads_per_block);
  FrameU8 cleaned(raw.width(), raw.height());
  gpusim::copy_from_device(cleaned.data(), out, n);
  return cleaned;
}

FrameU8 device_stage(kernels::IsaLevel isa, const FrameU8& mask,
                     MaskStageOp op, int executor_threads) {
  gpusim::DeviceSpec spec;
  spec.executor_threads = executor_threads;
  gpusim::Device device{spec};
  const std::size_t n = mask.size();
  const auto in = device.memory().alloc<std::uint8_t>(n);
  const auto out = device.memory().alloc<std::uint8_t>(n);
  gpusim::copy_to_device(in, mask.data(), n);
  kernels::launch_mask_stage(isa, device, in, out, mask.width(), mask.height(),
                             op, 128);
  FrameU8 result(mask.width(), mask.height());
  gpusim::copy_from_device(result.data(), out, n);
  return result;
}

// Frame shapes chosen to hit every geometry case: block-aligned, ragged
// width (tile overhang), tiny frames narrower/shorter than one tile, and a
// total pixel count that leaves a ragged last warp in the unfused kernel.
const struct {
  int w, h;
} kShapes[] = {{64, 48}, {61, 17}, {33, 5}, {7, 9}, {32, 4}};

TEST(FusedPostprocKernel, MatchesHostValidateForeground) {
  const ValidationConfig cfg = fused_validation_config();
  for (const auto& s : kShapes) {
    for (const double fg : {0.05, 0.35, 0.7}) {
      const FrameU8 raw =
          random_mask(s.w, s.h, fg, static_cast<std::uint64_t>(s.w * 100 + 7));
      const FrameU8 want = validate_foreground(raw, cfg);
      for (const int threads : {1, 2, 8}) {
        const FrameU8 got = device_fused(raw, cfg, threads);
        expect_masks_equal(got, want,
                           std::to_string(s.w) + "x" + std::to_string(s.h) +
                               " fg=" + std::to_string(fg) +
                               " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(FusedPostprocKernel, SingleStageConfigsMatchHost) {
  // despeckle-only and close-only exercise the 1-op and 2-op chains
  // (shorter halo rings) rather than the full 3-op default.
  ValidationConfig median_only = fused_validation_config();
  median_only.close_radius = 0;
  ValidationConfig close_only = fused_validation_config();
  close_only.despeckle = false;
  const FrameU8 raw = random_mask(61, 17, 0.4, 99);
  expect_masks_equal(device_fused(raw, median_only, 2),
                     validate_foreground(raw, median_only), "median only");
  expect_masks_equal(device_fused(raw, close_only, 2),
                     validate_foreground(raw, close_only), "close only");
}

TEST(FusedPostprocKernel, WideBlocksAndTiledShapeMatch) {
  // The tiled pipeline launches postproc with threads_per_block =
  // tile_pixels (640 → a 32x20 tile); also pin a 32-thread block (th=1).
  const ValidationConfig cfg = fused_validation_config();
  const FrameU8 raw = random_mask(64, 48, 0.3, 41);
  const FrameU8 want = validate_foreground(raw, cfg);
  expect_masks_equal(device_fused(raw, cfg, 2, 640), want, "tpb=640");
  expect_masks_equal(device_fused(raw, cfg, 2, 32), want, "tpb=32");
}

TEST(MaskStageKernel, StagesMatchHostOps) {
  // At every x86-64 kernel level this host runs.
  test::for_each_runnable_level([](kernels::IsaLevel isa) {
    for (const auto& s : kShapes) {
      const FrameU8 m = random_mask(s.w, s.h, 0.4,
                                    static_cast<std::uint64_t>(s.h * 31 + 3));
      const std::string shape =
          std::to_string(s.w) + "x" + std::to_string(s.h);
      expect_masks_equal(device_stage(isa, m, MaskStageOp::kMedian3, 2),
                         median3(m), shape + " median3");
      expect_masks_equal(device_stage(isa, m, MaskStageOp::kDilate1, 2),
                         dilate(m, 1), shape + " dilate");
      expect_masks_equal(device_stage(isa, m, MaskStageOp::kErode1, 2),
                         erode(m, 1), shape + " erode");
    }
  });
}

// ---------------------------------------------------------------------------
// Pipeline level: G masks == validate_foreground(F masks)
// ---------------------------------------------------------------------------

template <typename ConfigFn>
std::vector<FrameU8> run_pipeline_masks(int w, int h, int frames,
                                        int executor_threads,
                                        ConfigFn&& tweak) {
  GpuMogPipeline<double>::Config cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.executor_threads = executor_threads;
  tweak(cfg);
  GpuMogPipeline<double> pipe{cfg};

  SceneConfig scene_cfg;
  scene_cfg.width = w;
  scene_cfg.height = h;
  scene_cfg.seed = 2026;
  const SyntheticScene scene{scene_cfg};

  std::vector<FrameU8> masks;
  FrameU8 fg;
  for (int t = 0; t < frames; ++t) {
    if (pipe.process(scene.frame(t), fg))
      for (const FrameU8& m : pipe.last_group_masks()) masks.push_back(m);
  }
  std::vector<FrameU8> rest;
  pipe.flush(rest);
  for (FrameU8& m : rest) masks.push_back(std::move(m));
  return masks;
}

void expect_g_equals_postprocessed_f(int w, int h, int frames, bool tiled) {
  for (const int threads : {1, 2, 8}) {
    const auto f_masks =
        run_pipeline_masks(w, h, frames, threads, [&](auto& cfg) {
          cfg.level = OptLevel::kF;
          cfg.tiled = tiled;
        });
    const auto g_masks =
        run_pipeline_masks(w, h, frames, threads, [&](auto& cfg) {
          cfg.level = OptLevel::kG;
          cfg.tiled = tiled;
        });
    ASSERT_EQ(f_masks.size(), g_masks.size());
    ASSERT_EQ(f_masks.size(), static_cast<std::size_t>(frames));
    for (std::size_t t = 0; t < f_masks.size(); ++t)
      expect_masks_equal(
          g_masks[t],
          validate_foreground(f_masks[t], fused_validation_config()),
          (tiled ? "tiled" : "untiled") + std::string(" frame ") +
              std::to_string(t) + " threads=" + std::to_string(threads));
  }
}

TEST(FusedPostprocPipeline, GEqualsHostPostprocessedF) {
  expect_g_equals_postprocessed_f(64, 48, 6, /*tiled=*/false);
}

TEST(FusedPostprocPipeline, GEqualsHostPostprocessedFRaggedGrid) {
  // 61*17 = 1037 pixels: ragged last block and a 13-lane last warp in the
  // MoG pass, tile overhang on both axes in the fused epilogue.
  expect_g_equals_postprocessed_f(61, 17, 5, /*tiled=*/false);
}

TEST(FusedPostprocPipeline, GEqualsHostPostprocessedFTiled) {
  expect_g_equals_postprocessed_f(64, 48, 8, /*tiled=*/true);
}

TEST(FusedPostprocPipeline, UnfusedDeviceChainMatchesToo) {
  // Below G the same stages run as the unfused device chain; masks must
  // still be bit-identical to the host postproc.
  const auto f_masks = run_pipeline_masks(64, 48, 5, 2, [](auto& cfg) {
    cfg.level = OptLevel::kF;
  });
  const auto pp_masks = run_pipeline_masks(64, 48, 5, 2, [](auto& cfg) {
    cfg.level = OptLevel::kF;
    cfg.postproc.enabled = true;
  });
  ASSERT_EQ(pp_masks.size(), f_masks.size());
  for (std::size_t t = 0; t < f_masks.size(); ++t)
    expect_masks_equal(
        pp_masks[t],
        validate_foreground(f_masks[t], fused_validation_config()),
        "unfused frame " + std::to_string(t));
}

// ---------------------------------------------------------------------------
// Accounting: fusion must actually save launches and DRAM traffic
// ---------------------------------------------------------------------------

TEST(FusedPostprocPipeline, StrictlyFewerLaunchesAndDramBytesThanUnfused) {
  const int frames = 4;
  auto run = [&](OptLevel level, bool postproc) {
    GpuMogPipeline<double>::Config cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.level = level;
    cfg.postproc.enabled = postproc;
    GpuMogPipeline<double> pipe{cfg};
    SceneConfig scene_cfg;
    scene_cfg.width = 64;
    scene_cfg.height = 48;
    const SyntheticScene scene{scene_cfg};
    FrameU8 fg;
    for (int t = 0; t < frames; ++t) pipe.process(scene.frame(t), fg);
    struct {
      std::uint64_t launches;
      std::uint64_t dram_bytes;
    } r{pipe.kernel_launches(), pipe.per_frame_stats().bytes_transferred()};
    return r;
  };

  const auto fused = run(OptLevel::kG, false);      // postproc implied by G
  const auto unfused = run(OptLevel::kF, true);     // same stages, unfused
  const auto bare = run(OptLevel::kF, false);       // no postproc at all

  // The chain (median, dilate, erode) costs 3 launches unfused, 1 fused.
  EXPECT_EQ(bare.launches, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(fused.launches, static_cast<std::uint64_t>(2 * frames));
  EXPECT_EQ(unfused.launches, static_cast<std::uint64_t>(4 * frames));

  // DRAM mask traffic: the unfused chain round-trips every intermediate
  // mask; the fused epilogue reads raw (with halo overlap) and writes the
  // cleaned mask only.
  EXPECT_LT(fused.dram_bytes, unfused.dram_bytes);
  EXPECT_GT(fused.dram_bytes, bare.dram_bytes);
}

// ---------------------------------------------------------------------------
// Configuration guard rails
// ---------------------------------------------------------------------------

TEST(FusedPostprocConfig, ValidateFusedRejectsInexpressibleStages) {
  ValidationConfig big_close = fused_validation_config();
  big_close.close_radius = 2;
  EXPECT_THROW(big_close.validate_fused(), Error);
  EXPECT_FALSE(big_close.fusable());

  ValidationConfig with_open = fused_validation_config();
  with_open.open_radius = 1;
  EXPECT_THROW(with_open.validate_fused(), Error);
  EXPECT_FALSE(with_open.fusable());

  ValidationConfig with_blobs = fused_validation_config();
  with_blobs.min_blob_area = 24;
  EXPECT_THROW(with_blobs.validate_fused(), Error);
  EXPECT_FALSE(with_blobs.fusable());

  EXPECT_TRUE(fused_validation_config().fusable());
  EXPECT_NO_THROW(fused_validation_config().validate_fused());
}

TEST(FusedPostprocPipeline, UnfusableConfigFallsBackToHostWithCounter) {
  // Level G with blob filtering: the epilogue cannot express it, so the
  // pipeline must post-process on the host — recording every fallback —
  // and still produce exactly validate_foreground(F mask).
  ValidationConfig heavy = fused_validation_config();
  heavy.min_blob_area = 8;
  const int frames = 3;

  const auto f_masks = run_pipeline_masks(64, 48, frames, 2, [](auto& cfg) {
    cfg.level = OptLevel::kF;
  });

  GpuMogPipeline<double>::Config cfg;
  cfg.width = 64;
  cfg.height = 48;
  cfg.level = OptLevel::kG;
  cfg.postproc.validation = heavy;
  GpuMogPipeline<double> pipe{cfg};
  EXPECT_FALSE(pipe.device_postproc_active());

  SceneConfig scene_cfg;
  scene_cfg.width = 64;
  scene_cfg.height = 48;
  scene_cfg.seed = 2026;
  const SyntheticScene scene{scene_cfg};
  FrameU8 fg;
  for (int t = 0; t < frames; ++t) {
    ASSERT_TRUE(pipe.process(scene.frame(t), fg));
    const auto& raw = f_masks[static_cast<std::size_t>(t)];
    expect_masks_equal(fg, validate_foreground(raw, heavy),
                       "fallback frame " + std::to_string(t));
  }
  EXPECT_EQ(pipe.host_postproc_fallbacks(), static_cast<std::uint64_t>(frames));
  EXPECT_EQ(pipe.kernel_launches(), static_cast<std::uint64_t>(frames));
}

TEST(FusedPostprocKernel, LaunchRejectsBadConfigs) {
  gpusim::Device device;
  const auto in = device.memory().alloc<std::uint8_t>(64);
  const auto out = device.memory().alloc<std::uint8_t>(64);
  ValidationConfig bad = fused_validation_config();
  bad.close_radius = 2;
  EXPECT_THROW(
      kernels::launch_fused_postproc(device, in, out, 8, 8, bad, 128), Error);
  ValidationConfig none = fused_validation_config();
  none.despeckle = false;
  none.close_radius = 0;
  EXPECT_THROW(
      kernels::launch_fused_postproc(device, in, out, 8, 8, none, 128), Error);
  EXPECT_THROW(kernels::launch_mask_stage(device, in, in, 8, 8,
                                          MaskStageOp::kMedian3, 128),
               Error);
}

}  // namespace
}  // namespace mog
