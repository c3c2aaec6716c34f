// Reproduction regression suite: asserts the paper's headline results hold
// within tolerance bands, so any change to the simulator, the kernels, or
// the calibration constants that breaks the reproduction fails CI.
//
// Paper targets (450 full-HD frames, double, K=3 unless stated):
//   speedups A..F:   13 / 41 / 57 / 85 / 86 / 97        (Fig. 8a)
//   tiled:           101x at frame group 8               (Fig. 10a)
//   float F:         105x                                (Fig. 12a)
//   5-Gaussian:      C 44x, F 92x                        (Fig. 11a)
//   quality:         F lowest, all >= 95% MS-SSIM        (Table IV)
#include <gtest/gtest.h>

#include <map>

#include "mog/common/strutil.hpp"
#include "mog/pipeline/experiment.hpp"

namespace mog {
namespace {

using kernels::OptLevel;

ExperimentConfig repro_config() {
  ExperimentConfig cfg;
  cfg.width = 256;
  cfg.height = 144;
  cfg.frames = 12;
  cfg.warmup_frames = 4;
  cfg.seed = 7;
  return cfg;
}

/// Cache: each configuration is simulated once per test binary run.
const ExperimentResult& cached(const ExperimentConfig& cfg,
                               const std::string& key) {
  static std::map<std::string, ExperimentResult> cache;
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, run_gpu_experiment(cfg)).first;
  return it->second;
}

const ExperimentResult& level_result(OptLevel level) {
  ExperimentConfig cfg = repro_config();
  cfg.level = level;
  return cached(cfg, std::string("L") + kernels::to_string(level));
}

const ExperimentResult& tiled_result(int group) {
  ExperimentConfig cfg = repro_config();
  cfg.level = OptLevel::kF;
  cfg.tiled = true;
  cfg.tiled_config.frame_group = group;
  if (cfg.frames < 2 * group) cfg.frames = 2 * group;
  return cached(cfg, strprintf("T%d", group));
}

struct Band {
  OptLevel level;
  double paper;
  double lo, hi;
};

// GoogleTest prints a Band as its raw bytes, padding included, and ctest
// takes that printout into the test name. A static array is zero-initialized
// first, so the padding after `level` is always zero and the names are the
// same in every build; stack temporaries would leave whatever was there.
constexpr Band kFig8Bands[] = {
    {OptLevel::kA, 13, 9, 26},   {OptLevel::kB, 41, 30, 55},
    {OptLevel::kC, 57, 43, 76},  {OptLevel::kD, 85, 64, 115},
    {OptLevel::kE, 86, 64, 115}, {OptLevel::kF, 97, 73, 122}};

class SpeedupBands : public ::testing::TestWithParam<Band> {};

TEST_P(SpeedupBands, WithinToleranceOfPaper) {
  const Band band = GetParam();
  const double speedup = level_result(band.level).speedup;
  EXPECT_GE(speedup, band.lo) << "paper: " << band.paper << "x";
  EXPECT_LE(speedup, band.hi) << "paper: " << band.paper << "x";
}

INSTANTIATE_TEST_SUITE_P(
    Fig8, SpeedupBands, ::testing::ValuesIn(kFig8Bands),
    [](const auto& suite_info) {
      return std::string{kernels::to_string(suite_info.param.level)};
    });

TEST(Reproduction, LadderOrderingMatchesPaper) {
  // A < B < C < {D,E} < F; the paper's D/E gap is 1%, ours may invert by a
  // few percent (documented), so D and E are only required to sit between
  // C and F.
  const double a = level_result(OptLevel::kA).speedup;
  const double b = level_result(OptLevel::kB).speedup;
  const double c = level_result(OptLevel::kC).speedup;
  const double d = level_result(OptLevel::kD).speedup;
  const double e = level_result(OptLevel::kE).speedup;
  const double f = level_result(OptLevel::kF).speedup;
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_LT(c, e);
  EXPECT_GT(f, c);
  EXPECT_GE(f * 1.05, d);  // F is the best non-tiled level (5% slack)
  EXPECT_GE(f * 1.05, e);
}

TEST(Reproduction, GeneralOptimizationsDominatedByCoalescing) {
  // Fig. 6: A -> B is the big memory jump.
  const auto& a = level_result(OptLevel::kA);
  const auto& b = level_result(OptLevel::kB);
  EXPECT_LT(a.per_frame.memory_access_efficiency(), 0.25);  // paper 17%
  EXPECT_GT(b.per_frame.memory_access_efficiency(), 0.55);  // paper 78%
  EXPECT_GT(b.speedup / a.speedup, 1.8);  // paper 3.2x
}

TEST(Reproduction, OverlapHidesTransfers) {
  // Fig. 5 / B -> C: same kernel, sizeable gain from scheduling alone.
  const auto& b = level_result(OptLevel::kB);
  const auto& c = level_result(OptLevel::kC);
  EXPECT_NEAR(static_cast<double>(c.per_frame.issue_cycles),
              static_cast<double>(b.per_frame.issue_cycles),
              0.01 * static_cast<double>(b.per_frame.issue_cycles));
  EXPECT_GT(c.speedup / b.speedup, 1.2);  // paper 57/41 = 1.39
}

TEST(Reproduction, PredicationReachesNearPerfectEfficiencies) {
  // Fig. 7: E's branch efficiency 99.5%, memory efficiency ~100%.
  const auto& e = level_result(OptLevel::kE);
  EXPECT_GT(e.per_frame.branch_efficiency(), 0.97);
  EXPECT_GT(e.per_frame.memory_access_efficiency(), 0.90);
}

TEST(Reproduction, OccupancyImprovesAcrossAlgSpecificSteps) {
  // Fig. 8b: occupancy 52% at C rises to 65% at F (ours: C < F).
  const auto& c = level_result(OptLevel::kC);
  const auto& f = level_result(OptLevel::kF);
  EXPECT_GT(f.occupancy.achieved, c.occupancy.achieved);
  EXPECT_GT(f.occupancy.achieved, 0.45);
  EXPECT_LT(c.occupancy.achieved, 0.60);
}

TEST(Reproduction, TiledPeaksNearPaperValue) {
  // Fig. 10a: ~101x at frame group 8.
  const double t8 = tiled_result(8).speedup;
  EXPECT_GE(t8, 76);   // 101 - 25%
  EXPECT_LE(t8, 126);  // 101 + 25%
}

TEST(Reproduction, TiledSweepShape) {
  // Fig. 10: speedup rises steeply to g=8 then saturates; memory access
  // efficiency decreases monotonically with the group size.
  const double g1 = tiled_result(1).speedup;
  const double g8 = tiled_result(8).speedup;
  const double g32 = tiled_result(32).speedup;
  EXPECT_GT(g8, 1.3 * g1);
  EXPECT_LT(std::abs(g32 - g8) / g8, 0.15);  // saturation beyond 8
  EXPECT_GT(tiled_result(1).per_frame.memory_access_efficiency(),
            tiled_result(8).per_frame.memory_access_efficiency());
  EXPECT_GT(tiled_result(8).per_frame.memory_access_efficiency(),
            tiled_result(32).per_frame.memory_access_efficiency());
  EXPECT_LT(tiled_result(32).per_frame.memory_access_efficiency(), 0.75);
}

TEST(Reproduction, TiledOccupancyIsSharedMemoryLimited) {
  // Fig. 10b: ~40% occupancy, bound by the 46 KB/block parameter residency.
  const auto& t8 = tiled_result(8);
  EXPECT_NEAR(t8.occupancy.achieved, 0.40, 0.08);
  EXPECT_EQ(t8.occupancy.limiter, gpusim::Occupancy::Limiter::kSharedMem);
}

TEST(Reproduction, FloatReachesPaperSpeedup) {
  // Fig. 12a: float F at 105x (vs the float CPU baseline).
  ExperimentConfig cfg = repro_config();
  cfg.level = OptLevel::kF;
  cfg.precision = Precision::kFloat;
  const auto& r = cached(cfg, "Ffloat");
  EXPECT_GE(r.speedup, 79);   // 105 - 25%
  EXPECT_LE(r.speedup, 131);  // 105 + 25%
  // Float frees the register file: occupancy at least that of double F.
  EXPECT_GE(r.occupancy.achieved,
            level_result(OptLevel::kF).occupancy.achieved);
}

TEST(Reproduction, FiveGaussiansSlowerAndHungrier) {
  // Fig. 11: 5-Gaussian runs slower than 3-Gaussian at the same level and
  // uses more registers (lower occupancy).
  ExperimentConfig cfg = repro_config();
  cfg.level = OptLevel::kF;
  cfg.params.num_components = 5;
  const auto& k5 = cached(cfg, "F5");
  const auto& k3 = level_result(OptLevel::kF);
  EXPECT_LT(k5.speedup, k3.speedup);
  EXPECT_GT(k5.per_frame.regs_per_thread, k3.per_frame.regs_per_thread);
  EXPECT_LT(k5.occupancy.achieved, k3.occupancy.achieved);
  // Paper band for F at K=5: 92x ± 35%.
  EXPECT_GE(k5.speedup, 55);
  EXPECT_LE(k5.speedup, 125);
}

TEST(Reproduction, QualityShapeMatchesTableIV) {
  // Table IV: F is the only level whose rewrite changes decisions; all
  // levels stay >= 95% MS-SSIM. (A..E are bit-exact against the CPU
  // reference here — both sides are IEEE; see EXPERIMENTS.md.)
  ExperimentConfig cfg = repro_config();
  cfg.frames = 16;
  cfg.warmup_frames = 6;
  cfg.measure_quality = true;

  cfg.level = OptLevel::kB;
  const auto& b = cached(cfg, "QB");
  cfg.level = OptLevel::kF;
  const auto& f = cached(cfg, "QF");

  EXPECT_GE(b.msssim_foreground, 0.999);
  EXPECT_GE(b.msssim_background, 0.99);
  EXPECT_GE(f.msssim_foreground, 0.95);      // paper: 95%
  EXPECT_LE(f.msssim_foreground, 0.9999);    // F genuinely differs
  EXPECT_GT(f.fg_disagreement, 0.0);
  EXPECT_EQ(b.fg_disagreement, 0.0);
}

TEST(Reproduction, RegistersSitInPaperRange) {
  // §IV-C discusses 30-36 registers/thread; our tracker should land in the
  // same neighbourhood for every level.
  for (const auto level : kernels::kAllLevels) {
    const int regs = level_result(level).per_frame.regs_per_thread;
    EXPECT_GE(regs, 25) << kernels::to_string(level);
    EXPECT_LE(regs, 45) << kernels::to_string(level);
  }
}

}  // namespace
}  // namespace mog
