// Precision / component-count trade-off study (the paper's §V): for each
// (precision, K) combination, report modeled performance AND measured
// output quality against the double-precision CPU reference — the
// quality-for-speed decision the paper's conclusion says embedded
// deployments will have to make.
//
//   $ ./examples/precision_tradeoff [width] [height]
#include <cstdio>
#include <exception>

#include "mog/common/strutil.hpp"
#include "mog/pipeline/experiment.hpp"

int main(int argc, char** argv) try {
  if (argc > 3) {
    std::fprintf(stderr, "usage: precision_tradeoff [width] [height]\n");
    return 2;
  }
  mog::ExperimentConfig base;
  base.width = argc > 1 ? mog::parse_int(argv[1], 16, 4096, "width") : 384;
  base.height = argc > 2 ? mog::parse_int(argv[2], 16, 4096, "height") : 216;
  base.frames = 24;
  base.warmup_frames = 8;
  base.level = mog::kernels::OptLevel::kF;
  base.measure_quality = true;

  std::printf(
      "level-F GPU pipeline, %dx%d, %d frames; quality vs CPU double "
      "reference\n\n",
      base.width, base.height, base.frames);
  std::printf("%-18s %9s %12s %10s %10s %10s\n", "configuration", "speedup",
              "kernel_ms", "occup%", "fg_msssim", "bg_msssim");

  for (const int k : {3, 5}) {
    for (const mog::Precision prec :
         {mog::Precision::kDouble, mog::Precision::kFloat}) {
      mog::ExperimentConfig cfg = base;
      cfg.params.num_components = k;
      cfg.precision = prec;
      const mog::ExperimentResult r = run_gpu_experiment(cfg);
      const double ratio = (1920.0 * 1080.0) /
                           (static_cast<double>(cfg.width) * cfg.height);
      char name[40];
      std::snprintf(name, sizeof name, "K=%d %s", k,
                    prec == mog::Precision::kDouble ? "double" : "float");
      std::printf("%-18s %8.1fx %12.2f %10.1f %10.4f %10.4f\n", name,
                  r.speedup, 1e3 * r.kernel_timing.total_seconds * ratio,
                  100.0 * r.occupancy.achieved, r.msssim_foreground,
                  r.msssim_background);
    }
  }

  std::printf(
      "\nthe paper's take (§V-C): the float pipeline loses ~5%% MS-SSIM "
      "against the double ground truth but runs fastest — 'the single "
      "precision implementation is clearly preferred'. More components "
      "(K=5) buy robustness on multi-modal scenes at a linear CPU cost and "
      "a superlinear GPU cost (registers + divergence).\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
