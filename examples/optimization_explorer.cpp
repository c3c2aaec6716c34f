// Optimization explorer: the paper's methodology packaged as a tool. Steps
// through optimization levels A..F (plus the tiled variant) on a scene you
// configure from the command line, printing for each step the profiler
// metrics the paper uses to explain *why* the step helps — and the modeled
// full-scale speedup.
//
//   $ ./examples/optimization_explorer [width] [height] [frames]
#include <cstdio>
#include <exception>

#include "mog/common/strutil.hpp"
#include "mog/kernels/opt_level.hpp"
#include "mog/pipeline/experiment.hpp"

int main(int argc, char** argv) try {
  if (argc > 4) {
    std::fprintf(stderr,
                 "usage: optimization_explorer [width] [height] [frames]\n");
    return 2;
  }
  mog::ExperimentConfig cfg;
  cfg.width = argc > 1 ? mog::parse_int(argv[1], 16, 4096, "width") : 512;
  cfg.height = argc > 2 ? mog::parse_int(argv[2], 16, 4096, "height") : 288;
  cfg.frames = argc > 3 ? mog::parse_int(argv[3], 1, 100000, "frames") : 16;
  cfg.warmup_frames = cfg.frames / 4;

  std::printf("workload: %dx%d, %d frames, %d Gaussians, double precision\n",
              cfg.width, cfg.height, cfg.frames, cfg.params.num_components);
  std::printf(
      "counters extrapolate to the paper's 450 full-HD frames (227.3 s on "
      "the reference CPU)\n\n");
  std::printf("%-28s %9s %10s %8s %8s %8s %8s\n", "configuration", "speedup",
              "kernel_ms", "occup%", "br_eff%", "mem_eff%", "regs");

  auto report = [](const char* name, const mog::ExperimentResult& r) {
    const double ratio = (1920.0 * 1080.0) /
                         (static_cast<double>(r.config.width) *
                          r.config.height);
    std::printf("%-28s %8.1fx %10.2f %8.1f %8.1f %8.1f %8d\n", name,
                r.speedup, 1e3 * r.kernel_timing.total_seconds * ratio,
                100.0 * r.occupancy.achieved,
                100.0 * r.per_frame.branch_efficiency(),
                100.0 * r.per_frame.memory_access_efficiency(),
                r.per_frame.regs_per_thread);
  };

  for (const auto level : mog::kernels::kAllLevels) {
    mog::ExperimentConfig c = cfg;
    c.level = level;
    char name[80];
    std::snprintf(name, sizeof name, "%s %s", mog::kernels::to_string(level),
                  mog::kernels::describe(level));
    report(name, run_gpu_experiment(c));
  }
  for (const int group : {1, 8}) {
    mog::ExperimentConfig c = cfg;
    c.tiled = true;
    c.tiled_config.frame_group = group;
    if (c.frames < 2 * group) c.frames = 2 * group;
    char name[80];
    std::snprintf(name, sizeof name, "tiled, frame group %d", group);
    report(name, run_gpu_experiment(c));
  }

  std::printf(
      "\nreading the table like the paper does:\n"
      "  A->B  coalescing: watch mem_eff%% and the kernel time collapse\n"
      "  B->C  overlap: same kernel, transfers hidden (speedup only)\n"
      "  C->D  no sort: fewer branches, fewer registers, higher occupancy\n"
      "  D->E  predication: br_eff%% and mem_eff%% approach 100\n"
      "  E->F  register diet: occupancy pays for the recomputation\n"
      "  tiled g=8: parameter traffic amortized across the frame group\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
