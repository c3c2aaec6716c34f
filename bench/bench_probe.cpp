// Diagnostic probe: run every optimization level and print the full counter
// set side by side with the paper's reported values. This is the tool used
// to calibrate gpusim/timing_constants.hpp (DESIGN.md §5) and a useful
// one-stop sanity check when modifying the simulator.
#include <cstdio>

#include "bench_util.hpp"

using namespace mog;
using bench::reporter;

namespace {

/// MOG_PROBE_WIDTH/HEIGHT/FRAMES, in the ranges of MOG_BENCH_*.
ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.width = bench::env_int("MOG_PROBE_WIDTH", 512, 16, 4096);
  cfg.height = bench::env_int("MOG_PROBE_HEIGHT", 288, 16, 4096);
  cfg.frames = bench::env_int("MOG_PROBE_FRAMES", 16, 5, 100000);
  cfg.warmup_frames = 4;
  return cfg;
}

void print_result(const std::string& section, const ExperimentResult& r) {
  const auto& s = r.per_frame;
  // Per-frame counters scaled to full-HD for comparability with the paper.
  const double ratio =
      (1920.0 * 1080.0) / (static_cast<double>(r.config.width) *
                           static_cast<double>(r.config.height));
  const double warps = static_cast<double>(s.num_warps);
  std::printf(
      "%-18s speedup %6.1fx  kern(hd) %6.2f ms [cmp %5.2f sh %5.2f bw %5.2f "
      "lat %5.2f/%4.2f] regs %2d occ %4.1f%% br_eff %5.1f%% mem_eff %5.1f%% "
      "ld/st_tr(hd) %5.2f/%5.2fM br(hd) %5.2fM pg(hd) %5.0fk iss/warp %4.0f\n",
      r.config.label().c_str(), r.speedup,
      1e3 * r.kernel_timing.total_seconds * ratio,
      1e3 * r.kernel_timing.compute_seconds * ratio,
      1e3 * r.kernel_timing.shared_seconds * ratio,
      1e3 * r.kernel_timing.bandwidth_floor_seconds * ratio,
      1e3 * r.kernel_timing.latency_seconds * ratio,
      1e3 * r.kernel_timing.exposed_latency_seconds * ratio,
      s.regs_per_thread, 100.0 * r.occupancy.achieved,
      100.0 * s.branch_efficiency(), 100.0 * s.memory_access_efficiency(),
      static_cast<double>(s.load_transactions) * ratio / 1e6,
      static_cast<double>(s.store_transactions) * ratio / 1e6,
      static_cast<double>(s.branches_executed) * ratio / 1e6,
      static_cast<double>(s.dram_page_switches) * ratio / 1e3,
      warps > 0 ? static_cast<double>(s.issue_cycles) / warps : 0.0);

  reporter().set_workload(r.config.width, r.config.height, r.config.frames);
  reporter()
      .add_case(section + "/" + r.config.label())
      .metric("speedup", r.speedup)
      .metric("kernel_ms_fullhd", 1e3 * r.kernel_timing.total_seconds * ratio)
      .metric("occupancy", r.occupancy.achieved)
      .metric("branch_efficiency", s.branch_efficiency())
      .metric("memory_access_efficiency", s.memory_access_efficiency())
      .counters(s);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "bench_probe: unexpected argument %s (it takes none; size "
                 "the run with MOG_PROBE_WIDTH/HEIGHT/FRAMES)\n",
                 argv[1]);
    return 2;
  }
  reporter().set_name("probe");
  const ExperimentConfig base = base_config();  // bad input exits here

  std::printf("== optimization ladder (K=3, double) — paper: 13/41/57/85/86/97x ==\n");
  for (kernels::OptLevel level : kernels::kAllLevels) {
    ExperimentConfig cfg = base;
    cfg.level = level;
    print_result("ladder", run_gpu_experiment(cfg));
  }

  std::printf("\n== tiled sweep (double) — paper: peak 101x @ g=8; occ 40->38%%; mem_eff >90 -> <60%% ==\n");
  for (int g : {1, 2, 4, 8, 16, 32}) {
    ExperimentConfig cfg = base;
    cfg.level = kernels::OptLevel::kF;
    cfg.tiled = true;
    cfg.tiled_config.frame_group = g;
    cfg.frames = std::max(cfg.frames, 2 * g);
    print_result("tiled", run_gpu_experiment(cfg));
  }

  std::printf("\n== float (paper: F 105x) and 5-Gaussian (paper: C 44x, F 92x) ==\n");
  for (kernels::OptLevel level :
       {kernels::OptLevel::kC, kernels::OptLevel::kF}) {
    ExperimentConfig cfg = base;
    cfg.level = level;
    cfg.precision = Precision::kFloat;
    print_result("float", run_gpu_experiment(cfg));
  }
  for (kernels::OptLevel level :
       {kernels::OptLevel::kC, kernels::OptLevel::kF}) {
    ExperimentConfig cfg = base;
    cfg.level = level;
    cfg.params.num_components = 5;
    print_result("k5", run_gpu_experiment(cfg));
  }

  return bench::finish_bench_report();
}
