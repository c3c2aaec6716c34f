// Fig. 11 — effect of the number of Gaussian components (3 vs 5) across the
// optimization ladder. Paper anchors: 5-Gaussian speedups reach 44x after
// the general optimizations (C) and 92x after the algorithm-specific ones
// (F); CPU time grows linearly with the component count (227.3 s -> 406.6 s).
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

std::string key(kernels::OptLevel level, int k) {
  return std::string(kernels::to_string(level)) + "/K" + std::to_string(k);
}

void gaussians(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  cfg.params.num_components = k;
  run_and_record(state, key(level, k), cfg);
}
BENCHMARK(gaussians)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 5, 1), {3, 5}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void epilogue() {
  const double paper3[6] = {13, 41, 57, 85, 86, 97};
  const double paper5[6] = {0, 0, 44, 0, 0, 92};
  std::vector<Row> rows;
  for (const auto level : kernels::kAllLevels) {
    const auto* r3 = Registry::instance().find(key(level, 3));
    const auto* r5 = Registry::instance().find(key(level, 5));
    if (r3 == nullptr || r5 == nullptr) continue;
    const auto i = static_cast<std::size_t>(level);
    rows.push_back(Row{std::string("level ") + kernels::to_string(level),
                       {r3->speedup, paper3[i], r5->speedup, paper5[i],
                        100.0 * r5->per_frame.branch_efficiency(),
                        100.0 * r5->per_frame.memory_access_efficiency(),
                        100.0 * r5->occupancy.achieved,
                        static_cast<double>(r5->per_frame.regs_per_thread)}});
  }
  print_table("Fig. 11 — 3 vs 5 Gaussian components (double)",
              {"spd_K3", "paper_K3", "spd_K5", "paper_K5", "K5_br_eff%",
               "K5_mem_eff%", "K5_occup%", "K5_regs"},
              rows,
              "paper reports 5-Gaussian speedups only at C (44x) and F "
              "(92x); 5-Gaussian occupancy sits lower (more registers per "
              "thread), matching Fig. 11(b).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig11_gaussians", mog::bench::epilogue)
