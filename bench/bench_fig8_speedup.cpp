// Fig. 8 — speedup over serial CPU across the optimization ladder A..F, and
// the efficiency summary panel (branch efficiency, memory access efficiency,
// SM occupancy). Also prints the level definitions (Tables II and III).
//
// Paper values (3 Gaussians, double, 450 full-HD frames):
//   A 13x, B 41x, C 57x, D 85x, E 86x, F 97x.
//
// Two cases extend the paper's ladder with mask post-processing:
//   F+pp — level F plus the UNFUSED device postproc chain (one stencil
//          launch per stage, intermediates round-tripping DRAM);
//   G    — the same stages fused into one epilogue launch (arXiv
//          1509.04394's kernel-fusion technique). The gated launches_per_
//          frame metric pins the fusion win: 4 launches/frame at F+pp,
//          2 at G.
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

const double kPaperSpeedup[7] = {13, 41, 57, 85, 86, 97, 0};
const double kPaperBranchEff[7] = {0, 0, 94.5, 96.0, 99.5, 99.5, 0};
const double kPaperOccupancy[7] = {0, 52, 52, 61, 56, 65, 0};

void ladder(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  run_and_record(state, kernels::to_string(level), cfg);
}
BENCHMARK(ladder)
    ->DenseRange(0, 6)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void postproc_unfused(benchmark::State& state) {
  ExperimentConfig cfg = base_config();
  cfg.level = kernels::OptLevel::kF;
  cfg.postproc.enabled = true;  // same stages as G, unfused (3 extra launches)
  run_and_record(state, "F+pp", cfg);
}
BENCHMARK(postproc_unfused)->Iterations(1)->Unit(benchmark::kMillisecond);

void epilogue() {
  std::printf("\nOptimization levels (paper Tables II & III):\n");
  for (const auto level : kernels::kAllLevels)
    std::printf("  %s: %s\n", kernels::to_string(level),
                kernels::describe(level));

  std::vector<Row> rows;
  for (const auto level : kernels::kAllLevels) {
    const auto* r = Registry::instance().find(kernels::to_string(level));
    if (r == nullptr) continue;
    const auto i = static_cast<std::size_t>(level);
    rows.push_back(Row{std::string("level ") + kernels::to_string(level),
                       {kPaperSpeedup[i], r->speedup,
                        1e3 * r->gpu_seconds_fullhd450 / 450,
                        100.0 * r->per_frame.branch_efficiency(),
                        kPaperBranchEff[i],
                        100.0 * r->per_frame.memory_access_efficiency(),
                        100.0 * r->occupancy.achieved, kPaperOccupancy[i]}});
  }
  print_table(
      "Fig. 8 — optimization ladder (3 Gaussians, double)",
      {"paper_speedup", "speedup", "ms/frame", "br_eff%", "paper_br%",
       "mem_eff%", "occup%", "paper_occ%"},
      rows,
      "paper_br/occ values read off Fig. 8(b); 0 = not reported for "
      "that level (G extends the paper's ladder).");

  // Step G's headline: the fused epilogue vs the same stages unfused.
  std::vector<Row> fusion;
  for (const auto& [label, key] :
       {std::pair{"F + unfused chain", "F+pp"}, std::pair{"G (fused)", "G"}}) {
    const auto* r = Registry::instance().find(key);
    if (r == nullptr) continue;
    fusion.push_back(Row{label,
                         {r->launches_per_frame,
                          1e3 * r->gpu_seconds_fullhd450 / 450,
                          1e-6 * static_cast<double>(
                                     r->per_frame.bytes_transferred())}});
  }
  print_table("Step G — kernel fusion of the postproc chain",
              {"launches/frame", "ms/frame", "dram_MB/frame"}, fusion,
              "identical cleaned masks; the deltas are pure fusion.");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig8_speedup", mog::bench::epilogue)
