// Fig. 10 — the windowed (tiled) shared-memory MoG vs frame-group size:
//   (a) speedup (paper: maximum 101x at group size 8, flat beyond) and
//       memory access efficiency (>90% at g=1 falling below 60% at g=32);
//   (b) SM occupancy (40% at g=1 drifting to 38% at g=32 — shared-memory
//       capacity limits residency to one 640-thread block per SM).
// Also reports per-frame output latency, the cost the paper calls out for
// large groups.
#include "bench_util.hpp"

namespace mog::bench {
namespace {

void tiled(benchmark::State& state) {
  const int group = static_cast<int>(state.range(0));
  ExperimentConfig cfg = base_config();
  cfg.level = kernels::OptLevel::kF;
  cfg.tiled = true;
  cfg.tiled_config.frame_group = group;
  if (cfg.frames < 2 * group) cfg.frames = 2 * group;
  run_and_record(state, strprintf("g%d", group), cfg);
  state.counters["group"] = group;
}
BENCHMARK(tiled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void untiled_reference(benchmark::State& state) {
  ExperimentConfig cfg = base_config();
  cfg.level = kernels::OptLevel::kF;
  run_and_record(state, "F (untiled)", cfg);
}
BENCHMARK(untiled_reference)->Iterations(1)->Unit(benchmark::kMillisecond);

// Tiling composes with step G: the fused postproc epilogue cleans each
// mask of the group in one extra launch per frame (tile = one 640-thread
// block, same block shape as the MoG group launch).
void tiled_fused_postproc(benchmark::State& state) {
  ExperimentConfig cfg = base_config();
  cfg.level = kernels::OptLevel::kG;
  cfg.tiled = true;
  cfg.tiled_config.frame_group = 8;
  if (cfg.frames < 16) cfg.frames = 16;
  run_and_record(state, "g8+G", cfg);
}
BENCHMARK(tiled_fused_postproc)->Iterations(1)->Unit(benchmark::kMillisecond);

void epilogue() {
  std::vector<Row> rows;
  if (const auto* f = Registry::instance().find("F (untiled)"))
    rows.push_back(Row{"F (untiled)",
                       {f->speedup, 97.0,
                        100.0 * f->per_frame.memory_access_efficiency(), 0,
                        100.0 * f->occupancy.achieved,
                        1e3 * f->kernel_timing.total_seconds *
                            fullhd_ratio(f->config)}});
  for (const int g : {1, 2, 4, 8, 16, 32}) {
    const auto* r = Registry::instance().find(strprintf("g%d", g));
    if (r == nullptr) continue;
    // Latency until a frame's mask is available: the whole group must finish.
    const double group_latency_ms =
        1e3 * r->kernel_timing.total_seconds * fullhd_ratio(r->config) * g;
    rows.push_back(Row{"tiled g=" + std::to_string(g),
                       {r->speedup, g == 8 ? 101.0 : 0.0,
                        100.0 * r->per_frame.memory_access_efficiency(),
                        g == 1 ? 90.0 : (g == 32 ? 60.0 : 0.0),
                        100.0 * r->occupancy.achieved, group_latency_ms}});
  }
  if (const auto* r = Registry::instance().find("g8+G"))
    rows.push_back(Row{"tiled g=8 + G",
                       {r->speedup, 0,
                        100.0 * r->per_frame.memory_access_efficiency(), 0,
                        100.0 * r->occupancy.achieved,
                        1e3 * r->kernel_timing.total_seconds *
                            fullhd_ratio(r->config) * 8}});
  print_table("Fig. 10 — tiled MoG vs frame-group size (double, K=3)",
              {"speedup", "paper_spd", "mem_eff%", "paper_me%", "occup%",
               "latency_ms"},
              rows,
              "paper anchors: 101x at g=8; mem_eff >90% (g=1) -> <60% "
              "(g=32); occupancy 40% -> 38%. latency = time until a group's "
              "masks appear (full-HD scale).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig10_tiled", mog::bench::epilogue)
