// Fig. 12 — double vs single precision across the optimization ladder.
// Paper anchors: the float implementation reaches 105x at level F (vs 97x
// for double); float memory access efficiency climbs 62% (C) -> 88% (F) and
// branch efficiency 95% -> 99%; the register file stops being the
// occupancy limiter in float. Speedups are measured against the matching
// CPU baseline (227.3 s double / 180 s float, §V-C).
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

std::string key(kernels::OptLevel level, Precision p) {
  return std::string(kernels::to_string(level)) +
         (p == Precision::kDouble ? "/f64" : "/f32");
}

void precision(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  const auto prec =
      state.range(1) == 0 ? Precision::kDouble : Precision::kFloat;
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  cfg.precision = prec;
  run_and_record(state, key(level, prec), cfg);
}
BENCHMARK(precision)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 5, 1), {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void epilogue() {
  const double paper64[6] = {13, 41, 57, 85, 86, 97};
  const double paper32[6] = {0, 0, 0, 0, 0, 105};
  std::vector<Row> rows;
  for (const auto level : kernels::kAllLevels) {
    const auto* r64 = Registry::instance().find(key(level, Precision::kDouble));
    const auto* r32 = Registry::instance().find(key(level, Precision::kFloat));
    if (r64 == nullptr || r32 == nullptr) continue;
    const auto i = static_cast<std::size_t>(level);
    rows.push_back(
        Row{std::string("level ") + kernels::to_string(level),
            {r64->speedup, paper64[i], r32->speedup, paper32[i],
             100.0 * r32->per_frame.branch_efficiency(),
             100.0 * r32->per_frame.memory_access_efficiency(),
             100.0 * r32->occupancy.achieved,
             static_cast<double>(r32->per_frame.regs_per_thread)}});
  }
  print_table("Fig. 12 — double vs float (3 Gaussians)",
              {"spd_f64", "paper_f64", "spd_f32", "paper_f32", "f32_br%",
               "f32_mem%", "f32_occup%", "f32_regs"},
              rows,
              "float speedups are vs the paper's float CPU baseline "
              "(180 s / 450 full-HD frames).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig12_precision", mog::bench::epilogue)
