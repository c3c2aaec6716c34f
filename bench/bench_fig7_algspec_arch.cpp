// Fig. 7 — architectural impact of the algorithm-specific optimizations
// (C -> D -> E -> F):
//   (a) executed branches per frame (6.7 M -> 6.2 M at D) and branch
//       efficiency (-> 99.5% at E);
//   (b) memory access efficiency (peaks ~100% at E) and total transactions
//       (-> 1.70 M at E);
//   (c) registers per thread (36/32/33/31) and SM occupancy (52/61/56/65%).
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

void algspec(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  run_and_record(state, kernels::to_string(level), cfg);
}
BENCHMARK(algspec)->DenseRange(2, 5)->Iterations(1)->Unit(
    benchmark::kMillisecond);

void epilogue() {
  const double paper_branches_m[4] = {6.7, 6.2, 6.2, 6.2};
  const double paper_br_eff[4] = {94.5, 96.0, 99.5, 99.5};
  const double paper_regs[4] = {36, 32, 33, 31};
  const double paper_occ[4] = {52, 61, 56, 65};
  std::vector<Row> rows;
  for (const auto level : {kernels::OptLevel::kC, kernels::OptLevel::kD,
                           kernels::OptLevel::kE, kernels::OptLevel::kF}) {
    const auto* r = Registry::instance().find(kernels::to_string(level));
    if (r == nullptr) continue;
    // The paper columns start at level C.
    const auto i = static_cast<std::size_t>(level) -
                   static_cast<std::size_t>(kernels::OptLevel::kC);
    const double ratio = fullhd_ratio(r->config);
    rows.push_back(
        Row{std::string("level ") + kernels::to_string(level),
            {static_cast<double>(r->per_frame.branches_executed) * ratio / 1e6,
             paper_branches_m[i],
             100.0 * r->per_frame.branch_efficiency(), paper_br_eff[i],
             100.0 * r->per_frame.memory_access_efficiency(),
             static_cast<double>(r->per_frame.total_transactions()) * ratio /
                 1e6,
             static_cast<double>(r->per_frame.regs_per_thread), paper_regs[i],
             100.0 * r->occupancy.achieved, paper_occ[i]}});
  }
  print_table("Fig. 7 — algorithm-specific optimizations",
              {"br(M/fr)", "paper_br", "br_eff%", "paper_be%", "mem_eff%",
               "tr(M/fr)", "regs", "p_regs", "occup%", "p_occ%"},
              rows, "counters scaled to a full-HD frame.");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig7_algspec_arch", mog::bench::epilogue)
