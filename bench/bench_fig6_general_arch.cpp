// Fig. 6 — architectural impact of the general GPU optimizations:
//   (a) memory access efficiency (17% -> 78%) and store transactions per
//       frame (13.3 M -> 2 M) going from the base layout (A) to coalesced
//       (B);
//   (b) registers per thread (30 -> 36) and SM occupancy for A, B, C.
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

void general(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  run_and_record(state, kernels::to_string(level), cfg);
}
BENCHMARK(general)->DenseRange(0, 2)->Iterations(1)->Unit(
    benchmark::kMillisecond);

void epilogue() {
  const double paper_eff[3] = {17, 78, 78};
  const double paper_store_m[3] = {13.3, 2.0, 2.0};
  const double paper_regs[3] = {30, 36, 36};
  std::vector<Row> rows;
  for (const auto level :
       {kernels::OptLevel::kA, kernels::OptLevel::kB, kernels::OptLevel::kC}) {
    const auto* r = Registry::instance().find(kernels::to_string(level));
    if (r == nullptr) continue;
    const auto i = static_cast<std::size_t>(level);
    const double ratio = fullhd_ratio(r->config);
    rows.push_back(
        Row{std::string("level ") + kernels::to_string(level),
            {100.0 * r->per_frame.memory_access_efficiency(), paper_eff[i],
             static_cast<double>(r->per_frame.store_transactions) * ratio /
                 1e6,
             paper_store_m[i],
             static_cast<double>(r->per_frame.load_transactions) * ratio / 1e6,
             static_cast<double>(r->per_frame.regs_per_thread), paper_regs[i],
             100.0 * r->occupancy.achieved}});
  }
  print_table("Fig. 6 — general optimizations: memory & registers",
              {"mem_eff%", "paper_eff%", "st_tr(M/fr)", "paper_st(M)",
               "ld_tr(M/fr)", "regs", "paper_regs", "occup%"},
              rows,
              "store/load transactions scaled to a full-HD frame; the "
              "register tracker reproduces the B/C > later-levels ordering, "
              "not the paper's absolute per-variant compiler allocation "
              "(see EXPERIMENTS.md).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("fig6_general_arch", mog::bench::epilogue)
