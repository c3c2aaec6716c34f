// Table IV — output quality of every optimization level against the
// double-precision CPU ground truth, measured with MS-SSIM exactly as the
// paper does (background estimate and foreground masks).
//
// Paper values: background 99% for all levels; foreground 99/99/96/97/97/95%
// for A..F. The mechanisms for sub-100% scores are the same as the paper's
// §V-A analysis: fused multiply-add contraction in the device kernels and
// the level-F diff rewrite (post-update mean).
#include "bench_util.hpp"

#include "mog/kernels/opt_level.hpp"

namespace mog::bench {
namespace {

void quality(benchmark::State& state) {
  const auto level = static_cast<kernels::OptLevel>(state.range(0));
  ExperimentConfig cfg = base_config();
  cfg.level = level;
  cfg.measure_quality = true;
  cfg.frames = std::max(cfg.frames, 20);  // some history before comparing
  cfg.warmup_frames = 8;
  run_and_record(state, kernels::to_string(level), cfg);
  const auto* r = Registry::instance().find(kernels::to_string(level));
  state.counters["msssim_fg_pct"] = 100.0 * r->msssim_foreground;
  state.counters["msssim_bg_pct"] = 100.0 * r->msssim_background;
}
BENCHMARK(quality)->DenseRange(0, 5)->Iterations(1)->Unit(
    benchmark::kMillisecond);

void epilogue() {
  const double paper_fg[6] = {99, 99, 96, 97, 97, 95};
  std::vector<Row> rows;
  for (const auto level : kernels::kAllLevels) {
    const auto* r = Registry::instance().find(kernels::to_string(level));
    if (r == nullptr) continue;
    rows.push_back(Row{std::string("level ") + kernels::to_string(level),
                       {100.0 * r->msssim_background, 99.0,
                        100.0 * r->msssim_foreground,
                        paper_fg[static_cast<std::size_t>(level)],
                        100.0 * r->fg_disagreement,
                        100.0 * r->vs_truth.f1()}});
  }
  print_table(
      "Table IV — MS-SSIM vs CPU double-precision ground truth",
      {"bg%", "paper_bg%", "fg%", "paper_fg%", "flipped_px%", "truth_F1%"},
      rows,
      "flipped_px = fraction of mask pixels that differ from the CPU "
      "reference; truth_F1 = detection quality against the synthetic "
      "scene's ground-truth objects (supplementary).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("table4_quality", mog::bench::epilogue)
