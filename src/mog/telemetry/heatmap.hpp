// Spatial hotspot attribution: which screen regions are expensive, and why.
//
// HeatmapSink is a gpusim::StatsSink that opts into the per-block stats
// seam (StatsSink::on_block_stats) and bins each block's counter delta into
// a coarse cell grid over the frame. The MoG kernels launch one thread per
// pixel in row-major order (the tiled variants keep blocks contiguous), so
// a block's linear thread range [first_thread, first_thread + threads) maps
// straight onto pixel indices; fused-epilogue launches with halo threads
// land approximately (documented in DESIGN.md §13), which is fine for a
// heatmap. Accumulation is mutex-guarded — block callbacks arrive
// concurrently from executor workers — and never touches the counters
// themselves, so masks/goldens stay bit-identical.
//
// The capture serializes to a small JSON doc ("mog-heatmap-v1", embedded in
// BENCH_*.json or written standalone); `mogprof --heatmap` renders PGM
// images (one per metric, normalized) plus CSV grids and a terminal
// summary.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mog/gpusim/stats.hpp"
#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

/// A captured heatmap: raw per-cell accumulators over a cells_x × cells_y
/// grid (row-major). Derived views (divergence ratio, replay count) are
/// computed at render time.
struct Heatmap {
  int width = 0;       ///< frame pixels
  int height = 0;
  int cell_px = 8;     ///< square cell edge, in pixels
  int cells_x = 0;
  int cells_y = 0;
  std::uint64_t launches = 0;  ///< kernel launches folded in
  std::uint64_t blocks = 0;    ///< block records folded in
  // Raw sums per cell (fractionally distributed over the block's pixels):
  std::vector<double> issue_cycles;
  std::vector<double> branches_executed;
  std::vector<double> branches_divergent;
  std::vector<double> mem_instructions;   ///< load + store instructions
  std::vector<double> transactions;       ///< load + store + rmw segments
  std::vector<double> dram_bytes;         ///< bytes_transferred()

  bool empty() const { return blocks == 0; }
  std::size_t cells() const {
    return static_cast<std::size_t>(cells_x) * static_cast<std::size_t>(cells_y);
  }
};

/// StatsSink adapter. Chains to an inner sink (the telemetry counter
/// registry) so installing a heatmap does not displace counter export.
/// Installed process-wide with set_heatmap_sink (telemetry.hpp): pipelines
/// read it at construction, so install it before building them and never
/// uninstall it while they are alive.
class HeatmapSink final : public gpusim::StatsSink {
 public:
  explicit HeatmapSink(gpusim::StatsSink* chain = nullptr) : chain_(chain) {}

  void set_chain(gpusim::StatsSink* chain);

  /// Bind the frame geometry blocks map onto. Pipelines call this at
  /// construction; rebinding with different dimensions resets the grids
  /// (cell_px must be positive; clamped to the frame size).
  void bind_frame(int width, int height, int cell_px = 8);

  /// Drop all accumulated cells (keeps the binding).
  void reset();

  Heatmap snapshot() const;

  // --- StatsSink ----------------------------------------------------------
  void on_kernel_launch(const gpusim::KernelStats& stats) override;
  bool wants_block_stats() const override { return true; }
  void on_block_stats(const gpusim::BlockStats& block) override;

 private:
  mutable std::mutex mu_;
  gpusim::StatsSink* chain_ = nullptr;
  Heatmap map_;
};

/// JSON round-trip ("mog-heatmap-v1").
Json heatmap_to_json(const Heatmap& map);
Heatmap heatmap_from_json(const Json& doc);

/// Derived per-cell views (same cells_x × cells_y layout as the raw grids).
std::vector<double> divergence_grid(const Heatmap& map);  ///< divergent/executed
std::vector<double> replay_grid(const Heatmap& map);      ///< transactions − mem insts

/// Renderers. PGM is plain-text P2, 255 = hottest cell (max-normalized);
/// CSV is one row per cell row with %.6g values.
std::string heatmap_to_pgm(const std::vector<double>& grid, int cells_x,
                           int cells_y);
std::string heatmap_to_csv(const std::vector<double>& grid, int cells_x,
                           int cells_y);

/// Terminal summary for `mogprof --heatmap`: grid shape plus the hottest
/// cells per metric.
std::string render_heatmap_summary(const Heatmap& map, int top_n = 3);

}  // namespace mog::telemetry
