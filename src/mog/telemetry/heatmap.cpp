#include "mog/telemetry/heatmap.hpp"

#include <algorithm>
#include <cmath>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"

namespace mog::telemetry {

namespace {

/// The serialized raw grids, in fixed order (names are the JSON keys).
struct GridField {
  const char* name;
  std::vector<double> Heatmap::* member;
};
constexpr GridField kGrids[] = {
    {"issue_cycles", &Heatmap::issue_cycles},
    {"branches_executed", &Heatmap::branches_executed},
    {"branches_divergent", &Heatmap::branches_divergent},
    {"mem_instructions", &Heatmap::mem_instructions},
    {"transactions", &Heatmap::transactions},
    {"dram_bytes", &Heatmap::dram_bytes},
};

void resize_grids(Heatmap& map) {
  for (const GridField& g : kGrids) (map.*g.member).assign(map.cells(), 0.0);
}

}  // namespace

void HeatmapSink::set_chain(gpusim::StatsSink* chain) {
  std::lock_guard<std::mutex> lock(mu_);
  chain_ = chain;
}

void HeatmapSink::bind_frame(int width, int height, int cell_px) {
  MOG_CHECK(width > 0 && height > 0, "heatmap frame must be non-empty");
  MOG_CHECK(cell_px > 0, "heatmap cell size must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.width == width && map_.height == height &&
      map_.cell_px == std::min({cell_px, width, height}))
    return;  // same binding: keep accumulating (serve re-creates pipelines)
  map_ = Heatmap{};
  map_.width = width;
  map_.height = height;
  map_.cell_px = std::min({cell_px, width, height});
  map_.cells_x = (width + map_.cell_px - 1) / map_.cell_px;
  map_.cells_y = (height + map_.cell_px - 1) / map_.cell_px;
  resize_grids(map_);
}

void HeatmapSink::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.launches = 0;
  map_.blocks = 0;
  resize_grids(map_);
}

Heatmap HeatmapSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

void HeatmapSink::on_kernel_launch(const gpusim::KernelStats& stats) {
  gpusim::StatsSink* chain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++map_.launches;
    chain = chain_;
  }
  if (chain != nullptr) chain->on_kernel_launch(stats);
}

void HeatmapSink::on_block_stats(const gpusim::BlockStats& block) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.cells() == 0 || block.threads <= 0) return;

  const auto num_pixels = static_cast<std::int64_t>(map_.width) * map_.height;
  const std::int64_t begin = std::clamp<std::int64_t>(
      block.first_thread, 0, num_pixels);
  const std::int64_t end = std::clamp<std::int64_t>(
      block.first_thread + block.threads, begin, num_pixels);
  if (end == begin) return;  // launch larger than the frame (halo threads)
  ++map_.blocks;

  const gpusim::KernelStats& d = block.delta;
  const double values[] = {
      static_cast<double>(d.issue_cycles),
      static_cast<double>(d.branches_executed),
      static_cast<double>(d.branches_divergent),
      static_cast<double>(d.load_instructions + d.store_instructions),
      static_cast<double>(d.total_transactions()),
      static_cast<double>(d.bytes_transferred()),
  };
  static_assert(std::size(kGrids) == std::size(values));

  // Distribute the block's totals over the cells its pixel range crosses,
  // weighted by pixel overlap. Walk the range one frame row at a time: a
  // row of pixels spans contiguous cells of one cell row.
  const double per_pixel = 1.0 / static_cast<double>(end - begin);
  for (std::int64_t p = begin; p < end;) {
    const std::int64_t y = p / map_.width;
    const std::int64_t x = p % map_.width;
    const std::int64_t row_end =
        std::min(end, (y + 1) * static_cast<std::int64_t>(map_.width));
    const std::int64_t cy = y / map_.cell_px;
    for (std::int64_t cp = p; cp < row_end;) {
      const std::int64_t cx = (cp % map_.width) / map_.cell_px;
      const std::int64_t cell_right = std::min(
          row_end, y * static_cast<std::int64_t>(map_.width) +
                       (cx + 1) * static_cast<std::int64_t>(map_.cell_px));
      const double weight =
          static_cast<double>(cell_right - cp) * per_pixel;
      const std::size_t cell =
          static_cast<std::size_t>(cy) * map_.cells_x +
          static_cast<std::size_t>(cx);
      for (std::size_t g = 0; g < std::size(kGrids); ++g)
        (map_.*kGrids[g].member)[cell] += values[g] * weight;
      cp = cell_right;
    }
    p = row_end;
    (void)x;
  }
}

Json heatmap_to_json(const Heatmap& map) {
  Json doc = Json::object();
  doc.set("schema", "mog-heatmap-v1");
  doc.set("width", map.width);
  doc.set("height", map.height);
  doc.set("cell_px", map.cell_px);
  doc.set("cells_x", map.cells_x);
  doc.set("cells_y", map.cells_y);
  doc.set("launches", map.launches);
  doc.set("blocks", map.blocks);
  Json grids = Json::object();
  for (const GridField& g : kGrids) {
    // Built in place, not pushed as temporaries (see render_speedscope).
    Json cells = Json::array();
    Json::Array& values = cells.as_array();
    for (const double v : map.*g.member) values.emplace_back(v);
    grids.set(g.name, std::move(cells));
  }
  doc.set("grids", std::move(grids));
  return doc;
}

Heatmap heatmap_from_json(const Json& doc) {
  const Json* schema = doc.find("schema");
  MOG_CHECK(schema != nullptr && schema->is_string() &&
                schema->as_string() == "mog-heatmap-v1",
            "not a mog-heatmap-v1 document");
  const auto num = [&](const char* key) {
    const Json* v = doc.find(key);
    MOG_CHECK(v != nullptr && v->is_number(),
              std::string("heatmap doc missing ") + key);
    return v->as_number();
  };
  Heatmap map;
  map.width = static_cast<int>(num("width"));
  map.height = static_cast<int>(num("height"));
  map.cell_px = static_cast<int>(num("cell_px"));
  map.cells_x = static_cast<int>(num("cells_x"));
  map.cells_y = static_cast<int>(num("cells_y"));
  map.launches = static_cast<std::uint64_t>(num("launches"));
  map.blocks = static_cast<std::uint64_t>(num("blocks"));
  MOG_CHECK(map.cells_x > 0 && map.cells_y > 0, "heatmap grid is empty");
  const Json* grids = doc.find("grids");
  MOG_CHECK(grids != nullptr && grids->is_object(),
            "heatmap doc missing grids");
  for (const GridField& g : kGrids) {
    const Json* cells = grids->find(g.name);
    MOG_CHECK(cells != nullptr && cells->is_array() &&
                  cells->as_array().size() == map.cells(),
              strprintf("heatmap grid %s missing or wrong size", g.name));
    std::vector<double>& grid = map.*g.member;
    grid.reserve(map.cells());
    for (const Json& v : cells->as_array()) grid.push_back(v.as_number());
  }
  return map;
}

std::vector<double> divergence_grid(const Heatmap& map) {
  std::vector<double> out(map.cells(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (map.branches_executed[i] > 0)
      out[i] = map.branches_divergent[i] / map.branches_executed[i];
  return out;
}

std::vector<double> replay_grid(const Heatmap& map) {
  std::vector<double> out(map.cells(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::max(0.0, map.transactions[i] - map.mem_instructions[i]);
  return out;
}

std::string heatmap_to_pgm(const std::vector<double>& grid, int cells_x,
                           int cells_y) {
  MOG_CHECK(grid.size() == static_cast<std::size_t>(cells_x) *
                               static_cast<std::size_t>(cells_y),
            "grid size does not match cell dimensions");
  const double max_v = grid.empty()
                           ? 0.0
                           : *std::max_element(grid.begin(), grid.end());
  std::string out = strprintf("P2\n%d %d\n255\n", cells_x, cells_y);
  for (int y = 0; y < cells_y; ++y) {
    for (int x = 0; x < cells_x; ++x) {
      const double v = grid[static_cast<std::size_t>(y) * cells_x + x];
      const int level =
          max_v <= 0 ? 0
                     : static_cast<int>(std::lround(255.0 * v / max_v));
      out += strprintf(x == 0 ? "%d" : " %d", level);
    }
    out += '\n';
  }
  return out;
}

std::string heatmap_to_csv(const std::vector<double>& grid, int cells_x,
                           int cells_y) {
  MOG_CHECK(grid.size() == static_cast<std::size_t>(cells_x) *
                               static_cast<std::size_t>(cells_y),
            "grid size does not match cell dimensions");
  std::string out;
  for (int y = 0; y < cells_y; ++y) {
    for (int x = 0; x < cells_x; ++x) {
      if (x > 0) out += ',';
      out += strprintf("%.6g", grid[static_cast<std::size_t>(y) * cells_x + x]);
    }
    out += '\n';
  }
  return out;
}

std::string render_heatmap_summary(const Heatmap& map, int top_n) {
  std::string out = strprintf(
      "heatmap: %dx%d px, %dx%d cells (%d px/cell), %llu launches, "
      "%llu blocks\n",
      map.width, map.height, map.cells_x, map.cells_y, map.cell_px,
      static_cast<unsigned long long>(map.launches),
      static_cast<unsigned long long>(map.blocks));
  if (map.empty()) {
    out += "  (no block records; heatmap sink not bound during a launch?)\n";
    return out;
  }

  struct View {
    const char* name;
    std::vector<double> grid;
  };
  const View views[] = {
      {"cycles", map.issue_cycles},
      {"divergence", divergence_grid(map)},
      {"replay", replay_grid(map)},
      {"dram_bytes", map.dram_bytes},
  };
  for (const View& view : views) {
    std::vector<std::size_t> order(view.grid.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (view.grid[a] != view.grid[b]) return view.grid[a] > view.grid[b];
      return a < b;
    });
    out += strprintf("  %-11s hottest:", view.name);
    const int n = std::min<int>(top_n, static_cast<int>(order.size()));
    for (int i = 0; i < n; ++i) {
      const std::size_t cell = order[i];
      out += strprintf(" (%d,%d)=%.4g",
                       static_cast<int>(cell % map.cells_x),
                       static_cast<int>(cell / map.cells_x), view.grid[cell]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace mog::telemetry
