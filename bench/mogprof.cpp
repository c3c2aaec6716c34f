// mogprof: nvprof-style digestion of counter dumps and sampling profiles.
//
// Usage:
//   mogprof <dump.json>                     per-kernel table + A..F step report
//   mogprof --diff <baseline.json> <fresh.json>
//   mogprof --flame <profile> [--top N]     top-N table from a sampling profile
//   mogprof --heatmap <heat.json> [--out dir]
//
// A dump is either a schema-v1 bench report (BENCH_*.json) or a
// CounterRegistry::to_json() dump. The tool reconstructs per-kernel
// divergence, coalescing efficiency, occupancy, achieved DRAM bandwidth and
// a memory-/compute-bound roofline verdict, and — when the dump's cases are
// the paper's optimization levels — attributes each A..F step to the
// counters it moved.
//
// --flame accepts a PROF_*.collapsed text file, or any JSON with a "prof"
// block (a BENCH_*.json written under MOG_BENCH_PROFILE) or that is itself
// such a block (a /profilez?format=speedscope capture is NOT accepted —
// fetch format=collapsed instead). --heatmap reads a HEAT_*.json
// ("mog-heatmap-v1") and prints a summary; with --out it also writes one
// .pgm and one .csv per metric into the directory.
//
// Bad arguments (an unknown flag, a missing input file) print one line and
// exit 2; a file that does not parse as its format exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/telemetry/flame.hpp"
#include "mog/telemetry/heatmap.hpp"
#include "mog/telemetry/profile.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "mogprof: %s (usage: mogprof <dump.json> | --diff "
               "<baseline.json> <fresh.json> | --flame <profile> [--top N] | "
               "--heatmap <heat.json> [--out dir])\n",
               why.c_str());
  std::exit(2);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MOG_CHECK(in.good(), "cannot open " + path);
  std::ostringstream body;
  body << in.rdbuf();
  MOG_CHECK(!in.bad(), "read failed: " + path);
  return body.str();
}

/// Load a sampling profile from a collapsed-stack text file or a JSON doc
/// carrying (or being) a "prof" report block.
mog::telemetry::FlameProfile load_flame(const std::string& path) {
  const std::string text = read_text_file(path);
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{') {
    const mog::telemetry::Json doc = mog::telemetry::Json::parse(text);
    const mog::telemetry::Json* prof = doc.find("prof");
    if (prof == nullptr) prof = &doc;
    MOG_CHECK(prof->find("stacks") != nullptr,
              path + " has no \"prof\" block (run the bench with "
                     "MOG_BENCH_PROFILE=1)");
    return mog::telemetry::profile_from_report_json(*prof);
  }
  return mog::telemetry::parse_collapsed(text);
}

int run_flame(const std::string& path, int top_n) {
  const mog::telemetry::FlameProfile profile = load_flame(path);
  std::fputs(mog::telemetry::render_flame_table(profile, top_n).c_str(),
             stdout);
  return 0;
}

int run_heatmap(const std::string& path, const std::string& out_dir) {
  const mog::telemetry::Heatmap map =
      mog::telemetry::heatmap_from_json(mog::telemetry::read_json_file(path));
  std::fputs(mog::telemetry::render_heatmap_summary(map).c_str(), stdout);
  if (out_dir.empty()) return 0;

  std::filesystem::create_directories(out_dir);
  const std::string stem =
      std::filesystem::path(path).stem().string();
  const auto write_grid = [&](const char* metric,
                              const std::vector<double>& grid) {
    for (const char* ext : {".pgm", ".csv"}) {
      const std::string file =
          out_dir + "/" + stem + "_" + metric + ext;
      std::ofstream out(file);
      MOG_CHECK(out.good(), "cannot open " + file);
      out << (std::strcmp(ext, ".pgm") == 0
                  ? mog::telemetry::heatmap_to_pgm(grid, map.cells_x,
                                                   map.cells_y)
                  : mog::telemetry::heatmap_to_csv(grid, map.cells_x,
                                                   map.cells_y));
      MOG_CHECK(out.good(), "short write to " + file);
      std::printf("wrote %s\n", file.c_str());
    }
  };
  write_grid("cycles", map.issue_cycles);
  write_grid("divergence", mog::telemetry::divergence_grid(map));
  write_grid("replay", mog::telemetry::replay_grid(map));
  write_grid("dram_bytes", map.dram_bytes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false, flame = false, heatmap = false;
  int top_n = 20;
  std::string out_dir;
  std::vector<std::string> positional;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto need = [&](const char* what) -> std::string {
        if (i + 1 >= argc) usage(std::string{what} + " needs a value");
        return argv[++i];
      };
      if (arg == "--diff") {
        diff = true;
      } else if (arg == "--flame") {
        flame = true;
      } else if (arg == "--heatmap") {
        heatmap = true;
      } else if (arg == "--top") {
        top_n = mog::parse_int(need("--top"), 1, 1000, "--top");
      } else if (arg == "--out") {
        out_dir = need("--out");
      } else if (arg.rfind("--", 0) == 0) {
        usage("unknown flag " + arg);
      } else {
        positional.push_back(arg);
      }
    }
  } catch (const mog::Error& e) {
    usage(e.what());
  }
  if (diff + flame + heatmap > 1)
    usage("--diff, --flame and --heatmap are mutually exclusive");
  if (positional.size() != (diff ? 2u : 1u))
    usage(diff ? "--diff needs two dumps" : "need one input file");
  for (const std::string& path : positional)
    if (!std::ifstream(path).good()) usage("cannot open " + path);

  try {
    if (diff) {
      const mog::telemetry::ProfileDump baseline =
          mog::telemetry::load_profile_file(positional[0]);
      const mog::telemetry::ProfileDump fresh =
          mog::telemetry::load_profile_file(positional[1]);
      std::fputs(mog::telemetry::render_profile_diff(baseline, fresh).c_str(),
                 stdout);
      return 0;
    }
    if (flame) return run_flame(positional[0], top_n);
    if (heatmap) return run_heatmap(positional[0], out_dir);

    const mog::telemetry::ProfileDump dump =
        mog::telemetry::load_profile_file(positional[0]);
    std::fputs(mog::telemetry::render_profile_table(dump).c_str(), stdout);
    const std::string steps = mog::telemetry::render_step_report(dump);
    if (!steps.empty()) {
      std::fputs("\n", stdout);
      std::fputs(steps.c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mogprof: %s\n", e.what());
    return 1;
  }
}
