// Shared infrastructure for the figure/table reproduction benches.
//
// Each bench binary registers one google-benchmark case per experimental
// configuration (Iterations(1) — the simulator is deterministic), records
// the ExperimentResult, and prints a paper-vs-measured table after the run.
//
// Every binary also feeds a telemetry::BenchReporter and, unless
// MOG_BENCH_NO_REPORT is set, writes a schema-versioned machine-readable
// BENCH_<name>.json into MOG_BENCH_REPORT_DIR (default: the working
// directory) on exit. CI diffs these against bench/baselines/ with the
// bench_gate binary; metrics prefixed "wall_" are wall-clock noise and are
// not gated.
//
// Workload scale is reduced by default (counters are per-warp properties and
// both timing models are linear in pixels/frames; see DESIGN.md §2) and can
// be overridden with MOG_BENCH_WIDTH / MOG_BENCH_HEIGHT / MOG_BENCH_FRAMES.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mog/common/strutil.hpp"
#include "mog/pipeline/experiment.hpp"
#include "mog/telemetry/bench_report.hpp"
#include "mog/telemetry/flame.hpp"
#include "mog/telemetry/heatmap.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::bench {

/// Integer knob `name` from the environment, `fallback` when unset. A value
/// that is not an integer in [min_value, max_value] ends the process with a
/// one-line message and exit code 2 instead of an abort deep in a bench.
inline int env_int(const char* name, int fallback, int min_value,
                   int max_value) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  try {
    return parse_int(v, min_value, max_value, name);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// Baseline experiment configuration for all benches. Frames are at least
/// 16x16 (SyntheticScene) and outnumber the 4 warm-up frames.
inline ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.width = env_int("MOG_BENCH_WIDTH", 512, 16, 4096);
  cfg.height = env_int("MOG_BENCH_HEIGHT", 288, 16, 4096);
  cfg.frames = env_int("MOG_BENCH_FRAMES", 16, 5, 100000);
  cfg.warmup_frames = 4;
  return cfg;
}

/// Ratio that scales per-frame counters to the paper's full-HD frame.
inline double fullhd_ratio(const ExperimentConfig& cfg) {
  return (1920.0 * 1080.0) / (static_cast<double>(cfg.width) * cfg.height);
}

/// The process-wide bench report, named by MOG_BENCH_MAIN.
inline telemetry::BenchReporter& reporter() {
  static telemetry::BenchReporter r;
  return r;
}

/// Write the report (honoring MOG_BENCH_REPORT_DIR / MOG_BENCH_NO_REPORT);
/// returns a process exit code.
inline int finish_bench_report() {
  if (std::getenv("MOG_BENCH_NO_REPORT") != nullptr) return 0;
  const char* dir = std::getenv("MOG_BENCH_REPORT_DIR");
  try {
    const std::string path =
        reporter().write_file(dir != nullptr ? dir : ".");
    std::printf("\nbench report: %s\n", path.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "failed to write bench report: %s\n", e.what());
    return 1;
  }
}

// --- optional profiling capture (MOG_BENCH_PROFILE) --------------------------

/// Process-wide heatmap sink for profiled bench runs. Static storage: the
/// pipeline reads the installed pointer at construction time, so the sink
/// must outlive every GpuMogPipeline the benchmarks build.
inline telemetry::HeatmapSink& bench_heatmap_sink() {
  static telemetry::HeatmapSink sink;
  return sink;
}

/// When MOG_BENCH_PROFILE is set, install the heatmap sink and start the
/// sampling profiler (MOG_BENCH_PROFILE_HZ, default 997 — prime, so the
/// sampler cannot phase-lock with any periodic work). No-op otherwise, and
/// the bench's modeled counters are bit-identical either way.
inline void begin_bench_profile() {
  if (std::getenv("MOG_BENCH_PROFILE") == nullptr) return;
  telemetry::set_heatmap_sink(&bench_heatmap_sink());
  const int hz = env_int("MOG_BENCH_PROFILE_HZ", 997, 1, 20000);
  if (!telemetry::Sampler::global().start(hz))
    std::fprintf(stderr, "bench profile: sampler already running\n");
}

/// Stop the sampler, attach the profile to the report ("prof" block), and
/// write the sidecar artifacts next to BENCH_<name>.json:
///   PROF_<name>.collapsed        collapsed stacks (flamegraph.pl-compatible)
///   PROF_<name>.speedscope.json  load at https://www.speedscope.app
///   HEAT_<name>.json             per-block heatmap grids (mogprof --heatmap)
inline void finish_bench_profile() {
  if (std::getenv("MOG_BENCH_PROFILE") == nullptr) return;
  telemetry::Sampler& sampler = telemetry::Sampler::global();
  sampler.stop();
  const telemetry::FlameProfile profile = sampler.take();
  reporter().set_profile(telemetry::profile_report_json(profile));
  std::printf("\n%s\n", telemetry::render_flame_table(profile).c_str());

  if (std::getenv("MOG_BENCH_NO_REPORT") != nullptr) return;
  const char* dir_env = std::getenv("MOG_BENCH_REPORT_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  const std::string& name = reporter().name();
  try {
    std::filesystem::create_directories(dir);
    const auto write_text = [&](const std::string& path,
                                const std::string& body) {
      std::ofstream out(path);
      MOG_CHECK(out.good(), "cannot open " + path);
      out << body;
      MOG_CHECK(out.good(), "short write to " + path);
      std::printf("bench profile: %s\n", path.c_str());
    };
    write_text(dir + "/PROF_" + name + ".collapsed",
               telemetry::render_collapsed(profile));
    write_text(dir + "/PROF_" + name + ".speedscope.json",
               telemetry::render_speedscope(profile).dump(2) + "\n");
    const telemetry::Heatmap heat = bench_heatmap_sink().snapshot();
    if (!heat.empty())
      write_text(dir + "/HEAT_" + name + ".json",
                 telemetry::heatmap_to_json(heat).dump(2) + "\n");
  } catch (const Error& e) {
    std::fprintf(stderr, "failed to write bench profile: %s\n", e.what());
  }
}

/// Result registry keyed by row label, filled by benchmark bodies and
/// consumed by the end-of-run table printer.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }
  void put(const std::string& key, const ExperimentResult& result) {
    results_[key] = result;
  }
  /// The recorded result, or nullptr when that case did not run (a
  /// --benchmark_filter subset); epilogues skip such rows.
  const ExperimentResult* find(const std::string& key) const {
    const auto it = results_.find(key);
    return it != results_.end() ? &it->second : nullptr;
  }

 private:
  std::map<std::string, ExperimentResult> results_;
};

/// Run one experiment inside a benchmark body, exporting headline counters
/// to the benchmark UI, stashing the full result for the table printer, and
/// adding a case (headline metrics + full per-frame counter set) to the
/// machine-readable report.
inline void run_and_record(benchmark::State& state, const std::string& key,
                           const ExperimentConfig& cfg) {
  ExperimentResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    result = run_gpu_experiment(cfg);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  state.counters["speedup_x"] = result.speedup;
  state.counters["kernel_ms_fullhd"] =
      1e3 * result.kernel_timing.total_seconds * fullhd_ratio(cfg);
  state.counters["occupancy_pct"] = 100.0 * result.occupancy.achieved;
  state.counters["branch_eff_pct"] =
      100.0 * result.per_frame.branch_efficiency();
  state.counters["mem_eff_pct"] =
      100.0 * result.per_frame.memory_access_efficiency();
  Registry::instance().put(key, result);

  reporter().set_workload(cfg.width, cfg.height, cfg.frames);
  // Mask disagreement counts flipped pixels near decision thresholds; give
  // it a wide band so FP-contraction differences between compilers cannot
  // trip the gate.
  reporter().set_tolerance("fg_disagreement", 0.25);
  reporter()
      .add_case(key)
      .metric("speedup", result.speedup)
      .metric("modeled_gpu_seconds", result.gpu_seconds)
      .metric("modeled_cpu_seconds", result.cpu_seconds)
      .metric("gpu_seconds_fullhd450", result.gpu_seconds_fullhd450)
      .metric("kernel_ms_fullhd",
              1e3 * result.kernel_timing.total_seconds * fullhd_ratio(cfg))
      .metric("occupancy", result.occupancy.achieved)
      .metric("fg_disagreement", result.fg_disagreement)
      .metric("launches_per_frame", result.launches_per_frame)
      .metric("wall_ms", wall_ms)
      .counters(result.per_frame);
}

// --- table printing ----------------------------------------------------------

struct Row {
  std::string label;
  std::vector<double> values;
};

/// Print a titled table; nothing at all when no row ran.
inline void print_table(const std::string& title,
                        const std::vector<std::string>& columns,
                        const std::vector<Row>& rows,
                        const std::string& footnote = {}) {
  if (rows.empty()) return;
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-22s", "");
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (const auto& r : rows) {
    std::printf("%-22s", r.label.c_str());
    for (double v : r.values) std::printf("%16.2f", v);
    std::printf("\n");
  }
  if (!footnote.empty()) std::printf("%s\n", footnote.c_str());
}

/// False, after a one-line reason on stderr, when the output format or the
/// file output format google-benchmark would use is not one it has: the
/// BENCHMARK_FORMAT / BENCHMARK_OUT_FORMAT environment value, overridden by
/// the last --benchmark_format= / --benchmark_out_format= flag. The library
/// itself answers an unknown format with its full usage and exit code 0.
inline bool output_formats_known(int argc, char** argv) {
  const std::pair<const char*, std::string_view> settings[] = {
      {"BENCHMARK_FORMAT", "--benchmark_format="},
      {"BENCHMARK_OUT_FORMAT", "--benchmark_out_format="}};
  for (const auto& [env, flag] : settings) {
    std::string source;  // the setting that chose the format, if any did
    std::string_view format = "console";
    if (const char* value = std::getenv(env); value != nullptr) {
      source = std::string{env} + "=" + value;
      format = value;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      if (!arg.starts_with(flag)) continue;
      source = arg;
      format = arg.substr(flag.size());
    }
    if (format == "console" || format == "json" || format == "csv") continue;
    std::fprintf(stderr,
                 "%s: error: unknown output format in %s (console|json|csv)\n",
                 argv[0], source.c_str());
    return false;
  }
  return true;
}

/// True when google-benchmark will only list the cases, not run them: the
/// BENCHMARK_LIST_TESTS environment value, overridden by the last
/// --benchmark_list_tests[=value] flag, each read as the library reads a
/// bool (empty is true; "0", "f", "n", "false", "no" and "off" are false).
inline bool listing_cases(int argc, char** argv) {
  const auto truthy = [](std::string_view v) {
    if (v.size() == 1)
      return std::isalnum(static_cast<unsigned char>(v[0])) != 0 &&
             std::string_view{"0fFnN"}.find(v[0]) == std::string_view::npos;
    std::string lower{v};
    for (char& c : lower)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return lower != "false" && lower != "no" && lower != "off";
  };
  const char* env = std::getenv("BENCHMARK_LIST_TESTS");
  bool listing = env != nullptr && truthy(env);
  constexpr std::string_view kFlag = "--benchmark_list_tests";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == kFlag) listing = true;
    if (arg.starts_with(kFlag) && arg.size() > kFlag.size() &&
        arg[kFlag.size()] == '=')
      listing = truthy(arg.substr(kFlag.size() + 1));
  }
  return listing;
}

/// Standard main: name the report, run benchmarks (profiled when
/// MOG_BENCH_PROFILE is set), run the bench-specific epilogue, then write
/// BENCH_<name>.json plus any PROF_/HEAT_ sidecars. Listing the cases runs
/// none of that and writes nothing, so it never overwrites a report. An
/// unknown flag, an unknown output format, or a --benchmark_filter that
/// selects no case (including one that does not compile), exits 2 after a
/// one-line reason, and writes no report.
#define MOG_BENCH_MAIN(bench_name, epilogue)                            \
  int main(int argc, char** argv) {                                     \
    ::mog::bench::reporter().set_name(bench_name);                      \
    if (!::mog::bench::output_formats_known(argc, argv)) return 2;      \
    const bool listing = ::mog::bench::listing_cases(argc, argv);       \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 2; \
    if (!listing) ::mog::bench::begin_bench_profile();                  \
    if (::benchmark::RunSpecifiedBenchmarks() == 0) return 2;           \
    ::benchmark::Shutdown();                                            \
    if (listing) return 0;                                              \
    epilogue();                                                         \
    ::mog::bench::finish_bench_profile();                               \
    return ::mog::bench::finish_bench_report();                         \
  }

}  // namespace mog::bench
