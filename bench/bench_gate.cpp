// CI perf-regression gate over BENCH_*.json reports.
//
// Usage:
//   bench_gate <baseline.json> <fresh.json>   [options]
//   bench_gate <baseline_dir>  <fresh_dir>    [options]
//
// Directory mode pairs every BENCH_*.json in the baseline directory with the
// same-named file in the fresh directory (a missing fresh file fails the
// gate; extra fresh reports are ignored so new benches can land before their
// baselines). Exit code 0 = all metrics within tolerance, 1 = regression,
// 2 = bad arguments (one line on stderr).
//
// Options:
//   --rel-tol X      default relative tolerance band (default 0.02)
//   --include-wall   also gate metrics prefixed "wall_" (off by default)
//   --warn-wall X    non-fatal tripwire: print a warning (and a "warn_wall"
//                    verdict in the --json diff) for any "wall_*" metric
//                    whose fresh value exceeds baseline * X; never fails the
//                    gate — wall clocks are machine-dependent noise, but a
//                    gross slowdown should still be visible in CI logs
//   --json PATH      also write a machine-readable diff (per-metric
//                    baseline/fresh/rel-delta/verdict rows) for CI artifacts
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/telemetry/gate.hpp"
#include "mog/telemetry/json.hpp"

namespace fs = std::filesystem;
using mog::telemetry::GateOptions;
using mog::telemetry::GateResult;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_gate: %s (usage: bench_gate <baseline file|dir> "
               "<fresh file|dir> [--rel-tol X] [--include-wall] "
               "[--warn-wall X] [--json PATH])\n",
               why.c_str());
  std::exit(2);
}

/// Gate one baseline file against one fresh file; prints the verdict table
/// and appends a machine-readable entry to `json_reports`.
bool gate_pair(const fs::path& baseline, const fs::path& fresh,
               const GateOptions& options,
               std::vector<mog::telemetry::Json>& json_reports) {
  const std::string label = baseline.filename().string();
  if (!fs::exists(fresh)) {
    std::printf("FAIL %s: fresh report %s missing\n", label.c_str(),
                fresh.string().c_str());
    mog::telemetry::Json entry = mog::telemetry::Json::object();
    entry.set("label", label);
    entry.set("ok", false);
    entry.set("error", "fresh report missing: " + fresh.string());
    json_reports.push_back(std::move(entry));
    return false;
  }
  const GateResult result = mog::telemetry::gate_reports(
      mog::telemetry::read_json_file(baseline.string()),
      mog::telemetry::read_json_file(fresh.string()), options);
  std::printf("%s\n",
              mog::telemetry::format_gate_result(label, result).c_str());
  json_reports.push_back(mog::telemetry::gate_result_to_json(label, result));
  return result.ok();
}

/// Writes the accumulated per-pair diffs as one JSON document for CI upload.
void write_json_artifact(const std::string& path, bool ok,
                         std::vector<mog::telemetry::Json> reports) {
  mog::telemetry::Json doc = mog::telemetry::Json::object();
  doc.set("schema", std::string("mog-bench-gate/1"));
  doc.set("ok", ok);
  mog::telemetry::Json array = mog::telemetry::Json::array();
  for (mog::telemetry::Json& report : reports)
    array.push_back(std::move(report));
  doc.set("reports", std::move(array));
  mog::telemetry::write_json_file(path, doc);
  std::printf("bench_gate: wrote JSON diff to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string json_path;
  GateOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto need = [&](const char* what) -> std::string {
        if (i + 1 >= argc) usage(std::string{what} + " needs a value");
        return argv[++i];
      };
      if (arg == "--include-wall") {
        options.include_wall = true;
      } else if (arg == "--rel-tol") {
        options.default_rel_tol =
            mog::parse_double(need("--rel-tol"), 0, 1e9, "--rel-tol");
      } else if (arg == "--warn-wall") {
        options.warn_wall_factor =
            mog::parse_double(need("--warn-wall"), 0, 1e9, "--warn-wall");
        if (!(options.warn_wall_factor > 0))
          usage("--warn-wall factor must be > 0");
      } else if (arg == "--json") {
        json_path = need("--json");
      } else if (arg.rfind("--", 0) == 0) {
        usage("unknown flag " + arg);
      } else {
        positional.push_back(arg);
      }
    }
  } catch (const mog::Error& e) {
    usage(e.what());
  }
  if (positional.size() != 2)
    usage("need a baseline and a fresh report (files or directories)");

  const fs::path baseline{positional[0]};
  const fs::path fresh{positional[1]};
  if (!fs::exists(baseline)) usage("no such baseline: " + baseline.string());

  try {
    std::vector<mog::telemetry::Json> json_reports;
    if (!fs::is_directory(baseline)) {
      const bool ok = gate_pair(baseline, fresh, options, json_reports);
      if (!json_path.empty())
        write_json_artifact(json_path, ok, std::move(json_reports));
      return ok ? 0 : 1;
    }

    // Directory mode: every checked-in baseline must have a fresh twin.
    std::vector<fs::path> baselines;
    for (const auto& entry : fs::directory_iterator(baseline)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json")
        baselines.push_back(entry.path());
    }
    std::sort(baselines.begin(), baselines.end());
    if (baselines.empty()) {
      std::fprintf(stderr, "no BENCH_*.json baselines in %s\n",
                   baseline.string().c_str());
      return 1;
    }
    bool ok = true;
    for (const fs::path& b : baselines)
      ok = gate_pair(b, fresh / b.filename(), options, json_reports) && ok;
    std::printf("\nbench_gate: %s (%zu report%s)\n", ok ? "PASS" : "FAIL",
                baselines.size(), baselines.size() == 1 ? "" : "s");
    if (!json_path.empty())
      write_json_artifact(json_path, ok, std::move(json_reports));
    return ok ? 0 : 1;
  } catch (const mog::Error& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 1;
  }
}
