// camerabench — camera-serving benchmark.
//
//   camerabench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints one line per metric (name, value, unit, how it was reduced), the
// environment block, and as its last line the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 when any mask or count fails its check, 2 on bad
// arguments.
#include <cstdio>
#include <exception>
#include <string>

#include "mog/common/strutil.hpp"
#include "mog/telemetry/json.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "camerabench: %s\n"
               "usage: camerabench --workload live_fleet|archive_hd|"
               "tiled_failover --seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

void print_metric(const camerabench::Metric& m) {
  std::printf("%-38s %16.6f %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  camerabench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string val = argv[++i];
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = static_cast<std::uint64_t>(
            mog::parse_int(val, 0, 2147483647, "--seed"));
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = mog::parse_int(val, 1, 3600, "--seconds");
        have_seconds = true;
      } else if (arg == "--trace") {
        opt.trace = mog::parse_int(val, 0, 1, "--trace") == 1;
        have_trace = true;
      } else if (arg == "--out") {
        opt.out_dir = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  camerabench::RunResult res;
  try {
    res = camerabench::run_workload(camerabench::workload_spec(workload), opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camerabench: %s\n", e.what());
    return 1;
  }

  for (const camerabench::Metric& m : res.metrics) print_metric(m);
  for (const camerabench::Metric& m : res.info) print_metric(m);
  for (const std::string& p : res.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("env %s\n", res.env.dump().c_str());

  mog::telemetry::Json metrics = mog::telemetry::Json::object();
  for (const camerabench::Metric& m : res.metrics) {
    mog::telemetry::Json v = mog::telemetry::Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  mog::telemetry::Json out = mog::telemetry::Json::object();
  out.set("correct", res.correct());
  out.set("attempted", res.failures.attempted);
  out.set("failed", res.failures.failed);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return res.correct() ? 0 : 1;
}
