#include "mog/telemetry/bench_report.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <thread>

#include "mog/common/strutil.hpp"
#include "mog/gpusim/device_spec.hpp"
#include "mog/kernels/isa.hpp"

namespace mog::telemetry {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return strprintf("clang %d.%d.%d", __clang_major__, __clang_minor__,
                   __clang_patchlevel__);
#elif defined(__GNUC__)
  return strprintf("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                   __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string build_type() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

/// Compile-flag summary assembled from predefined macros — honest about
/// what we can know from inside the binary (optimization level and the ISA
/// features the compiler was allowed to use), which is what matters when
/// comparing wall_/prof_ numbers across machines.
std::string compile_flags() {
  std::string flags;
#if defined(__OPTIMIZE__)
  flags += "optimized";
#else
  flags += "unoptimized";
#endif
#if defined(NDEBUG)
  flags += " ndebug";
#endif
#if defined(__AVX512F__)
  flags += " avx512f";
#elif defined(__AVX2__)
  flags += " avx2";
#elif defined(__AVX__)
  flags += " avx";
#elif defined(__SSE4_2__)
  flags += " sse4.2";
#elif defined(__SSE2__) || defined(__x86_64__)
  flags += " sse2";
#endif
#if defined(__FMA__)
  flags += " fma";
#endif
#if defined(__aarch64__)
  flags += " neon";
#endif
#if defined(__SANITIZE_ADDRESS__)
  flags += " asan";
#endif
#if defined(__SANITIZE_THREAD__)
  flags += " tsan";
#endif
  return flags;
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  return strprintf("%04d-%02d-%02dT%02d:%02d:%02dZ", tm.tm_year + 1900,
                   tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min,
                   tm.tm_sec);
}

}  // namespace

BenchReporter::Case& BenchReporter::Case::counters(
    const gpusim::KernelStats& per_frame) {
  gpusim::visit_metrics(per_frame,
                        [this](const char* name, double value, bool) {
                          metrics_.emplace_back(std::string("ctr_") + name,
                                                value);
                        });
  return *this;
}

BenchReporter::Case& BenchReporter::add_case(const std::string& name) {
  for (Case& c : cases_)
    if (c.name() == name) return c;
  cases_.emplace_back(name);
  return cases_.back();
}

Json BenchReporter::to_json() const {
  Json root = Json::object();
  root.set("schema_version", kSchemaVersion);
  root.set("bench", name_);

  Json host = Json::object();
  host.set("build_type", build_type());
  host.set("timestamp_utc", utc_timestamp());
  root.set("host", std::move(host));

  // Environment block: everything needed to judge whether two reports'
  // wall_/prof_ numbers are comparable across machines. Wall-clock metrics
  // scale with the block executor's host parallelism, so the thread count
  // lets a reader attribute wall_* drift to the environment instead of the
  // simulator. Informational only — bench_gate walks the baseline's
  // cases/metrics, so this never gates.
  Json env = Json::object();
  env.set("compiler", compiler_id());
  env.set("flags", compile_flags());
  // `flags` is what the whole binary was compiled for; the device kernels
  // also carry builds for higher x86-64 levels, and this is the one that
  // runs on this host.
  env.set("isa", kernels::to_string(kernels::active_isa()));
  env.set("hw_threads",
          static_cast<int>(std::thread::hardware_concurrency()));
  const char* executor_env = std::getenv("MOG_EXECUTOR_THREADS");
  env.set("mog_executor_threads", executor_env != nullptr ? executor_env : "");
  env.set("executor_threads", gpusim::resolved_executor_threads(0));
  root.set("env", std::move(env));

  Json workload = Json::object();
  workload.set("width", width_);
  workload.set("height", height_);
  workload.set("frames", frames_);
  root.set("workload", std::move(workload));

  if (!tolerances_.empty()) {
    Json tol = Json::object();
    for (const auto& [k, v] : tolerances_) tol.set(k, v);
    root.set("tolerances", std::move(tol));
  }

  Json cases = Json::array();
  for (const Case& c : cases_) {
    Json jc = Json::object();
    jc.set("name", c.name());
    Json metrics = Json::object();
    for (const auto& [k, v] : c.metrics()) metrics.set(k, v);
    jc.set("metrics", std::move(metrics));
    cases.push_back(std::move(jc));
  }
  root.set("cases", std::move(cases));
  if (!profile_.is_null()) root.set("prof", profile_);
  return root;
}

std::string BenchReporter::write_file(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  write_json_file(path, to_json());
  return path;
}

}  // namespace mog::telemetry
