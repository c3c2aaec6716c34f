#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "mog/telemetry/bench_report.hpp"

namespace camerabench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int threads = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  std::fclose(f);
  return threads;
}

mog::telemetry::Json environment_block() {
  // Reuse the report's own env block so the two never drift apart.
  const mog::telemetry::Json report = mog::telemetry::BenchReporter{}.to_json();
  mog::telemetry::Json env = *report.find("env");
  env.set("build_type", report.find("host")->find("build_type")->as_string());
  env.set("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  return env;
}

}  // namespace camerabench
