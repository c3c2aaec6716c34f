// Host-process probes: CPU time, peak resident memory, live thread count,
// and the environment block every result carries.
#pragma once

#include "mog/telemetry/json.hpp"

namespace camerabench {

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();

/// Peak resident set size of the process so far, in MB (2^20 bytes).
double peak_rss_mb();

/// Current thread count (the "Threads:" line of /proc/self/status); 0 when
/// it cannot be read.
int thread_count();

/// The environment block of BENCH_*.json reports (compiler, flags,
/// hardware and executor threads) plus the build type and nproc.
mog::telemetry::Json environment_block();

}  // namespace camerabench
