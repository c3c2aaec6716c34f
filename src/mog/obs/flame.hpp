// Exporters for sampled FlameProfiles (see sampler.hpp):
//  * collapsed-stack text — one "thread;frame;frame count" line per stack,
//    the input format of Brendan Gregg's flamegraph.pl;
//  * speedscope JSON — load the file at https://speedscope.app;
//  * a terminal top-N table for `mogprof --flame`;
//  * a report block for embedding in schema-v1 BENCH_*.json.
// parse_collapsed() round-trips the text format so profiles can be
// re-rendered (and regression-tested) from the artifact alone.
#pragma once

#include <string>

#include "mog/obs/http_server.hpp"
#include "mog/obs/sampler.hpp"
#include "mog/telemetry/json.hpp"

namespace mog::obs {

/// Collapsed-stack text. Stacks render as "thread;frame;... count\n";
/// idle observations (empty published stack) render as "thread;(idle) N".
/// Deterministic: follows the profile's stack order.
std::string render_collapsed(const FlameProfile& profile);

/// Parse collapsed-stack text back into a profile. Stack counts, threads
/// and frames round-trip exactly; rate metadata (hz/seconds/ticks) is not
/// part of the format and comes back zero. "(idle)" leaves fold back into
/// the idle tally. Throws mog::Error on malformed lines.
FlameProfile parse_collapsed(const std::string& text);

/// Speedscope-compatible JSON ("sampled" profile type, one profile per
/// thread, weights = sample counts).
telemetry::Json render_speedscope(const FlameProfile& profile);

/// Compact JSON block for BENCH_*.json reports: capture metadata plus
/// stacks as {"stack": "thread;frame;...", "count": N} entries.
telemetry::Json profile_report_json(const FlameProfile& profile);

/// Inverse of profile_report_json (mogprof --flame reads either this block
/// out of a BENCH_*.json or a raw .collapsed file).
FlameProfile profile_from_report_json(const telemetry::Json& prof);

/// Terminal table: per-frame self/total sample shares, hottest first.
std::string render_flame_table(const FlameProfile& profile, int top_n = 20);

/// The GET /profilez handler of the DeviceFleet observability endpoint.
/// Blocks the (single) observability server thread while it captures from
/// Sampler::global() — bounded by the clamp on `seconds`.
///   ?seconds=N  capture window, (0, 30], default 1
///   ?hz=M       sampling rate, [1, 10000], default 997
///   ?format=    collapsed (default) | speedscope | table
/// Out-of-range or unknown values get 400; a capture already in flight
/// gets 503. The sampler is process-global, so every device plane's
/// threads ("dev<i>.pump", "exec<w>") appear in one capture.
HttpResponse profilez_response(const HttpRequest& request);

}  // namespace mog::obs
