// Prometheus text-exposition (version 0.0.4) rendering.
//
// The exporter is a pure renderer: callers assemble MetricFamily values from
// whatever state they own (the serving layer renders its queues and
// recovery counters; helpers below render the shared telemetry sinks) and
// render() produces the `# HELP`/`# TYPE`-annotated text a Prometheus
// scraper ingests. Families keep insertion order so /metrics diffs cleanly
// between scrapes.
//
// Metric naming scheme (documented in README "Observability"): every family
// is prefixed `mog_`, subsystem second (`mog_serve_*`, `mog_kernel_*`,
// `mog_trace_*`, `mog_timeline_*`), with `_total` reserved for counters.
// Instance dimensions ride on labels: `stream="3"` for per-camera series,
// `kernel="D"` / `metric=...` / `stat=...` for per-kernel profiler rollups.
//
// validate_exposition() checks a rendered page against the text-format
// grammar (metric/label name charsets, escaping, TYPE/sample consistency,
// histogram le-bucket shape); tests run every rendered page through it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/trace.hpp"

namespace mog::telemetry {

using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kGauge, kCounter, kHistogram };

const char* to_string(MetricType type);

/// One sample of a gauge or counter family.
struct MetricSample {
  LabelSet labels;
  double value = 0;
};

/// One labelled histogram series: cumulative `le` buckets + sum + count.
struct HistogramSeries {
  LabelSet labels;
  std::vector<double> bounds;          ///< ascending; +Inf bucket implicit
  std::vector<std::uint64_t> counts;   ///< cumulative, size bounds.size() + 1
  double sum = 0;
  std::uint64_t count = 0;
};

struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kGauge;
  std::vector<MetricSample> samples;        ///< gauge / counter families
  std::vector<HistogramSeries> histograms;  ///< histogram families
};

/// Map an internal metric name onto the exposition charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): '.', '-', and other invalid bytes become '_'.
std::string sanitize_metric_name(const std::string& name);

/// Default bucket ladder for modeled latencies: 100 us to ~100 s,
/// roughly 1-2-5 per decade.
const std::vector<double>& default_latency_bounds();

/// Bucket raw samples into one histogram series.
HistogramSeries make_histogram(const std::vector<double>& samples,
                               LabelSet labels,
                               const std::vector<double>& bounds =
                                   default_latency_bounds());

/// Render families as a text-format page (ends with a newline).
std::string render(const std::vector<MetricFamily>& families);

/// Grammar check for a rendered page; returns "" when well-formed, else a
/// description of the first violation (with its line number).
std::string validate_exposition(const std::string& text);

/// CounterRegistry rollups as families: `mog_kernel_launches_total` and one
/// `mog_kernel_<metric>` gauge per kernel metric (stat="mean"/"p50"/"p99"
/// labels).
void append_counter_registry(const CounterRegistry& registry,
                             std::vector<MetricFamily>& out);

/// TraceRecorder capacity / drop health: a truncated trace is visible on
/// /metrics before anyone opens the exported file.
void append_trace_health(const TraceRecorder& recorder,
                         std::vector<MetricFamily>& out);

}  // namespace mog::telemetry
