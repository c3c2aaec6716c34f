// Process-wide telemetry sinks.
//
// The pipeline layers are instrumented unconditionally but emit nothing
// until a sink is installed here — a null sink costs one pointer load per
// site, which keeps the tracing layer out of the hot path for ordinary
// runs. Every sink installs the same way, an atomic pointer behind a
// get/set pair, and every sink is thread-safe. Ownership stays with the
// installer (typically an example binary or a test); install nullptr before
// the sink dies.
//
//   mog::telemetry::TraceRecorder rec;
//   mog::telemetry::CounterRegistry reg;
//   mog::telemetry::set_tracer(&rec);
//   mog::telemetry::set_counters(&reg);
//   ... run pipelines ...
//   rec.write("trace.json");            // load in chrome://tracing
//   std::puts(reg.summary().c_str());
//   mog::telemetry::set_tracer(nullptr);
//   mog::telemetry::set_counters(nullptr);
//
// Pipelines read the counter registry and the heatmap at construction
// (they become the device's stats sink), so install those first.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/trace.hpp"

namespace mog::telemetry {

class HeatmapSink;

namespace detail {
inline std::atomic<TraceRecorder*> g_tracer{nullptr};
inline std::atomic<CounterRegistry*> g_counters{nullptr};
inline std::atomic<HeatmapSink*> g_heatmap{nullptr};
}  // namespace detail

inline TraceRecorder* tracer() { return detail::g_tracer.load(); }
inline void set_tracer(TraceRecorder* sink) { detail::g_tracer.store(sink); }

inline CounterRegistry* counters() { return detail::g_counters.load(); }
inline void set_counters(CounterRegistry* sink) {
  detail::g_counters.store(sink);
}

/// Per-block spatial attribution (heatmap.hpp); chains to counters().
inline HeatmapSink* heatmap_sink() { return detail::g_heatmap.load(); }
inline void set_heatmap_sink(HeatmapSink* sink) {
  detail::g_heatmap.store(sink);
}

/// Emit an instant event on the installed tracer; no-op when none is set.
inline void emit_instant(const char* name, const char* cat,
                         std::vector<std::pair<std::string, double>> args = {}) {
  if (TraceRecorder* tr = tracer()) tr->instant(name, cat, std::move(args));
}

/// Wall-clock span on the installed tracer; inert when none is set.
inline TraceRecorder::Span maybe_span(std::string name,
                                      std::string cat = "sim") {
  return TraceRecorder::Span{tracer(), std::move(name), std::move(cat)};
}

}  // namespace mog::telemetry
