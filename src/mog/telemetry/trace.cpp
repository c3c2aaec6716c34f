#include "mog/telemetry/trace.hpp"

namespace mog::telemetry {

namespace {

const char* track_name(int tid) {
  switch (tid) {
    case TraceRecorder::kWallTrack: return "wall clock";
    case TraceRecorder::kModeledTrack: return "modeled GPU timeline";
    case TraceRecorder::kModeledOverlapTrack: return "modeled overlap windows";
    default: return "track";
  }
}

}  // namespace

Json TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json trace = Json::object();
  Json arr = Json::array();

  // Thread-name metadata events so the tracks are labeled in the viewer.
  for (const int tid :
       {kWallTrack, kModeledTrack, kModeledOverlapTrack}) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    Json args = Json::object();
    args.set("name", track_name(tid));
    meta.set("args", std::move(args));
    arr.push_back(std::move(meta));
  }

  for (const TraceEvent& ev : events_) {
    Json e = Json::object();
    e.set("name", ev.name);
    e.set("cat", ev.cat);
    e.set("ph", std::string(1, ev.phase));
    e.set("ts", static_cast<double>(ev.ts_us));
    if (ev.phase == 'X') e.set("dur", static_cast<double>(ev.dur_us));
    if (ev.phase == 'i') e.set("s", "t");  // instant scope: thread
    if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
      e.set("id", static_cast<double>(ev.flow_id));
      // Bind step/end to the enclosing slice so the arrows attach to the
      // upload/kernel/download boxes rather than to whole-track anchors.
      if (ev.phase != 's') e.set("bp", "e");
    }
    e.set("pid", 1);
    e.set("tid", ev.tid);
    if (!ev.args.empty()) {
      Json args = Json::object();
      for (const auto& [k, v] : ev.args) args.set(k, v);
      e.set("args", std::move(args));
    }
    arr.push_back(std::move(e));
  }

  // A truncated recording says so inside the trace itself: a final instant
  // a viewer shows at the end of the wall track, plus a trace.dropped
  // counter sample so the loss is graphable. otherData alone is invisible
  // in Perfetto's timeline view.
  if (dropped_ > 0) {
    const std::int64_t last_ts =
        events_.empty() ? 0 : events_.back().ts_us + events_.back().dur_us;
    Json note = Json::object();
    note.set("name", "trace.truncated");
    note.set("cat", "telemetry");
    note.set("ph", "i");
    note.set("ts", static_cast<double>(last_ts));
    note.set("s", "g");  // global scope: draws a full-height marker
    note.set("pid", 1);
    note.set("tid", kWallTrack);
    Json nargs = Json::object();
    nargs.set("dropped_events", static_cast<double>(dropped_));
    nargs.set("capacity", static_cast<double>(capacity_));
    note.set("args", std::move(nargs));
    arr.push_back(std::move(note));

    Json ctr = Json::object();
    ctr.set("name", "trace.dropped");
    ctr.set("cat", "counter");
    ctr.set("ph", "C");
    ctr.set("ts", static_cast<double>(last_ts));
    ctr.set("pid", 1);
    ctr.set("tid", kWallTrack);
    Json cargs = Json::object();
    cargs.set("value", static_cast<double>(dropped_));
    ctr.set("args", std::move(cargs));
    arr.push_back(std::move(ctr));
  }

  trace.set("traceEvents", std::move(arr));
  trace.set("displayTimeUnit", "ms");
  Json other = Json::object();
  other.set("recorded_events", static_cast<double>(events_.size()));
  other.set("dropped_events", static_cast<double>(dropped_));
  trace.set("otherData", std::move(other));
  return trace;
}

}  // namespace mog::telemetry
