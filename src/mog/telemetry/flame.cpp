#include "mog/telemetry/flame.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"

namespace mog::telemetry {

namespace {

constexpr const char* kIdleFrame = "(idle)";

std::uint64_t parse_count(std::string_view text, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  MOG_CHECK(ec == std::errc{} && ptr == text.data() + text.size(),
            strprintf("collapsed stack line %zu: bad sample count", line_no));
  return value;
}

std::vector<std::string> split_frames(std::string_view text) {
  std::vector<std::string> frames;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t semi = text.find(';', start);
    const std::size_t end = semi == std::string_view::npos ? text.size() : semi;
    frames.emplace_back(text.substr(start, end - start));
    if (semi == std::string_view::npos) break;
    start = semi + 1;
  }
  return frames;
}

}  // namespace

std::string render_collapsed(const FlameProfile& profile) {
  std::string out;
  for (const FlameStack& stack : profile.stacks) {
    out += stack.thread;
    if (stack.frames.empty()) {
      out += ";";
      out += kIdleFrame;
    } else {
      for (const std::string& frame : stack.frames) {
        out += ';';
        out += frame;
      }
    }
    out += strprintf(" %llu\n",
                     static_cast<unsigned long long>(stack.count));
  }
  return out;
}

FlameProfile parse_collapsed(const std::string& text) {
  FlameProfile profile;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    std::string_view line{text.data() + pos, end - pos};
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;

    const std::size_t space = line.rfind(' ');
    MOG_CHECK(space != std::string_view::npos && space > 0,
              strprintf("collapsed stack line %zu: missing count", line_no));
    FlameStack stack;
    stack.count = parse_count(line.substr(space + 1), line_no);
    std::vector<std::string> frames = split_frames(line.substr(0, space));
    MOG_CHECK(!frames.empty() && !frames.front().empty(),
              strprintf("collapsed stack line %zu: empty thread", line_no));
    stack.thread = std::move(frames.front());
    frames.erase(frames.begin());
    MOG_CHECK(std::none_of(frames.begin(), frames.end(),
                           [](const std::string& f) { return f.empty(); }),
              strprintf("collapsed stack line %zu: empty frame", line_no));
    if (frames.size() == 1 && frames.front() == kIdleFrame) {
      profile.idle += stack.count;  // idle marker folds back to empty frames
    } else {
      stack.frames = std::move(frames);
      profile.samples += stack.count;
    }
    profile.stacks.push_back(std::move(stack));
  }
  return profile;
}

Json render_speedscope(const FlameProfile& profile) {
  // Global frame table; stacks reference frames by index.
  std::map<std::string, std::size_t> frame_index;
  Json frames = Json::array();
  const auto intern = [&](const std::string& name) {
    const auto [it, inserted] = frame_index.emplace(name, frame_index.size());
    if (inserted) {
      Json frame = Json::object();
      frame.set("name", name);
      frames.push_back(std::move(frame));
    }
    return it->second;
  };

  // One speedscope profile per thread, in first-seen (hottest-first) order.
  std::vector<std::string> threads;
  std::map<std::string, std::pair<Json, Json>> per_thread;  // samples, weights
  std::map<std::string, std::uint64_t> thread_total;
  for (const FlameStack& stack : profile.stacks) {
    auto it = per_thread.find(stack.thread);
    if (it == per_thread.end()) {
      threads.push_back(stack.thread);
      it = per_thread.emplace(stack.thread,
                              std::make_pair(Json::array(), Json::array()))
               .first;
    }
    // Elements are built in place: moving a temporary number Json into the
    // array trips gcc 12's -Wmaybe-uninitialized through the variant.
    Json sample = Json::array();
    Json::Array& ids = sample.as_array();
    if (stack.frames.empty()) {
      ids.emplace_back(static_cast<std::uint64_t>(intern(kIdleFrame)));
    } else {
      for (const std::string& frame : stack.frames)
        ids.emplace_back(static_cast<std::uint64_t>(intern(frame)));
    }
    it->second.first.push_back(std::move(sample));
    it->second.second.push_back(stack.count);
    thread_total[stack.thread] += stack.count;
  }

  Json profiles = Json::array();
  for (const std::string& thread : threads) {
    auto& [samples, weights] = per_thread.at(thread);
    Json entry = Json::object();
    entry.set("type", "sampled");
    entry.set("name", thread);
    entry.set("unit", "none");
    entry.set("startValue", std::uint64_t{0});
    entry.set("endValue", thread_total.at(thread));
    entry.set("samples", std::move(samples));
    entry.set("weights", std::move(weights));
    profiles.push_back(std::move(entry));
  }

  Json shared = Json::object();
  shared.set("frames", std::move(frames));
  Json doc = Json::object();
  doc.set("$schema", "https://www.speedscope.app/file-format-schema.json");
  doc.set("name", strprintf("mog sampler (%d hz, %.2fs)", profile.hz,
                            profile.seconds));
  doc.set("exporter", "mogprof");
  doc.set("activeProfileIndex", std::uint64_t{0});
  doc.set("shared", std::move(shared));
  doc.set("profiles", std::move(profiles));
  return doc;
}

Json profile_report_json(const FlameProfile& profile) {
  Json prof = Json::object();
  prof.set("hz", profile.hz);
  prof.set("seconds", profile.seconds);
  prof.set("ticks", profile.ticks);
  prof.set("samples", profile.samples);
  prof.set("idle", profile.idle);
  prof.set("truncated", profile.truncated);
  Json stacks = Json::array();
  for (const FlameStack& stack : profile.stacks) {
    std::string flat = stack.thread;
    for (const std::string& frame : stack.frames) {
      flat += ';';
      flat += frame;
    }
    if (stack.frames.empty()) {
      flat += ';';
      flat += kIdleFrame;
    }
    Json entry = Json::object();
    entry.set("stack", std::move(flat));
    entry.set("count", stack.count);
    stacks.push_back(std::move(entry));
  }
  prof.set("stacks", std::move(stacks));
  return prof;
}

FlameProfile profile_from_report_json(const Json& prof) {
  const auto u64 = [&](const char* key) -> std::uint64_t {
    const Json* v = prof.find(key);
    return v != nullptr && v->is_number()
               ? static_cast<std::uint64_t>(v->as_number())
               : 0;
  };
  FlameProfile profile;
  profile.hz = static_cast<int>(u64("hz"));
  if (const Json* v = prof.find("seconds"); v && v->is_number())
    profile.seconds = v->as_number();
  profile.ticks = u64("ticks");
  profile.truncated = u64("truncated");
  const Json* stacks = prof.find("stacks");
  MOG_CHECK(stacks != nullptr && stacks->is_array(),
            "prof block has no stacks array");
  std::string collapsed;
  for (const Json& entry : stacks->as_array()) {
    const Json* flat = entry.find("stack");
    const Json* count = entry.find("count");
    MOG_CHECK(flat != nullptr && flat->is_string() && count != nullptr &&
                  count->is_number(),
              "malformed prof stack entry");
    collapsed += flat->as_string();
    collapsed += strprintf(
        " %llu\n",
        static_cast<unsigned long long>(count->as_number()));
  }
  FlameProfile parsed = parse_collapsed(collapsed);
  profile.stacks = std::move(parsed.stacks);
  profile.samples = parsed.samples;
  profile.idle = parsed.idle;
  return profile;
}

HttpResponse profilez_response(const HttpRequest& request) {
  HttpResponse bad;
  bad.status = 400;

  double seconds = 1.0;
  int hz = 997;
  std::string format = "collapsed";
  try {
    if (const std::string* v = request.param("seconds"))
      seconds = parse_double(*v, 1e-3, 30.0, "?seconds");
    if (const std::string* v = request.param("hz"))
      hz = parse_int(*v, 1, 10000, "?hz");
  } catch (const Error& e) {
    bad.body = std::string(e.what()) + "\n";
    return bad;
  }
  if (const std::string* v = request.param("format")) format = *v;
  if (format != "collapsed" && format != "speedscope" && format != "table") {
    bad.body = "?format must be collapsed, speedscope, or table\n";
    return bad;
  }

  FlameProfile profile;
  if (!Sampler::global().try_capture(seconds, hz, profile)) {
    HttpResponse busy;
    busy.status = 503;
    busy.body = "a profile capture is already in flight\n";
    return busy;
  }

  HttpResponse ok;
  if (format == "speedscope") {
    ok.content_type = "application/json; charset=utf-8";
    ok.body = render_speedscope(profile).dump(2) + "\n";
  } else if (format == "table") {
    ok.body = render_flame_table(profile);
  } else {
    ok.body = render_collapsed(profile);
  }
  return ok;
}

std::string render_flame_table(const FlameProfile& profile, int top_n) {
  std::uint64_t total_observations = 0;
  std::map<std::string, std::uint64_t> self, total;
  for (const FlameStack& stack : profile.stacks) {
    total_observations += stack.count;
    if (stack.frames.empty()) {
      self[kIdleFrame] += stack.count;
      total[kIdleFrame] += stack.count;
      continue;
    }
    self[stack.frames.back()] += stack.count;
    const std::set<std::string> unique(stack.frames.begin(),
                                       stack.frames.end());
    for (const std::string& frame : unique) total[frame] += stack.count;
  }

  std::string out;
  out += strprintf("flame: %d hz, %.2fs, %llu ticks, %llu samples", profile.hz,
                   profile.seconds,
                   static_cast<unsigned long long>(profile.ticks),
                   static_cast<unsigned long long>(profile.samples));
  if (profile.truncated > 0)
    out += strprintf(" (%llu truncated pushes)",
                     static_cast<unsigned long long>(profile.truncated));
  out += "\n";
  if (total_observations == 0) {
    out += "  (no samples; was anything running?)\n";
    return out;
  }

  std::vector<std::pair<std::string, std::uint64_t>> rows(self.begin(),
                                                          self.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  out += strprintf("  %-20s %9s %9s %12s\n", "frame", "self%", "total%",
                   "samples");
  int shown = 0;
  for (const auto& [frame, self_count] : rows) {
    if (shown++ >= top_n) break;
    const double denom = static_cast<double>(total_observations);
    out += strprintf("  %-20s %8.1f%% %8.1f%% %12llu\n", frame.c_str(),
                     100.0 * static_cast<double>(self_count) / denom,
                     100.0 * static_cast<double>(total[frame]) / denom,
                     static_cast<unsigned long long>(self_count));
  }
  return out;
}

}  // namespace mog::telemetry
