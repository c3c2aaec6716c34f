#include "mog/telemetry/prometheus.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"

namespace mog::telemetry {

namespace {

bool valid_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool valid_name_char(char c) {
  return valid_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || !valid_name_start(name[0])) return false;
  return std::all_of(name.begin(), name.end(), valid_name_char);
}

bool valid_label_name(const std::string& name) {
  // Label names exclude ':' (reserved for recording rules).
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) != 0 ||
        name[0] == '_'))
    return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  });
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out.push_back(c);
  }
  return out;
}

/// HELP text escaping per the text-exposition spec: only `\` and newline
/// are escaped (quotes are legal in HELP text). Without this, a help string
/// containing a newline splits the exposition mid-comment and the scraper
/// rejects the whole page.
std::string escape_help_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out.push_back(c);
  }
  return out;
}

std::string format_value(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == std::floor(value) && std::fabs(value) < 1e15)
    return strprintf("%lld", static_cast<long long>(value));
  return strprintf("%.17g", value);
}

std::string render_labels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += escape_label_value(labels[i].second);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

LabelSet with_label(LabelSet labels, std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return labels;
}

void check_family(const MetricFamily& f) {
  MOG_CHECK(valid_metric_name(f.name), "invalid metric name: " + f.name);
  const auto check_labels = [&](const LabelSet& labels) {
    for (const auto& [k, v] : labels) {
      MOG_CHECK(valid_label_name(k),
                "invalid label name '" + k + "' in family " + f.name);
      (void)v;
    }
  };
  for (const MetricSample& s : f.samples) check_labels(s.labels);
  for (const HistogramSeries& h : f.histograms) {
    check_labels(h.labels);
    MOG_CHECK(h.counts.size() == h.bounds.size() + 1,
              "histogram bucket/bound mismatch in family " + f.name);
  }
  if (f.type == MetricType::kHistogram)
    MOG_CHECK(f.samples.empty(),
              "histogram family " + f.name + " carries scalar samples");
  else
    MOG_CHECK(f.histograms.empty(),
              "scalar family " + f.name + " carries histogram series");
}

}  // namespace

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kGauge: return "gauge";
    case MetricType::kCounter: return "counter";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!valid_name_char(c)) c = '_';
  if (out.empty() || !valid_name_start(out[0])) out.insert(out.begin(), '_');
  return out;
}

const std::vector<double>& default_latency_bounds() {
  static const std::vector<double> bounds = {
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
      5e-2, 1e-1,   0.25, 0.5,  1.0,    2.5,  5.0,  10.0,
      25.0, 100.0};
  return bounds;
}

HistogramSeries make_histogram(const std::vector<double>& samples,
                               LabelSet labels,
                               const std::vector<double>& bounds) {
  MOG_CHECK(std::is_sorted(bounds.begin(), bounds.end()),
            "histogram bounds must be ascending");
  HistogramSeries h;
  h.labels = std::move(labels);
  h.bounds = bounds;
  h.counts.assign(bounds.size() + 1, 0);
  for (const double v : samples) {
    h.sum += v;
    ++h.count;
    // Cumulative buckets: v lands in every bucket whose bound covers it.
    const auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), v);
    for (std::size_t i = static_cast<std::size_t>(it - h.bounds.begin());
         i < h.counts.size(); ++i)
      ++h.counts[i];
  }
  return h;
}

std::string render(const std::vector<MetricFamily>& families) {
  std::string out;
  for (const MetricFamily& f : families) {
    check_family(f);
    out += "# HELP " + f.name + " " + escape_help_text(f.help) + "\n";
    out += "# TYPE " + f.name + " ";
    out += to_string(f.type);
    out.push_back('\n');
    for (const MetricSample& s : f.samples)
      out += f.name + render_labels(s.labels) + " " + format_value(s.value) +
             "\n";
    for (const HistogramSeries& h : f.histograms) {
      for (std::size_t i = 0; i <= h.bounds.size(); ++i) {
        const std::string le =
            i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf";
        out += f.name + "_bucket" +
               render_labels(with_label(h.labels, "le", le)) + " " +
               format_value(static_cast<double>(h.counts[i])) + "\n";
      }
      out += f.name + "_sum" + render_labels(h.labels) + " " +
             format_value(h.sum) + "\n";
      out += f.name + "_count" + render_labels(h.labels) + " " +
             format_value(static_cast<double>(h.count)) + "\n";
    }
  }
  return out;
}

namespace {

/// Strip a histogram sample suffix so `x_bucket` maps back to family `x`.
std::string histogram_base(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s{suffix};
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0)
      return name.substr(0, name.size() - s.size());
  }
  return name;
}

}  // namespace

std::string validate_exposition(const std::string& text) {
  std::map<std::string, std::string> declared_type;  // family -> type
  std::size_t line_no = 0;
  std::size_t pos = 0;
  const auto fail = [&](const std::string& why) {
    return strprintf("line %zu: %s", line_no, why.c_str());
  };

  if (!text.empty() && text.back() != '\n')
    return "exposition must end with a newline";

  while (pos < text.size()) {
    ++line_no;
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return fail("missing trailing newline");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" or "# TYPE name kind" (anything else is a plain
      // comment per the format, but this renderer only emits those two).
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) return fail("malformed TYPE comment");
        const std::string name = rest.substr(0, sp);
        const std::string kind = rest.substr(sp + 1);
        if (!valid_metric_name(name))
          return fail("invalid metric name in TYPE: " + name);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped")
          return fail("unknown metric type: " + kind);
        if (declared_type.count(name) != 0)
          return fail("duplicate TYPE for " + name);
        declared_type[name] = kind;
      } else if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string name =
            sp == std::string::npos ? rest : rest.substr(0, sp);
        if (!valid_metric_name(name))
          return fail("invalid metric name in HELP: " + name);
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && valid_name_char(line[i])) ++i;
    const std::string name = line.substr(0, i);
    if (!valid_metric_name(name)) return fail("invalid sample metric name");

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t j = i;
        while (j < line.size() && line[j] != '=') ++j;
        if (j >= line.size()) return fail("unterminated label pair");
        if (!valid_label_name(line.substr(i, j - i)))
          return fail("invalid label name: " + line.substr(i, j - i));
        ++j;
        if (j >= line.size() || line[j] != '"')
          return fail("label value must be quoted");
        ++j;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\') {
            if (j + 1 >= line.size() ||
                (line[j + 1] != '\\' && line[j + 1] != '"' &&
                 line[j + 1] != 'n'))
              return fail("invalid escape in label value");
            ++j;
          }
          ++j;
        }
        if (j >= line.size()) return fail("unterminated label value");
        ++j;
        if (j < line.size() && line[j] == ',') ++j;
        i = j;
      }
      if (i >= line.size()) return fail("unterminated label set");
      ++i;  // '}'
    }

    if (i >= line.size() || line[i] != ' ')
      return fail("expected space before sample value");
    ++i;
    const std::string value = line.substr(i);
    if (value.empty()) return fail("missing sample value");
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      const std::string v{value};
      std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0')
        return fail("malformed sample value: " + value);
    }

    const std::string family = histogram_base(name);
    const auto it = declared_type.find(family) != declared_type.end()
                        ? declared_type.find(family)
                        : declared_type.find(name);
    if (it == declared_type.end())
      return fail("sample without a preceding TYPE: " + name);
    if (it->second == "histogram" && it->first == family && family != name) {
      // _bucket samples must carry an `le` label.
      if (name.size() >= 7 &&
          name.compare(name.size() - 7, 7, "_bucket") == 0 &&
          line.find("le=\"") == std::string::npos)
        return fail("histogram bucket sample without an le label");
    }
  }
  return "";
}

void append_counter_registry(const CounterRegistry& registry,
                             std::vector<MetricFamily>& out) {
  {
    MetricFamily launches;
    launches.name = "mog_kernel_launches_total";
    launches.help = "Simulated kernel launches observed by the registry";
    launches.type = MetricType::kCounter;
    launches.samples.push_back(
        {{}, static_cast<double>(registry.launches())});
    out.push_back(std::move(launches));
  }

  for (const std::string& metric : registry.metric_names()) {
    const Rollup r = registry.rollup(metric);
    const std::string base = "mog_kernel_" + sanitize_metric_name(metric);

    MetricFamily g;
    g.name = base;
    g.help = "Per-launch rollup of simulated profiler metric " + metric;
    g.type = MetricType::kGauge;
    g.samples.push_back({{{"stat", "mean"}}, r.mean});
    g.samples.push_back({{{"stat", "p50"}}, r.p50});
    g.samples.push_back({{{"stat", "p99"}}, r.p99});
    out.push_back(std::move(g));
  }
}

void append_trace_health(const TraceRecorder& recorder,
                         std::vector<MetricFamily>& out) {
  MetricFamily events;
  events.name = "mog_trace_events";
  events.help = "Trace events currently held by the recorder";
  events.type = MetricType::kGauge;
  events.samples.push_back({{}, static_cast<double>(recorder.size())});
  out.push_back(std::move(events));

  MetricFamily capacity;
  capacity.name = "mog_trace_capacity";
  capacity.help = "Event capacity of the trace recorder";
  capacity.type = MetricType::kGauge;
  capacity.samples.push_back({{}, static_cast<double>(recorder.capacity())});
  out.push_back(std::move(capacity));

  MetricFamily dropped;
  dropped.name = "mog_trace_dropped_total";
  dropped.help = "Trace events dropped after the recorder filled";
  dropped.type = MetricType::kCounter;
  dropped.samples.push_back({{}, static_cast<double>(recorder.dropped())});
  out.push_back(std::move(dropped));
}

}  // namespace mog::telemetry
