#include "mog/telemetry/counters.hpp"

#include <algorithm>
#include <cmath>

#include "mog/common/strutil.hpp"

namespace mog::telemetry {

double percentile(std::vector<double> samples, double p) {
  MOG_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  // An empty series is an ordinary state for a live /metrics scrape (a
  // stream that has not completed a frame yet), not a caller bug: report 0
  // rather than aborting the exposition.
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Rollup make_rollup(const std::vector<double>& samples) {
  Rollup r;
  r.count = samples.size();
  if (samples.empty()) return r;
  r.min = samples[0];
  r.max = samples[0];
  for (const double v : samples) {
    r.total += v;
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  r.mean = r.total / static_cast<double>(r.count);
  r.p50 = percentile(samples, 50.0);
  r.p90 = percentile(samples, 90.0);
  r.p99 = percentile(samples, 99.0);
  return r;
}

void CounterRegistry::on_kernel_launch(const gpusim::KernelStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (names_.empty()) {
    gpusim::visit_metrics(stats, [this](const char* name, double, bool ext) {
      names_.emplace_back(name);
      extensive_.push_back(ext);
      samples_.emplace_back();
    });
  }
  std::size_t i = 0;
  gpusim::visit_metrics(stats, [this, &i](const char*, double value, bool) {
    samples_[i++].push_back(value);
  });
  ++launches_;
}

std::size_t CounterRegistry::launches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return launches_;
}

std::vector<std::string> CounterRegistry::metric_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

int CounterRegistry::index_of(const std::string& metric) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == metric) return static_cast<int>(i);
  return -1;
}

std::size_t CounterRegistry::checked_index(const std::string& metric) const {
  const int i = index_of(metric);
  MOG_CHECK(i >= 0, "unknown telemetry metric: " + metric);
  return static_cast<std::size_t>(i);
}

std::vector<double> CounterRegistry::samples(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int i = index_of(metric);
  return i < 0 ? std::vector<double>{} : samples_[static_cast<std::size_t>(i)];
}

double CounterRegistry::per_run_locked(std::size_t i) const {
  const Rollup r = make_rollup(samples_[i]);
  return extensive_[i] ? r.total : r.mean;
}

double CounterRegistry::per_run(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  return per_run_locked(checked_index(metric));
}

double CounterRegistry::per_frame(const std::string& metric,
                                  std::uint64_t frames) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = checked_index(metric);
  if (!extensive_[i]) return per_run_locked(i);
  MOG_CHECK(frames > 0, "per-frame rollup needs a positive frame count");
  return per_run_locked(i) / static_cast<double>(frames);
}

void CounterRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  launches_ = 0;
  names_.clear();
  extensive_.clear();
  samples_.clear();
}

Json CounterRegistry::to_json() const {
  const auto metric_json = [](const Rollup& r, bool extensive) {
    Json m = Json::object();
    m.set("extensive", extensive);
    m.set("count", static_cast<double>(r.count));
    m.set("total", r.total);
    m.set("mean", r.mean);
    m.set("min", r.min);
    m.set("max", r.max);
    m.set("p50", r.p50);
    m.set("p90", r.p90);
    m.set("p99", r.p99);
    return m;
  };
  std::lock_guard<std::mutex> lock(mu_);
  Json root = Json::object();
  root.set("launches", static_cast<double>(launches_));
  Json metrics = Json::object();
  for (std::size_t i = 0; i < names_.size(); ++i)
    metrics.set(names_[i], metric_json(make_rollup(samples_[i]),
                                       extensive_[i]));
  root.set("metrics", std::move(metrics));
  return root;
}

std::string CounterRegistry::summary(std::uint64_t frames) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (launches_ == 0) return "no kernel launches recorded";
  std::string out = strprintf("%zu kernel launches", launches_);
  if (frames > 0)
    out += strprintf(" over %llu frames",
                     static_cast<unsigned long long>(frames));
  const auto line = [&](const char* metric, const char* label, double scale) {
    const int i = index_of(metric);
    if (i < 0) return;
    const Rollup r = make_rollup(samples_[static_cast<std::size_t>(i)]);
    if (r.count == 0) return;
    out += strprintf("\n  %-24s mean %10.3f  p50 %10.3f  p99 %10.3f", label,
                     r.mean * scale, r.p50 * scale, r.p99 * scale);
  };
  line("load_transactions", "load txns/launch (M)", 1e-6);
  line("store_transactions", "store txns/launch (M)", 1e-6);
  line("divergence_ratio", "divergence ratio (%)", 100.0);
  line("memory_access_efficiency", "mem access eff (%)", 100.0);
  line("shared_replay_cycles", "shared replays/launch", 1.0);
  line("issue_cycles", "issue cycles/launch (M)", 1e-6);
  return out;
}

}  // namespace mog::telemetry
