#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mog/telemetry/counters.hpp"

namespace camerabench {

namespace {

constexpr double kLevels[] = {99, 95, 90, 50};
constexpr std::size_t kMinBeyond = 10;

Percentile at_level(const std::vector<double>& samples, double level) {
  Percentile p;
  p.level = level;
  p.n = samples.size();
  p.beyond = samples_beyond(p.n, level);
  p.value = mog::telemetry::percentile(samples, level);
  p.meets_rule = p.beyond >= kMinBeyond;
  return p;
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double level) {
  // Rank of the percentile is level/100 * n; everything strictly above that
  // rank lies beyond it.
  const double at = level / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(at - 1e-9));
  return n > rank ? n - rank : 0;
}

Percentile tail_percentile(const std::vector<double>& samples,
                           double nominal) {
  for (const double level : kLevels) {
    if (level > nominal) continue;
    if (samples_beyond(samples.size(), level) >= kMinBeyond)
      return at_level(samples, level);
  }
  return at_level(samples, 50);
}

Percentile median(const std::vector<double>& samples) {
  return at_level(samples, 50);
}

std::string describe(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g of n=%zu (%zu beyond)%s", p.level, p.n,
                p.beyond, p.meets_rule ? "" : " [fewer than 10 beyond]");
  return buf;
}

std::vector<double> latencies_from_due(const std::vector<FrameRecord>& frames) {
  std::vector<double> out;
  for (const FrameRecord& f : frames)
    if (f.delivered) out.push_back(f.observed_s - f.due_s);
  return out;
}

std::vector<double> release_lateness(const std::vector<FrameRecord>& frames) {
  std::vector<double> out;
  out.reserve(frames.size());
  for (const FrameRecord& f : frames) out.push_back(f.released_s - f.due_s);
  return out;
}

bool attach_masks(std::vector<FrameRecord>& frames,
                  const std::vector<double>& observed_s) {
  std::size_t k = 0;
  for (FrameRecord& f : frames) {
    if (!f.admitted) continue;
    if (k == observed_s.size()) break;
    f.delivered = true;
    f.observed_s = observed_s[k++];
  }
  return k == observed_s.size();
}

FailureCount count_failures(const std::vector<FrameRecord>& frames) {
  FailureCount c;
  c.attempted = frames.size();
  for (const FrameRecord& f : frames)
    if (!f.admitted || !f.delivered || !f.mask_ok) ++c.failed;
  return c;
}

double median_value(std::vector<double> samples) {
  if (samples.empty()) return 0;
  return mog::telemetry::percentile(std::move(samples), 50);
}

}  // namespace camerabench
