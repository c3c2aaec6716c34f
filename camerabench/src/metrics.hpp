// Metric arithmetic of the camera-serving benchmark: percentiles with the
// ten-samples-beyond rule, open-loop latency from due time, and failure
// accounting. Pure functions, so tests can pin every rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace camerabench {

/// A percentile as reported: the level actually used, its value, the sample
/// count, and how many samples lie beyond it.
struct Percentile {
  double level = 0;  ///< e.g. 99 for p99
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  /// False when even the median has fewer than ten samples beyond it.
  bool meets_rule = false;
};

/// Samples strictly beyond percentile `level` of n samples, by rank.
std::size_t samples_beyond(std::size_t n, double level);

/// The highest level of {50, 90, 95, 99} not above `nominal` that has at
/// least ten samples beyond it; the median when none has. Values use linear
/// interpolation between order statistics (numpy's default).
Percentile tail_percentile(const std::vector<double>& samples,
                           double nominal = 99);

/// Median, reported with its sample count (the rule holds from n >= 20).
Percentile median(const std::vector<double>& samples);

/// "p95 of n=240 (12 beyond)" — printed beside every reported percentile.
std::string describe(const Percentile& p);

/// One frame a stream offered the system, from due time to observed mask.
struct FrameRecord {
  double due_s = 0;       ///< when its bytes were scheduled for release
  double released_s = 0; ///< when they were actually released (>= due)
  bool admitted = false;  ///< the serving queue accepted it
  bool delivered = false; ///< a mask came back for it
  double observed_s = 0;  ///< when the mask was observed (if delivered)
  bool mask_ok = false;   ///< the mask passed the output check
};

/// Host latencies of delivered frames, taken from the due time so a stall
/// also charges every frame queued behind it.
std::vector<double> latencies_from_due(const std::vector<FrameRecord>& frames);

/// How late the generator released each frame (release - due).
std::vector<double> release_lateness(const std::vector<FrameRecord>& frames);

/// Masks come back in admission order: attach the k-th observed mask to the
/// k-th admitted frame. Returns false (and attaches nothing beyond the
/// admitted frames) when more masks came back than frames were admitted.
bool attach_masks(std::vector<FrameRecord>& frames,
                  const std::vector<double>& observed_s);

struct FailureCount {
  std::uint64_t attempted = 0;  ///< frames submitted
  std::uint64_t failed = 0;     ///< no mask, or a mask that failed the check
  double frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

FailureCount count_failures(const std::vector<FrameRecord>& frames);

/// Median of a sample vector (0 when empty).
double median_value(std::vector<double> samples);

}  // namespace camerabench
