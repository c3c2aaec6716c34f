// Tests of the benchmark's own metric code: percentile selection, latency
// from due time, failure accounting, and exact repetition of the modeled
// outputs on the backlog workloads.
#include <gtest/gtest.h>

#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace camerabench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, IsTheHighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(ramp(1000)).level, 99);
  EXPECT_EQ(tail_percentile(ramp(999)).level, 95);
  EXPECT_EQ(tail_percentile(ramp(200)).level, 95);
  EXPECT_EQ(tail_percentile(ramp(199)).level, 90);
  EXPECT_EQ(tail_percentile(ramp(100)).level, 90);
  EXPECT_EQ(tail_percentile(ramp(99)).level, 50);
  for (const std::size_t n : {20u, 100u, 200u, 1000u, 5000u}) {
    const Percentile p = tail_percentile(ramp(n));
    EXPECT_TRUE(p.meets_rule) << n;
    EXPECT_GE(p.beyond, 10u) << n;
    EXPECT_EQ(p.n, n);
  }
}

TEST(TailPercentile, NeverExceedsTheNominalLevel) {
  EXPECT_EQ(tail_percentile(ramp(5000), 95).level, 95);
  EXPECT_EQ(tail_percentile(ramp(5000), 50).level, 50);
}

TEST(TailPercentile, FallsBackToTheMedianAndSaysSo) {
  const Percentile p = tail_percentile(ramp(15));
  EXPECT_EQ(p.level, 50);
  EXPECT_FALSE(p.meets_rule);
  EXPECT_NE(describe(p).find("fewer than 10 beyond"), std::string::npos);
}

TEST(TailPercentile, ValueInterpolatesLikeNumpy) {
  // numpy.percentile(range(1000), 99) == 989.01
  EXPECT_NEAR(tail_percentile(ramp(1000)).value, 989.01, 1e-9);
  EXPECT_NEAR(median(ramp(4)).value, 1.5, 1e-12);
}

TEST(Describe, PrintsLevelSampleCountAndBeyond) {
  EXPECT_EQ(describe(tail_percentile(ramp(240))), "p95 of n=240 (12 beyond)");
}

TEST(SamplesBeyond, CountsByRank) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(240, 95), 12u);
  EXPECT_EQ(samples_beyond(10, 50), 5u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(Latency, IsTakenFromTheDueTimeNotTheReleaseTime) {
  // Frame 1's bytes went out 30 ms late (a stall); its latency must include
  // that wait.
  std::vector<FrameRecord> frames(2);
  frames[0] = {.due_s = 0.0, .released_s = 0.001, .admitted = true};
  frames[1] = {.due_s = 0.1, .released_s = 0.130, .admitted = true};
  ASSERT_TRUE(attach_masks(frames, {0.020, 0.150}));
  const std::vector<double> lat = latencies_from_due(frames);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_NEAR(lat[0], 0.020, 1e-12);
  EXPECT_NEAR(lat[1], 0.050, 1e-12);
  const std::vector<double> late = release_lateness(frames);
  EXPECT_NEAR(late[1], 0.030, 1e-12);
}

TEST(AttachMasks, SkipsRejectedFramesAndFlagsExtraMasks) {
  std::vector<FrameRecord> frames(3);
  frames[0].admitted = true;
  frames[1].admitted = false;
  frames[2].admitted = true;
  ASSERT_TRUE(attach_masks(frames, {1.0, 2.0}));
  EXPECT_TRUE(frames[0].delivered);
  EXPECT_FALSE(frames[1].delivered);
  EXPECT_TRUE(frames[2].delivered);
  EXPECT_EQ(frames[2].observed_s, 2.0);

  std::vector<FrameRecord> again(3);
  again[0].admitted = true;
  EXPECT_FALSE(attach_masks(again, {1.0, 2.0}));  // two masks, one frame
}

TEST(FailedFrac, CountsRejectedUndeliveredAndBadMasks) {
  std::vector<FrameRecord> frames(5);
  for (FrameRecord& f : frames) f = {.admitted = true, .delivered = true,
                                     .mask_ok = true};
  frames[1].admitted = false;   // refused by the queue: no mask
  frames[1].delivered = false;
  frames[2].delivered = false;  // admitted, never delivered
  frames[3].mask_ok = false;    // delivered, failed the check
  const FailureCount c = count_failures(frames);
  EXPECT_EQ(c.attempted, 5u);
  EXPECT_EQ(c.failed, 3u);
  EXPECT_DOUBLE_EQ(c.frac(), 0.6);
  EXPECT_EQ(count_failures({}).frac(), 0.0);
}

// The backlog workloads are deterministic: the same seed must give the same
// modeled clock, counts and masks. Run at a reduced size to stay quick.
WorkloadSpec small(const char* name) {
  WorkloadSpec s = workload_spec(name);
  s.width = 96;
  s.height = 64;
  s.frames_per_stream = 16;
  return s;
}

TEST(Repeat, ModeledOutputsRepeatExactlyOnArchiveHd) {
  const WorkloadSpec s = small("archive_hd");
  const ModeledOutputs a = run_backlog_modeled(s, 7);
  const ModeledOutputs b = run_backlog_modeled(s, 7);
  EXPECT_EQ(a.masks, 16u);
  EXPECT_GT(a.makespan_s, 0);
  EXPECT_TRUE(a == b);
}

TEST(Repeat, ModeledOutputsRepeatExactlyOnTiledFailover) {
  const WorkloadSpec s = small("tiled_failover");
  const ModeledOutputs a = run_backlog_modeled(s, 7);
  const ModeledOutputs b = run_backlog_modeled(s, 7);
  EXPECT_EQ(a.masks, 64u);
  EXPECT_TRUE(a == b);
  // A different seed is a different scene.
  EXPECT_NE(a.mask_hashes, run_backlog_modeled(s, 8).mask_hashes);
}

}  // namespace
}  // namespace camerabench
