// Tests for the multi-device fleet: placement policy, fault domains, live
// stream migration (the acceptance criterion: a stream failing over
// mid-sequence produces bit-identical masks to an uninterrupted run),
// capacity-exhausted degradation, fleet observability, and concurrent
// submission against the background supervisor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/cluster/placement.hpp"
#include "mog/common/strutil.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/obs/prometheus.hpp"
#include "mog/obs/sampler.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using cluster::ClusterScheduler;
using cluster::DeviceFleet;
using cluster::DeviceLoad;
using cluster::FleetConfig;
using cluster::FleetStreamInfo;
using cluster::MigrationStats;

constexpr int kW = 48, kH = 36;

SyntheticScene scene_for(std::uint64_t seed) {
  SceneConfig c;
  c.width = kW;
  c.height = kH;
  c.seed = seed;
  return SyntheticScene{c};
}

DeviceFleet<double>::GpuConfig gpu_config(bool tiled = false) {
  DeviceFleet<double>::GpuConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.level = kernels::OptLevel::kF;
  if (tiled) {
    cfg.tiled = true;
    cfg.tiled_config.frame_group = 4;
    cfg.tiled_config.tile_pixels = 64;
  }
  return cfg;
}

FleetConfig fleet_config(int devices) {
  FleetConfig cfg;
  cfg.devices = devices;
  cfg.serve.queue_depth = 32;
  return cfg;
}

std::vector<FrameU8> solo_masks(std::uint64_t scene_seed, int frames) {
  GpuMogPipeline<double> solo{gpu_config(false)};
  std::vector<FrameU8> out;
  FrameU8 fg;
  for (int t = 0; t < frames; ++t) {
    EXPECT_TRUE(solo.process(scene_for(scene_seed).frame(t), fg));
    out.push_back(fg);
  }
  return out;
}

TEST(ClusterScheduler, LeastLoadedWinsOutright) {
  ClusterScheduler sched{32};
  for (int d = 0; d < 4; ++d) sched.add_device(d);
  std::vector<DeviceLoad> loads(4);
  for (int d = 0; d < 4; ++d) {
    loads[static_cast<std::size_t>(d)].device = d;
    loads[static_cast<std::size_t>(d)].open_streams = d == 2 ? 0 : 1;
  }
  EXPECT_EQ(sched.pick("anything", loads), 2);

  // Stream count equal: fewest device-memory bytes breaks the tie.
  for (auto& l : loads) l.open_streams = 1;
  loads[0].bytes_in_use = 100;
  loads[1].bytes_in_use = 50;
  loads[2].bytes_in_use = 100;
  loads[3].bytes_in_use = 100;
  EXPECT_EQ(sched.pick("anything", loads), 1);
}

TEST(ClusterScheduler, TiesSpreadDeterministicallyAcrossKeys) {
  ClusterScheduler sched{32};
  for (int d = 0; d < 4; ++d) sched.add_device(d);
  std::vector<DeviceLoad> loads(4);
  for (int d = 0; d < 4; ++d) loads[static_cast<std::size_t>(d)].device = d;

  std::set<int> chosen;
  for (int k = 0; k < 64; ++k) {
    const std::string key = strprintf("camera-%d", k);
    const int d = sched.pick(key, loads);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 4);
    EXPECT_EQ(sched.pick(key, loads), d) << "placement must be stable";
    chosen.insert(d);
  }
  EXPECT_GT(chosen.size(), 1u) << "consistent hashing should spread keys";
}

TEST(ClusterScheduler, DeadDevicesAreNeverEligible) {
  ClusterScheduler sched{16};
  for (int d = 0; d < 3; ++d) sched.add_device(d);
  std::vector<DeviceLoad> loads(3);
  for (int d = 0; d < 3; ++d) loads[static_cast<std::size_t>(d)].device = d;
  loads[1].alive = false;
  for (int k = 0; k < 32; ++k)
    EXPECT_NE(sched.pick(strprintf("key-%d", k), loads), 1);
  for (auto& l : loads) l.alive = false;
  EXPECT_EQ(sched.pick("x", loads), -1);
}

TEST(DeviceFleet, SpreadsStreamsAndMatchesSoloPipelines) {
  constexpr int kStreams = 4, kFrames = 6;
  DeviceFleet<double> fleet{fleet_config(2)};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);

  // Least-loaded placement must balance a tie-heavy admission sequence.
  int on0 = 0, on1 = 0;
  for (int s = 0; s < kStreams; ++s)
    (fleet.stream_device(s) == 0 ? on0 : on1)++;
  EXPECT_EQ(on0, 2);
  EXPECT_EQ(on1, 2);

  for (int t = 0; t < kFrames; ++t)
    for (int s = 0; s < kStreams; ++s)
      ASSERT_TRUE(fleet.submit(s, scene_for(100 + s).frame(t)));
  fleet.drain();

  for (int s = 0; s < kStreams; ++s) {
    const std::vector<FrameU8> expected = solo_masks(100 + s, kFrames);
    const std::vector<FrameU8> served = fleet.take_masks(s);
    ASSERT_EQ(served.size(), expected.size()) << "stream " << s;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(served[i], expected[i]) << "stream " << s << " frame " << i;
  }
  EXPECT_EQ(fleet.masks_delivered(),
            static_cast<std::uint64_t>(kStreams * kFrames));
  EXPECT_EQ(fleet.frames_dropped(), 0u);
  EXPECT_EQ(fleet.migration_stats(), MigrationStats{});
}

TEST(DeviceFleet, MigrationFidelityBitIdenticalMasks) {
  // THE acceptance criterion: fail the hosting device mid-sequence; the
  // stream must fail over and the full mask sequence must be bit-identical
  // to an uninterrupted run — the MOGM v2 snapshot carries the exact model.
  constexpr int kFrames = 8, kCut = 4;
  DeviceFleet<double> fleet{fleet_config(2)};
  const int id = fleet.open_stream(gpu_config());
  const int home = fleet.stream_device(id);

  for (int t = 0; t < kCut; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(9).frame(t)));
  fleet.drain();

  fleet.fail_device(home);
  EXPECT_FALSE(fleet.device_alive(home));
  EXPECT_EQ(fleet.alive_devices(), 1);
  EXPECT_NE(fleet.stream_device(id), home);

  for (int t = kCut; t < kFrames; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(9).frame(t)));
  fleet.drain();

  const std::vector<FrameU8> expected = solo_masks(9, kFrames);
  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "frame " << i;

  const MigrationStats& m = fleet.migration_stats();
  EXPECT_EQ(m.attempted, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.checkpoint_rejected, 0u);
  EXPECT_EQ(m.models_reset, 0u);
  EXPECT_EQ(fleet.frames_dropped(), 0u);
  EXPECT_EQ(fleet.stream_info(id).migrations, 1u);
  EXPECT_EQ(fleet.stream_info(id).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(DeviceFleet, DeviceLossMovesQueuedFramesWithZeroLoss) {
  // Frames still waiting in the victim device's queues must migrate with
  // their streams — device loss drops zero admitted frames, and order is
  // preserved so the masks stay bit-identical.
  constexpr int kStreams = 4, kFrames = 6;
  DeviceFleet<double> fleet{fleet_config(2)};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);
  for (int t = 0; t < kFrames; ++t)
    for (int s = 0; s < kStreams; ++s)
      ASSERT_TRUE(fleet.submit(s, scene_for(200 + s).frame(t)));

  fleet.fail_device(0);  // every frame for device 0's streams still queued
  const MigrationStats& m = fleet.migration_stats();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.frames_requeued, static_cast<std::uint64_t>(2 * kFrames));
  EXPECT_EQ(m.frames_dropped_in_transit, 0u);

  fleet.drain();
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(fleet.stream_device(s), 1) << "stream " << s;
    const std::vector<FrameU8> expected = solo_masks(200 + s, kFrames);
    const std::vector<FrameU8> served = fleet.take_masks(s);
    ASSERT_EQ(served.size(), expected.size()) << "stream " << s;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(served[i], expected[i]) << "stream " << s << " frame " << i;
  }
  EXPECT_EQ(fleet.frames_dropped(), 0u);
  EXPECT_EQ(fleet.masks_delivered(),
            static_cast<std::uint64_t>(kStreams * kFrames));
}

TEST(DeviceFleet, RepeatedLaunchFailuresTriggerAutomaticFailover) {
  // A device-scoped injector makes device 0 a sick fault domain: its stream
  // degrades, the supervisor charges the strike, declares the device lost,
  // and migrates the stream back to full GPU service elsewhere.
  FleetConfig cfg = fleet_config(2);
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;

  fault::FaultConfig storm;
  storm.launch_fault_prob = 1.0;

  DeviceFleet<double> fleet{cfg};
  fleet.set_device_injector(0, std::make_shared<fault::FaultInjector>(storm));
  const int a = fleet.open_stream(gpu_config());
  const int b = fleet.open_stream(gpu_config());
  const int victim = fleet.stream_device(a) == 0 ? a : b;
  const int healthy = victim == a ? b : a;
  ASSERT_EQ(fleet.stream_device(victim), 0);
  ASSERT_EQ(fleet.stream_device(healthy), 1);

  constexpr int kFrames = 4;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(victim, scene_for(31).frame(t)));
    ASSERT_TRUE(fleet.submit(healthy, scene_for(32).frame(t)));
  }
  fleet.drain();

  EXPECT_FALSE(fleet.device_alive(0));
  EXPECT_EQ(fleet.stream_device(victim), 1);
  EXPECT_GE(fleet.migration_stats().completed, 1u);
  EXPECT_EQ(fleet.stream_info(victim).migrations, 1u);
  // Back on the GPU tier on the healthy device (no injector there).
  EXPECT_EQ(fleet.stream_info(victim).tier, fault::ExecutionTier::kGpuDirect);
  // Zero admitted frames lost: every frame produced a mask (salvaged masks
  // count — delivery, not freshness, is the failover contract).
  EXPECT_EQ(fleet.stream_info(victim).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.stream_info(healthy).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.frames_dropped(), 0u);

  // The healthy stream never left its device and kept bit-exact service.
  const std::vector<FrameU8> expected = solo_masks(32, kFrames);
  const std::vector<FrameU8> served = fleet.take_masks(healthy);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "frame " << i;
}

TEST(DeviceFleet, SamplerCaptureDuringFailoverStaysBitIdentical) {
  // A profile capture running across a device failure must neither disturb
  // the failover (masks stay bit-identical) nor crash when the victim's
  // threads disappear mid-capture.
  FleetConfig cfg = fleet_config(2);
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;

  fault::FaultConfig storm;
  storm.launch_fault_prob = 1.0;

  DeviceFleet<double> fleet{cfg};
  fleet.set_device_injector(0, std::make_shared<fault::FaultInjector>(storm));
  const int a = fleet.open_stream(gpu_config());
  const int b = fleet.open_stream(gpu_config());
  const int victim = fleet.stream_device(a) == 0 ? a : b;
  const int healthy = victim == a ? b : a;

  ASSERT_TRUE(obs::Sampler::global().start(2000));

  constexpr int kFrames = 4;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(victim, scene_for(61).frame(t)));
    ASSERT_TRUE(fleet.submit(healthy, scene_for(62).frame(t)));
  }
  fleet.drain();

  obs::Sampler::global().stop();
  const obs::FlameProfile profile = obs::Sampler::global().take();
  EXPECT_GT(profile.ticks, 0u);

  // The failover completed under the sampler...
  EXPECT_FALSE(fleet.device_alive(0));
  EXPECT_EQ(fleet.stream_device(victim), 1);
  EXPECT_EQ(fleet.frames_dropped(), 0u);
  // ...and service stayed bit-identical on the healthy stream.
  const std::vector<FrameU8> expected = solo_masks(62, kFrames);
  const std::vector<FrameU8> served = fleet.take_masks(healthy);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "frame " << i;
}

TEST(DeviceFleet, CorruptSnapshotIsRejectedTypedAndRetried) {
  // Bit rot on the migration hot path: the first snapshot decode fails the
  // CRC (typed ModelIoError, counted), the protocol re-reads the model and
  // completes — still bit-identical, never silently wrong.
  constexpr int kFrames = 8, kCut = 4;
  DeviceFleet<double> fleet{fleet_config(2)};
  const int id = fleet.open_stream(gpu_config());
  const int home = fleet.stream_device(id);

  auto corrupted_once = std::make_shared<bool>(false);
  fleet.set_snapshot_corruptor([corrupted_once](std::vector<std::uint8_t>& p) {
    if (*corrupted_once) return;
    *corrupted_once = true;
    p[p.size() / 2] ^= 0x40;  // flip one payload bit -> CRC mismatch
  });

  for (int t = 0; t < kCut; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(77).frame(t)));
  fleet.drain();
  fleet.fail_device(home);
  for (int t = kCut; t < kFrames; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(77).frame(t)));
  fleet.drain();

  const MigrationStats& m = fleet.migration_stats();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.checkpoint_rejected, 1u);
  EXPECT_EQ(m.snapshot_retries, 1u);
  EXPECT_EQ(m.models_reset, 0u);

  const std::vector<FrameU8> expected = solo_masks(77, kFrames);
  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "frame " << i;
}

TEST(DeviceFleet, CapacityExhaustedFallsBackToCpuLadderInPlace) {
  // Every other device is full: migration is refused (counted) and the
  // stream rides its per-stream degradation ladder where it is — masks keep
  // flowing from the CPU tier; the fleet reports itself unhealthy.
  FleetConfig cfg = fleet_config(2);
  cfg.serve.max_streams = 1;
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;

  fault::FaultConfig storm;
  storm.launch_fault_prob = 1.0;

  DeviceFleet<double> fleet{cfg};
  fleet.set_device_injector(0, std::make_shared<fault::FaultInjector>(storm));
  const int a = fleet.open_stream(gpu_config());
  const int b = fleet.open_stream(gpu_config());
  const int victim = fleet.stream_device(a) == 0 ? a : b;

  constexpr int kFrames = 4;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(a, scene_for(41).frame(t)));
    ASSERT_TRUE(fleet.submit(b, scene_for(42).frame(t)));
  }
  fleet.drain();

  EXPECT_FALSE(fleet.device_alive(0));
  EXPECT_GE(fleet.migration_stats().capacity_exhausted, 1u);
  EXPECT_EQ(fleet.migration_stats().completed, 0u);
  EXPECT_EQ(fleet.stream_device(victim), 0) << "nowhere to go: stays put";
  EXPECT_EQ(fleet.stream_info(victim).tier, fault::ExecutionTier::kCpuSerial);
  EXPECT_EQ(fleet.stream_info(victim).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.frames_dropped(), 0u);

  std::string detail;
  EXPECT_FALSE(fleet.healthz(detail)) << detail;
  EXPECT_NE(detail.find("LOST"), std::string::npos);
}

TEST(DeviceFleet, MetricsHealthzStatuszReflectFleetState) {
  DeviceFleet<double> fleet{fleet_config(2)};
  const int id = fleet.open_stream(gpu_config());
  // The second stream lands on the other device as that plane's stream 0,
  // so only fleet ids tell the two streams apart.
  const int other = fleet.open_stream(gpu_config());
  ASSERT_NE(fleet.stream_device(id), fleet.stream_device(other));
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(fleet.submit(id, scene_for(5).frame(t)));
    ASSERT_TRUE(fleet.submit(other, scene_for(6).frame(t)));
  }
  fleet.drain();

  std::string detail;
  EXPECT_TRUE(fleet.healthz(detail)) << detail;
  EXPECT_NE(detail.find("device 0: alive"), std::string::npos);
  EXPECT_NE(detail.find(strprintf("stream %d: tier=", other)),
            std::string::npos)
      << detail;

  const int home = fleet.stream_device(id);
  // Two frames still queued on the lost device move with the stream.
  for (int t = 4; t < 6; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(5).frame(t)));
  fleet.fail_device(home);
  fleet.drain();

  // Migrated and healthy again: the failover is invisible to /healthz but
  // fully visible in /metrics and /statusz.
  detail.clear();
  EXPECT_TRUE(fleet.healthz(detail)) << detail;
  EXPECT_NE(detail.find("LOST"), std::string::npos);
  for (const int s : {id, other})
    EXPECT_NE(detail.find(strprintf("stream %d: tier=gpu-direct", s)),
              std::string::npos)
        << detail;

  const std::string metrics = fleet.metrics_text();
  EXPECT_EQ(obs::validate_exposition(metrics), "") << metrics;
  // Per-stream families are keyed by fleet id and span both incarnations of
  // the migrated stream (4 masks on the lost device, 2 on the survivor); a
  // requeued frame counts as submitted once.
  ASSERT_EQ(fleet.stream_info(id).masks_delivered, 6u);
  for (const int s : {id, other})
    EXPECT_NE(metrics.find(strprintf(
                  "mog_serve_masks_delivered_total{stream=\"%d\"} %llu\n", s,
                  static_cast<unsigned long long>(
                      fleet.stream_info(s).masks_delivered))),
              std::string::npos)
        << metrics;
  EXPECT_NE(metrics.find(strprintf(
                "mog_serve_frames_submitted_total{stream=\"%d\"} 6\n", id)),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE mog_fleet_devices gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("mog_fleet_devices{state=\"lost\"} 1"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("mog_fleet_migrations_total{event=\"completed\"} 1"),
      std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mog_fleet_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("mog_fleet_masks_delivered_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("mog_fleet_engine_busy_seconds"),
            std::string::npos);

  const std::string status = fleet.statusz();
  EXPECT_NE(status.find("== fleet =="), std::string::npos);
  EXPECT_NE(status.find("migrations: 1 attempted, 1 completed"),
            std::string::npos);
  EXPECT_NE(status.find(strprintf("stream %d [gpu-direct] on device %d, 1 "
                                  "migration(s): 6 in / 6 masks",
                                  id, fleet.stream_device(id))),
            std::string::npos)
      << status;
  EXPECT_NE(status.find(strprintf("stream %d [gpu-direct] on device %d, 0 "
                                  "migration(s)",
                                  other, fleet.stream_device(other))),
            std::string::npos)
      << status;
}

TEST(DeviceFleet, ConcurrentSubmitWithBackgroundSupervisorAndFailover) {
  // Live mode: member pump threads + fleet supervisor running, capture
  // threads submitting, one device failed mid-flight. Nothing may be lost.
  constexpr int kStreams = 4, kFrames = 8;
  FleetConfig cfg = fleet_config(2);
  // Deep enough for a stream's own frames plus a migrated backlog, so no
  // submission is ever refused (a refusal would count as a drop).
  cfg.serve.queue_depth = 2 * kFrames;
  DeviceFleet<double> fleet{cfg};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);

  fleet.start();
  // An operator thread reads the migration counters while fail_device() and
  // the supervisor write them.
  std::atomic<bool> polling{true};
  std::uint64_t completed_seen = 0;
  std::thread poller([&] {
    while (polling.load()) {
      completed_seen =
          std::max(completed_seen, fleet.migration_stats().completed);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (int s = 0; s < kStreams; ++s)
    producers.emplace_back([&fleet, s] {
      for (int t = 0; t < kFrames; ++t)
        while (!fleet.submit(s, scene_for(300 + s).frame(t)))
          std::this_thread::yield();
    });
  fleet.fail_device(0);
  for (std::thread& p : producers) p.join();
  polling.store(false);
  poller.join();
  EXPECT_LE(completed_seen, fleet.migration_stats().completed);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.masks_delivered() <
             static_cast<std::uint64_t>(kStreams * kFrames) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  fleet.stop();
  fleet.drain();

  EXPECT_EQ(fleet.masks_delivered(),
            static_cast<std::uint64_t>(kStreams * kFrames));
  EXPECT_EQ(fleet.frames_dropped(), 0u);
  EXPECT_FALSE(fleet.device_alive(0));
  for (int s = 0; s < kStreams; ++s)
    EXPECT_EQ(fleet.stream_device(s), 1) << "stream " << s;
}

TEST(DeviceFleet, ChaosSeedReplaysDeterministically) {
  // The CI chaos matrix exports MOG_CHAOS_SEED; whatever the seed, two runs
  // of the same seeded storm must behave identically and deliver every
  // admitted frame (salvaged or fresh).
  std::uint64_t seed = 1337;
  if (const char* env = std::getenv("MOG_CHAOS_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  const auto run = [seed](std::vector<std::vector<FrameU8>>& masks) {
    FleetConfig cfg = fleet_config(2);
    cfg.serve.resilience.retry.max_attempts = 2;
    cfg.serve.resilience.degrade_after_failures = 1;
    fault::FaultConfig storm;
    storm.seed = seed;
    storm.launch_fault_prob = 0.4;
    storm.upload_fault_prob = 0.2;
    storm.download_fault_prob = 0.2;

    DeviceFleet<double> fleet{cfg};
    fleet.set_device_injector(0,
                              std::make_shared<fault::FaultInjector>(storm));
    constexpr int kStreams = 3, kFrames = 6;
    for (int s = 0; s < kStreams; ++s)
      EXPECT_EQ(fleet.open_stream(gpu_config()), s);
    for (int t = 0; t < kFrames; ++t)
      for (int s = 0; s < kStreams; ++s)
        EXPECT_TRUE(fleet.submit(s, scene_for(500 + s).frame(t)));
    fleet.drain();

    for (int s = 0; s < kStreams; ++s) {
      // Delivery conservation: every admitted frame yields a mask even
      // under the storm (salvage counts).
      EXPECT_EQ(fleet.stream_info(s).masks_delivered,
                static_cast<std::uint64_t>(kFrames))
          << "stream " << s << " seed " << seed;
      masks.push_back(fleet.take_masks(s));
    }
    EXPECT_EQ(fleet.frames_dropped(), 0u);
    return fleet.migration_stats();
  };

  std::vector<std::vector<FrameU8>> masks1, masks2;
  const MigrationStats m1 = run(masks1);
  const MigrationStats m2 = run(masks2);
  EXPECT_EQ(m1, m2) << "seeded chaos must replay bit-identically";
  ASSERT_EQ(masks1.size(), masks2.size());
  for (std::size_t s = 0; s < masks1.size(); ++s) {
    ASSERT_EQ(masks1[s].size(), masks2[s].size()) << "stream " << s;
    for (std::size_t i = 0; i < masks1[s].size(); ++i)
      EXPECT_EQ(masks1[s][i], masks2[s][i])
          << "stream " << s << " frame " << i;
  }
}

TEST(DeviceFleet, AdmissionFailsOnlyWhenEveryAliveDeviceIsFull) {
  FleetConfig cfg = fleet_config(2);
  cfg.serve.max_streams = 1;
  DeviceFleet<double> fleet{cfg};
  EXPECT_EQ(fleet.open_stream(gpu_config()), 0);
  EXPECT_EQ(fleet.open_stream(gpu_config()), 1);  // spills to device 2
  EXPECT_NE(fleet.stream_device(0), fleet.stream_device(1));
  EXPECT_THROW(fleet.open_stream(gpu_config()), serve::AdmissionError);
  // Closing frees the slot; the replacement lands on the freed device.
  fleet.close_stream(0);
  const int replacement = fleet.open_stream(gpu_config());
  EXPECT_EQ(fleet.stream_device(replacement), fleet.stream_device(0));
}

TEST(DeviceFleet, TiledStreamsMigrateAfterGroupFlush) {
  // A tiled stream mid-group flushes its partial group on the victim device
  // (masks delivered early, never lost), then resumes tiled on the target.
  constexpr int kFrames = 6;  // group of 4: one boundary + 2 buffered
  DeviceFleet<double> fleet{fleet_config(2)};
  const int id = fleet.open_stream(gpu_config(true));
  const int home = fleet.stream_device(id);
  for (int t = 0; t < kFrames; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(61).frame(t)));
  fleet.drain();
  ASSERT_EQ(fleet.stream_info(id).masks_delivered, 4u);

  fleet.fail_device(home);
  EXPECT_EQ(fleet.migration_stats().completed, 1u);
  // The flush delivered the 2 buffered masks before the model moved.
  EXPECT_EQ(fleet.stream_info(id).masks_delivered, 6u);
  EXPECT_EQ(fleet.stream_info(id).tier, fault::ExecutionTier::kTiledGpu);

  // Keep serving tiled on the new device.
  for (int t = 0; t < 4; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(61).frame(kFrames + t)));
  fleet.drain();
  EXPECT_EQ(fleet.stream_info(id).masks_delivered, 10u);
  EXPECT_EQ(fleet.frames_dropped(), 0u);
}

}  // namespace
}  // namespace mog
