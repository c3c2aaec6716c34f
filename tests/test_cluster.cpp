// Tests for the multi-device fleet: placement policy, fault domains, live
// stream migration (the acceptance criterion: a stream failing over
// mid-sequence produces bit-identical masks to an uninterrupted run),
// capacity-exhausted degradation, fleet observability and trace rows, the
// live pump threads (one per device, failing over on their own, concurrent
// submission against them), and the shared telemetry sinks under live
// serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/cluster/placement.hpp"
#include "mog/common/strutil.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/ingest/byte_source.hpp"
#include "mog/ingest/decode_worker.hpp"
#include "mog/ingest/mjpeg.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/telemetry/prometheus.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"
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

  // The same loss after the victims have served two frames each: a stream's
  // stats cover its whole life, not only its stay on the device it moved to.
  DeviceFleet<double> served_first{fleet_config(2)};
  for (int s = 0; s < kStreams; ++s) served_first.open_stream(gpu_config());
  for (int t = 0; t < kFrames; ++t)
    for (int s = 0; s < kStreams; ++s)
      ASSERT_TRUE(served_first.submit(s, scene_for(200 + s).frame(t)));
  served_first.pump();
  served_first.pump();
  served_first.fail_device(0);
  served_first.drain();
  for (int s = 0; s < kStreams; ++s) {
    const FleetStreamInfo info = served_first.stream_info(s);
    EXPECT_EQ(info.serve.queue.submitted, static_cast<std::uint64_t>(kFrames))
        << "stream " << s;
    EXPECT_EQ(info.serve.masks_delivered, info.masks_delivered)
        << "stream " << s;
    EXPECT_EQ(served_first.take_masks(s), solo_masks(200 + s, kFrames))
        << "stream " << s;
  }
}

TEST(DeviceFleet, RepeatedLaunchFailuresTriggerAutomaticFailover) {
  // A device-scoped injector makes device 0 a sick fault domain: its stream
  // degrades, the pump round that saw it charges the strike, declares the
  // device lost, and migrates the stream back to full GPU service elsewhere.
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

TEST(DeviceFleet, SickCameraChargesNoDevice) {
  // A stream under its own injector (a sick camera) fails on whichever
  // device hosts it, so its degradations are no evidence against any
  // device: it rides its own ladder to the CPU tier in place, and both
  // devices stay up for everyone else.
  FleetConfig cfg = fleet_config(2);
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;
  DeviceFleet<double> fleet{cfg};

  fault::FaultConfig storm;
  storm.launch_fault_prob = 1.0;
  const int sick = fleet.open_stream(
      gpu_config(), std::make_shared<fault::FaultInjector>(storm));
  const int healthy = fleet.open_stream(gpu_config());

  constexpr int kFrames = 8;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(sick, scene_for(41).frame(t)));
    ASSERT_TRUE(fleet.submit(healthy, scene_for(42).frame(t)));
  }
  fleet.drain();

  EXPECT_TRUE(fleet.device_alive(0));
  EXPECT_TRUE(fleet.device_alive(1));
  EXPECT_EQ(fleet.migration_stats().attempted, 0u);
  EXPECT_EQ(fleet.stream_info(sick).tier, fault::ExecutionTier::kCpuSerial);
  EXPECT_EQ(fleet.stream_info(sick).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.take_masks(sick).size(), static_cast<std::size_t>(kFrames));
  // The camera, not the fleet, is sick: /healthz stays up and still shows
  // the stream's tier.
  std::string detail;
  EXPECT_TRUE(fleet.healthz(detail)) << detail;
  EXPECT_NE(detail.find(strprintf("stream %d: tier=cpu-serial", sick)),
            std::string::npos)
      << detail;

  const std::vector<FrameU8> expected = solo_masks(42, kFrames);
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

  ASSERT_TRUE(telemetry::Sampler::global().start(2000));

  constexpr int kFrames = 4;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(victim, scene_for(61).frame(t)));
    ASSERT_TRUE(fleet.submit(healthy, scene_for(62).frame(t)));
  }
  fleet.drain();

  telemetry::Sampler::global().stop();
  const telemetry::FlameProfile profile = telemetry::Sampler::global().take();
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

/// Installs a counter registry and a trace recorder as the global sinks for
/// one scope (declare it before the fleet, so it outlives the pipelines).
struct ScopedGlobalSinks {
  telemetry::CounterRegistry counters;
  telemetry::TraceRecorder trace;
  ScopedGlobalSinks() {
    telemetry::set_counters(&counters);
    telemetry::set_tracer(&trace);
  }
  ~ScopedGlobalSinks() {
    telemetry::set_counters(nullptr);
    telemetry::set_tracer(nullptr);
  }
};

TEST(DeviceFleet, MetricsHealthzStatuszReflectFleetState) {
  const ScopedGlobalSinks sinks;
  DeviceFleet<double> fleet{fleet_config(2)};
  const int id = fleet.open_stream(gpu_config());
  // The second stream lands on the other device, on that device's lane 0,
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
  EXPECT_EQ(telemetry::validate_exposition(metrics), "") << metrics;
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
  // The installed registry and recorder add their families; no family is
  // declared twice.
  EXPECT_NE(metrics.find("# TYPE mog_kernel_launches_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mog_trace_events gauge"), std::string::npos);
  std::set<std::string> declared;
  std::istringstream lines(metrics);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(declared.insert(family).second) << "twice: " << family;
    }

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

TEST(DeviceFleet, TraceRowsFollowFleetStreamIds) {
  // Each device hosts its first stream on its lane 0, so lane ids would
  // draw both fleet streams on one row. Before and after a migration, every
  // serve window and flow event of a fleet stream sits on the row of its
  // fleet id and carries that id.
  constexpr int kStreams = 2, kFrames = 3;
  const ScopedGlobalSinks sinks;
  DeviceFleet<double> fleet{fleet_config(2)};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);
  ASSERT_NE(fleet.stream_device(0), fleet.stream_device(1));

  // Pre-minted tickets tell which stream a flow event belongs to.
  const auto ticket = [](int s, int t) {
    return static_cast<std::uint64_t>(1000 * (s + 1) + t);
  };
  const auto submit_frames = [&](int from, int to) {
    for (int t = from; t < to; ++t)
      for (int s = 0; s < kStreams; ++s)
        ASSERT_TRUE(fleet.submit(s, scene_for(s).frame(t), 0, ticket(s, t)));
  };
  submit_frames(0, kFrames);
  fleet.drain();
  fleet.fail_device(0);
  submit_frames(kFrames, 2 * kFrames);
  fleet.drain();
  ASSERT_EQ(fleet.migration_stats().completed, 1u);

  const int base = telemetry::TraceRecorder::kServeTrackBase;
  std::map<int, int> windows;  // fleet stream id -> serve windows
  std::map<int, int> flows;    // fleet stream id -> flow events
  for (const telemetry::TraceEvent& e : sinks.trace.events()) {
    if (e.cat == "serve") {
      ASSERT_EQ(e.args.size(), 1u);
      ASSERT_EQ(e.args[0].first, "stream");
      const int s = static_cast<int>(e.args[0].second);
      EXPECT_EQ(e.tid, base + s) << e.name;
      ++windows[s];
    } else if (e.cat == "serve.flow") {
      const int s = static_cast<int>(e.flow_id / 1000) - 1;
      EXPECT_EQ(e.tid, base + s) << "ticket " << e.flow_id;
      ++flows[s];
    }
  }
  for (int s = 0; s < kStreams; ++s) {
    // An upload, a kernel and a download window per frame, on each device
    // the stream lived on.
    EXPECT_EQ(windows[s], 3 * 2 * kFrames) << "stream " << s;
    EXPECT_GT(flows[s], 0) << "stream " << s;
  }
}

/// Each stream's modeled latency rollup (count, min, p50, p90, p99, max,
/// total), then the fleet's makespan.
std::vector<double> modeled_clock(const DeviceFleet<double>& fleet,
                                  int streams) {
  std::vector<double> out;
  for (int s = 0; s < streams; ++s) {
    const telemetry::Rollup r = fleet.latency_rollup(s);
    out.insert(out.end(), {static_cast<double>(r.count), r.min, r.p50, r.p90,
                           r.p99, r.max, r.total});
  }
  out.push_back(fleet.makespan_seconds());
  return out;
}

TEST(DeviceFleet, ModeledLatencyIgnoresPumpCadence) {
  // A mask's modeled latency is the paper's clock: how often the host pumps
  // must not move it. Frames are stamped at 30 fps, the second stream's 1 ms
  // after the first's. After each frame time's submissions the caller pumps
  // 1, 2 or 3 times, or pumps only in the final drain().
  constexpr int kFrames = 4;
  constexpr double kPeriod = 1.0 / 30;
  for (const int streams : {1, 2}) {
    const auto run = [streams](int pumps) {
      DeviceFleet<double> fleet{fleet_config(1)};
      for (int s = 0; s < streams; ++s) fleet.open_stream(gpu_config());
      for (int t = 0; t < kFrames; ++t) {
        for (int s = 0; s < streams; ++s)
          EXPECT_TRUE(fleet.submit(s, scene_for(700 + s).frame(t),
                                   t * kPeriod + s * 1e-3));
        for (int k = 0; k < pumps; ++k) fleet.pump();
      }
      fleet.drain();
      return modeled_clock(fleet, streams);
    };
    const std::vector<double> drained = run(0);
    for (int s = 0; s < streams; ++s) {
      EXPECT_EQ(drained[static_cast<std::size_t>(7 * s)], kFrames);
      // No mask waits for the next frame's arrival (max latency).
      EXPECT_LT(drained[static_cast<std::size_t>(7 * s + 5)], kPeriod);
    }
    for (const int pumps : {1, 2, 3})
      EXPECT_EQ(run(pumps), drained)
          << streams << " stream(s), " << pumps << " pump(s) per frame time";
  }
}

TEST(DeviceFleet, LivePumpLatencyMatchesDrainedBurst) {
  // start() mode: the device's pump thread runs rounds whenever it is woken
  // while a burst of frames stamped at 30 fps arrives. The modeled clock
  // must read exactly what a synchronous drain of the same frames reads.
  constexpr int kFrames = 8;
  const auto run = [](bool live) {
    DeviceFleet<double> fleet{fleet_config(1)};
    fleet.open_stream(gpu_config());
    if (live) fleet.start();
    for (int t = 0; t < kFrames; ++t)
      EXPECT_TRUE(fleet.submit(0, scene_for(710).frame(t), t / 30.0));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (live &&
           fleet.masks_delivered() < static_cast<std::uint64_t>(kFrames) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fleet.stop();
    fleet.drain();
    return modeled_clock(fleet, 1);
  };
  const std::vector<double> drained = run(false);
  EXPECT_EQ(drained[0], kFrames);
  EXPECT_EQ(run(true), drained);
}

TEST(DeviceFleet, ConcurrentSubmitWithLivePumpsAndFailover) {
  // Live mode: the fleet's pump threads running, capture threads
  // submitting, one device failed mid-flight. Nothing may be lost.
  constexpr int kStreams = 4, kFrames = 8;
  FleetConfig cfg = fleet_config(2);
  // Deep enough for a stream's own frames plus a migrated backlog, so no
  // submission is ever refused (a refusal would count as a drop).
  cfg.serve.queue_depth = 2 * kFrames;
  DeviceFleet<double> fleet{cfg};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);

  fleet.start();
  // An operator thread reads the migration counters while fail_device()
  // writes them.
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

/// Threads of this process: the entries of /proc/self/task.
int process_threads() {
  int n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator{"/proc/self/task"}) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(DeviceFleet, StartRunsOnePumpThreadPerDevice) {
  // The fleet owns every serving thread: start() adds one pump per device
  // and nothing else, and stop() takes them all down again.
  DeviceFleet<double> fleet{fleet_config(3)};
  const int before = process_threads();
  fleet.start();
  EXPECT_EQ(process_threads() - before, 3);
  fleet.stop();
  // A joined thread can stay listed for a moment after join() returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (process_threads() != before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(process_threads(), before);
}

TEST(DeviceFleet, LivePumpChargesStrikeAndFailsOver) {
  // Live mode with no pump() or drain() from the test: the round on the
  // sick device that degrades its stream charges the strike from that pump
  // thread, the device is declared lost, and the survivor's pump, woken by
  // the requeue, serves the migrated stream.
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

  constexpr int kFrames = 6;
  constexpr auto kTotal = static_cast<std::uint64_t>(2 * kFrames);
  fleet.start();
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(fleet.submit(victim, scene_for(81).frame(t)));
    ASSERT_TRUE(fleet.submit(healthy, scene_for(82).frame(t)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((fleet.device_alive(0) || fleet.masks_delivered() < kTotal) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  fleet.stop();

  EXPECT_FALSE(fleet.device_alive(0));
  EXPECT_EQ(fleet.stream_device(victim), 1);
  EXPECT_EQ(fleet.stream_info(victim).migrations, 1u);
  EXPECT_EQ(fleet.stream_info(victim).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.stream_info(healthy).masks_delivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fleet.frames_dropped(), 0u);
}

TEST(DeviceFleet, ConcurrentProducersWithBackgroundPump) {
  // Thread-safety coverage (runs under TSan in CI): four capture threads
  // submit while a one-device fleet's pump thread pumps.
  constexpr int kStreams = 4, kFrames = 12;
  FleetConfig cfg = fleet_config(1);
  cfg.serve.queue_depth = kFrames;  // deep enough that nothing drops
  cfg.serve.collect_masks = false;
  DeviceFleet<double> fleet{cfg};
  for (int s = 0; s < kStreams; ++s)
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);

  fleet.start();
  std::vector<std::thread> producers;
  for (int s = 0; s < kStreams; ++s)
    producers.emplace_back([&fleet, s] {
      const SyntheticScene scene = scene_for(static_cast<std::uint64_t>(s));
      for (int t = 0; t < kFrames; ++t)
        fleet.submit(s, scene.frame(t), static_cast<double>(t) * 1e-3);
    });
  for (std::thread& p : producers) p.join();
  fleet.stop();
  fleet.drain();  // finish anything the pump had not reached

  std::uint64_t accepted = 0;
  for (int s = 0; s < kStreams; ++s)
    accepted += fleet.stream_info(s).serve.queue.accepted;
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kStreams * kFrames));
  EXPECT_EQ(fleet.masks_delivered(), accepted);
  EXPECT_GT(fleet.aggregate_latency_rollup().count, 0u);
}

TEST(DeviceFleet, SharedSinksAreThreadSafeUnderLiveServing) {
  // Live mode with one registry and one recorder installed: decode workers
  // record spans, device pumps record launches and modeled ops, and an
  // operator thread scrapes /metrics, all at once. A backlog queued before
  // start() keeps both pumps busy together from the first frame, so a sink
  // without its lock races on every run, not by scheduling luck. TSan
  // checks the locking; the counts check that no record was lost.
  constexpr int kStreams = 2, kBacklog = 4, kDecoded = 6;
  constexpr auto kTotal =
      static_cast<std::uint64_t>(kStreams * (kBacklog + kDecoded));
  const ScopedGlobalSinks sinks;
  FleetConfig cfg = fleet_config(2);
  cfg.serve.queue_depth = kBacklog + kDecoded;  // no frame is ever refused
  DeviceFleet<double> fleet{cfg};
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_EQ(fleet.open_stream(gpu_config()), s);
    for (int t = 0; t < kBacklog; ++t)
      ASSERT_TRUE(fleet.submit(s, scene_for(400 + s).frame(t)));
  }
  ASSERT_NE(fleet.stream_device(0), fleet.stream_device(1));

  fleet.start();
  std::atomic<bool> scraping{true};
  std::thread scraper([&] {
    while (scraping.load())
      EXPECT_EQ(telemetry::validate_exposition(fleet.metrics_text()), "");
  });
  std::vector<std::unique_ptr<ingest::DecodeWorker>> workers;
  for (int s = 0; s < kStreams; ++s) {
    std::vector<FrameU8> frames;
    for (int t = 0; t < kDecoded; ++t)
      frames.push_back(scene_for(500 + s).frame(t));
    auto reader = std::make_unique<ingest::MjpegReader>(
        std::make_unique<ingest::MemorySource>(ingest::encode_mjpeg(frames)));
    ingest::DecodeWorkerConfig wc;
    wc.stream_id = s;
    workers.push_back(std::make_unique<ingest::DecodeWorker>(
        std::move(reader),
        [&fleet, s](FrameU8 f, double arrival, std::uint64_t ticket) {
          return fleet.submit(s, std::move(f), arrival, ticket);
        },
        wc));
    workers.back()->start();
  }
  std::uint64_t decoded = 0;
  for (const auto& w : workers) {
    w->join();
    EXPECT_FALSE(w->failed()) << w->error();
    decoded += w->stats().frames_decoded;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.masks_delivered() < kTotal &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  scraping.store(false);
  scraper.join();
  fleet.stop();
  fleet.drain();

  EXPECT_EQ(decoded, static_cast<std::uint64_t>(kStreams * kDecoded));
  EXPECT_EQ(fleet.masks_delivered(), kTotal);
  // An untiled level-F frame without postproc is one kernel launch.
  EXPECT_EQ(sinks.counters.launches(), kTotal);
  std::uint64_t decode_spans = 0;
  for (const telemetry::TraceEvent& e : sinks.trace.events())
    if (e.name == "decode" && e.cat == "ingest") ++decode_spans;
  EXPECT_EQ(decode_spans, decoded);
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
  EXPECT_THROW(fleet.open_stream(gpu_config()), cluster::AdmissionError);
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
