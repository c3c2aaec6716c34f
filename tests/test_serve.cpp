// Tests for a device node's serving: bounded-queue backpressure,
// round-robin fairness, admission control, per-stream mask parity with solo
// pipelines, modeled device-time sharing, and the degradations a pump round
// reports. Each test drives a one-device DeviceFleet, the only code that can
// build or drive a node; producers racing live pumps: test_cluster.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/cluster/frame_queue.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/telemetry/log.hpp"
#include "mog/telemetry/telemetry.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using cluster::AdmissionError;
using cluster::DeviceFleet;
using cluster::DropPolicy;
using cluster::FleetConfig;
using cluster::QueueStats;
using cluster::ServeConfig;
using cluster::DeviceNode;

constexpr int kW = 48, kH = 36;

SyntheticScene scene_for(std::uint64_t seed) {
  SceneConfig c;
  c.width = kW;
  c.height = kH;
  c.seed = seed;
  return SyntheticScene{c};
}

DeviceFleet<double>::GpuConfig gpu_config(bool tiled = false,
                                          int executor_threads = 0) {
  DeviceFleet<double>::GpuConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.level = kernels::OptLevel::kF;
  cfg.executor_threads = executor_threads;
  if (tiled) {
    cfg.tiled = true;
    cfg.tiled_config.frame_group = 4;
    cfg.tiled_config.tile_pixels = 64;
  }
  return cfg;
}

/// A fleet of one device: its node is the node under test.
FleetConfig one_device() {
  FleetConfig cfg;
  cfg.devices = 1;
  return cfg;
}

TEST(StreamServer, PlaneBelongsToTheFleet) {
  // Checked at compile time: nothing outside DeviceFleet can build a device
  // node, and the fleet hands out only a read-only view of one.
  static_assert(!std::is_constructible_v<DeviceNode<double>,
                                         const DeviceFleet<double>&, int>);
  static_assert(
      std::is_same_v<decltype(std::declval<DeviceFleet<double>&>()
                                  .device_server(0)),
                     const DeviceNode<double>&>);
}

TEST(StreamServer, EightStreamMasksMatchSoloPipelines) {
  // The acceptance criterion of the serving layer: multiplexing shares
  // modeled device *time*, never model *state* — every stream's masks must
  // be bit-identical to running that stream alone, at any executor thread
  // count.
  constexpr int kStreams = 8, kFrames = 6;
  for (const int threads : {1, 8}) {
    FleetConfig cfg = one_device();
    cfg.serve.queue_depth = kFrames;
    DeviceFleet<double> fleet{cfg};
    for (int s = 0; s < kStreams; ++s)
      ASSERT_EQ(fleet.open_stream(gpu_config(false, threads)), s);
    for (int t = 0; t < kFrames; ++t)
      for (int s = 0; s < kStreams; ++s)
        ASSERT_TRUE(fleet.submit(s, scene_for(100 + s).frame(t)));
    fleet.drain();

    for (int s = 0; s < kStreams; ++s) {
      GpuMogPipeline<double>::Config solo_cfg = gpu_config(false, threads);
      GpuMogPipeline<double> solo{solo_cfg};
      const std::vector<FrameU8> served = fleet.take_masks(s);
      ASSERT_EQ(served.size(), static_cast<std::size_t>(kFrames))
          << "stream " << s;
      FrameU8 fg;
      for (int t = 0; t < kFrames; ++t) {
        ASSERT_TRUE(solo.process(scene_for(100 + s).frame(t), fg));
        EXPECT_EQ(served[static_cast<std::size_t>(t)], fg)
            << "stream " << s << " frame " << t << " threads " << threads;
      }
      EXPECT_EQ(fleet.stream_info(s).masks_delivered,
                static_cast<std::uint64_t>(kFrames));
    }
    EXPECT_EQ(fleet.masks_delivered(),
              static_cast<std::uint64_t>(kStreams * kFrames));
    EXPECT_EQ(fleet.frames_dropped(), 0u);
  }
}

TEST(StreamServer, TiledStreamsDeliverGroupsAndCloseFlushesPartials) {
  constexpr int kFrames = 6;  // group of 4: one full group + 2 flushed
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = kFrames;
  DeviceFleet<double> fleet{cfg};
  const int id = fleet.open_stream(gpu_config(true));
  for (int t = 0; t < kFrames; ++t)
    ASSERT_TRUE(fleet.submit(id, scene_for(7).frame(t)));
  fleet.drain();
  EXPECT_EQ(fleet.stream_info(id).masks_delivered, 4u);

  fleet.close_stream(id);  // flushes the partial group of 2
  EXPECT_EQ(fleet.stream_info(id).masks_delivered, 6u);
  EXPECT_EQ(fleet.device_server(0).open_streams(), 0);
  EXPECT_EQ(fleet.device_server(0).device_bytes_in_use(), 0u);

  // Bit-identical to the solo tiled pipeline, including the flush tail.
  GpuMogPipeline<double> solo{gpu_config(true)};
  std::vector<FrameU8> expected;
  FrameU8 fg;
  for (int t = 0; t < kFrames; ++t)
    if (solo.process(scene_for(7).frame(t), fg))
      for (const FrameU8& m : solo.last_group_masks()) expected.push_back(m);
  std::vector<FrameU8> rest;
  solo.flush(rest);
  for (auto& m : rest) expected.push_back(std::move(m));

  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "mask " << i;
}

TEST(StreamServer, RoundRobinPumpIsFair) {
  // With every queue loaded, no stream may get two frames of service before
  // another ready stream gets one: after each round the scheduled counts
  // spread by at most 1.
  constexpr int kStreams = 3, kFrames = 5;
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = kFrames;
  DeviceFleet<double> fleet{cfg};
  for (int s = 0; s < kStreams; ++s) fleet.open_stream(gpu_config());
  for (int t = 0; t < kFrames; ++t)
    for (int s = 0; s < kStreams; ++s)
      ASSERT_TRUE(fleet.submit(s, scene_for(s).frame(t)));

  telemetry::RingBufferSink log;
  telemetry::default_logger().add_sink(&log);
  while (fleet.pump() > 0) {
    std::uint64_t lo = ~0ull, hi = 0;
    for (int s = 0; s < kStreams; ++s) {
      const std::uint64_t n = fleet.stream_info(s).serve.frames_scheduled;
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_LE(hi - lo, 1u);
  }
  telemetry::default_logger().remove_sink(&log);
  for (int s = 0; s < kStreams; ++s)
    EXPECT_EQ(fleet.stream_info(s).masks_delivered,
              static_cast<std::uint64_t>(kFrames));
  // Healthy untiled streams start and stay on the direct GPU tier: the node
  // must not report a degradation they never had.
  for (const telemetry::LogRecord& r : log.snapshot())
    EXPECT_NE(r.message, "stream degraded") << telemetry::format_jsonl(r);
}

TEST(StreamServer, DropNewestRefusesAtFullQueue) {
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = 2;
  cfg.serve.drop_policy = DropPolicy::kDropNewest;
  DeviceFleet<double> fleet{cfg};
  const int id = fleet.open_stream(gpu_config());
  const SyntheticScene scene = scene_for(1);
  EXPECT_TRUE(fleet.submit(id, scene.frame(0)));
  EXPECT_TRUE(fleet.submit(id, scene.frame(1)));
  EXPECT_FALSE(fleet.submit(id, scene.frame(2)));  // explicit backpressure
  EXPECT_FALSE(fleet.submit(id, scene.frame(3)));

  const QueueStats q = fleet.stream_info(id).serve.queue;
  EXPECT_EQ(q.submitted, 4u);
  EXPECT_EQ(q.accepted, 2u);
  EXPECT_EQ(q.dropped, 2u);
  EXPECT_EQ(q.submitted, q.accepted + q.dropped);  // conservation
  EXPECT_EQ(q.high_water, 2u);

  fleet.drain();
  // The two *oldest* frames survived: masks match solo frames 0..1.
  GpuMogPipeline<double> solo{gpu_config()};
  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), 2u);
  FrameU8 fg;
  for (int t = 0; t < 2; ++t) {
    solo.process(scene.frame(t), fg);
    EXPECT_EQ(served[static_cast<std::size_t>(t)], fg);
  }
}

TEST(StreamServer, DropOldestEvictsStaleFrames) {
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = 2;
  cfg.serve.drop_policy = DropPolicy::kDropOldest;
  DeviceFleet<double> fleet{cfg};
  const int id = fleet.open_stream(gpu_config());
  const SyntheticScene scene = scene_for(1);
  for (int t = 0; t < 4; ++t)
    EXPECT_TRUE(fleet.submit(id, scene.frame(t)));  // always admitted
  fleet.drain();

  const QueueStats q = fleet.stream_info(id).serve.queue;
  EXPECT_EQ(q.submitted, 4u);
  EXPECT_EQ(q.accepted, 4u);
  EXPECT_EQ(q.dropped, 2u);
  EXPECT_EQ(q.popped, 2u);
  EXPECT_EQ(q.accepted, q.popped + q.dropped);  // conservation, queue empty

  // The two *newest* frames survived: the model saw frames 2..3.
  GpuMogPipeline<double> solo{gpu_config()};
  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), 2u);
  FrameU8 fg;
  for (int t = 2; t < 4; ++t) {
    solo.process(scene.frame(t), fg);
    EXPECT_EQ(served[static_cast<std::size_t>(t - 2)], fg);
  }
}

// Hammer one BoundedFrameQueue from several producer threads while a consumer
// drains it, under each drop policy. However the races interleave, the
// QueueStats conservation laws must hold exactly — no frame may be double
// counted or vanish unaccounted.
TEST(BoundedFrameQueue, ConcurrentProducersPreserveStatsConservation) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  constexpr std::size_t kDepth = 8;

  for (const DropPolicy policy :
       {DropPolicy::kDropNewest, DropPolicy::kDropOldest}) {
    SCOPED_TRACE(cluster::to_string(policy));
    cluster::BoundedFrameQueue queue{kDepth, policy};

    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> popped{0};
    std::atomic<int> producers_left{kProducers};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const FrameU8 frame(4, 4, static_cast<std::uint8_t>(p));
          if (!queue.push(frame, 1e-3 * i)) refused.fetch_add(1);
        }
        producers_left.fetch_sub(1);
      });
    }
    std::thread consumer([&] {
      cluster::QueuedFrame out;
      while (producers_left.load() > 0 || !queue.empty()) {
        if (queue.pop(out))
          popped.fetch_add(1);
        else
          std::this_thread::yield();
      }
    });
    for (std::thread& t : producers) t.join();
    consumer.join();

    const QueueStats q = queue.stats();
    EXPECT_EQ(q.submitted,
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_LE(q.high_water, kDepth);
    EXPECT_EQ(q.popped, popped.load());
    if (policy == DropPolicy::kDropNewest) {
      // Tail drop: push() returning false is the only loss path.
      EXPECT_EQ(q.dropped, refused.load());
      EXPECT_EQ(q.submitted, q.accepted + q.dropped);
      EXPECT_EQ(q.accepted, q.popped + queue.size());
    } else {
      // Head drop: every push admitted; evictions are the only loss path.
      EXPECT_EQ(refused.load(), 0u);
      EXPECT_EQ(q.accepted, q.submitted);
      EXPECT_EQ(q.accepted, q.popped + q.dropped + queue.size());
    }
    // The consumer only exits once producers stopped and the queue read
    // empty; anything still queued would be a conservation bug.
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(StreamServer, AdmissionControlEnforcesStreamCap) {
  FleetConfig cfg = one_device();
  cfg.serve.max_streams = 2;
  DeviceFleet<double> fleet{cfg};
  fleet.open_stream(gpu_config());
  fleet.open_stream(gpu_config());
  EXPECT_THROW(fleet.open_stream(gpu_config()), AdmissionError);
  // Closing a stream frees its slot.
  fleet.close_stream(0);
  EXPECT_NO_THROW(fleet.open_stream(gpu_config()));
}

TEST(StreamServer, AdmissionControlEnforcesMemoryBudget) {
  FleetConfig cfg = one_device();
  DeviceFleet<double> probe{cfg};
  probe.open_stream(gpu_config());
  const std::size_t per_stream = probe.device_server(0).device_bytes_in_use();
  ASSERT_GT(per_stream, 0u);

  // Budget for two streams; the third must be refused with a useful message.
  cfg.serve.device_memory_budget_bytes = 2 * per_stream + per_stream / 2;
  DeviceFleet<double> fleet{cfg};
  fleet.open_stream(gpu_config());
  fleet.open_stream(gpu_config());
  try {
    fleet.open_stream(gpu_config());
    FAIL() << "admission control accepted a stream over the memory budget";
  } catch (const AdmissionError& e) {
    EXPECT_NE(std::string{e.what()}.find("budget"), std::string::npos);
  }
  EXPECT_EQ(fleet.device_server(0).device_bytes_in_use(), 2 * per_stream);
  // A refused stream leaks nothing; closing one admits the next.
  fleet.close_stream(1);
  EXPECT_NO_THROW(fleet.open_stream(gpu_config()));
}

TEST(StreamServer, SingleStreamMakespanTracksOverlappedModel) {
  // Cross-validation with the Fig. 5(b) closed form: one stream, frames
  // arriving at t = 0, the serving scheduler's makespan must agree with the
  // solo pipeline's overlapped model. Small slack only, because the serving
  // timeline prices each round at the counters averaged so far while
  // modeled_seconds() uses the final average.
  constexpr int kFrames = 8;
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = kFrames;
  cfg.serve.collect_masks = false;
  DeviceFleet<double> fleet{cfg};
  const int id = fleet.open_stream(gpu_config());
  const SyntheticScene scene = scene_for(3);
  for (int t = 0; t < kFrames; ++t)
    ASSERT_TRUE(fleet.submit(id, scene.frame(t)));
  fleet.drain();

  GpuMogPipeline<double> solo{gpu_config()};
  FrameU8 fg;
  for (int t = 0; t < kFrames; ++t) solo.process(scene.frame(t), fg);
  const double modeled = solo.modeled_seconds(kFrames);
  EXPECT_NEAR(fleet.makespan_seconds(), modeled, 0.05 * modeled);

  const telemetry::Rollup lat = fleet.latency_rollup(id);
  EXPECT_EQ(lat.count, static_cast<std::size_t>(kFrames));
  EXPECT_GT(lat.p50, 0.0);
  EXPECT_LE(lat.p50, lat.p99);
  EXPECT_LE(lat.p99, fleet.makespan_seconds() + 1e-12);
}

TEST(StreamServer, ModeledTimesAreIdenticalAcrossExecutorThreads) {
  // executor_threads is a wall-clock knob only: the modeled makespan and
  // every latency must be bit-identical at 1 and 8 workers.
  auto run = [](int threads) {
    FleetConfig cfg = one_device();
    cfg.serve.queue_depth = 8;
    DeviceFleet<double> fleet{cfg};
    for (int s = 0; s < 2; ++s) fleet.open_stream(gpu_config(false, threads));
    for (int t = 0; t < 5; ++t)
      for (int s = 0; s < 2; ++s)
        fleet.submit(s, scene_for(40 + s).frame(t));
    fleet.drain();
    std::vector<double> out{fleet.makespan_seconds()};
    for (int s = 0; s < 2; ++s) {
      const telemetry::Rollup r = fleet.latency_rollup(s);
      out.push_back(r.p50);
      out.push_back(r.p99);
      out.push_back(r.total);
    }
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(StreamServer, SharedDeviceStretchesLatencyButNotCorrectness) {
  // Two streams through one device take longer than one stream alone — the
  // whole point of modeling the shared copy engine — while aggregate
  // throughput accounting stays conserved.
  auto makespan_for = [](int streams) {
    FleetConfig cfg = one_device();
    cfg.serve.queue_depth = 6;
    cfg.serve.collect_masks = false;
    DeviceFleet<double> fleet{cfg};
    for (int s = 0; s < streams; ++s) fleet.open_stream(gpu_config());
    for (int t = 0; t < 6; ++t)
      for (int s = 0; s < streams; ++s)
        fleet.submit(s, scene_for(60 + s).frame(t));
    fleet.drain();
    return fleet.makespan_seconds();
  };
  const double one = makespan_for(1);
  const double four = makespan_for(4);
  EXPECT_GT(four, one * 1.5);  // contention must show up
  EXPECT_LT(four, one * 8.0);  // but overlap must still help
}

TEST(StreamServer, FeedsGlobalTelemetrySinks) {
  telemetry::TraceRecorder rec;
  telemetry::CounterRegistry reg;
  telemetry::set_tracer(&rec);
  telemetry::set_counters(&reg);
  {
    FleetConfig cfg = one_device();
    cfg.serve.queue_depth = 4;
    DeviceFleet<double> fleet{cfg};
    for (int s = 0; s < 2; ++s) fleet.open_stream(gpu_config());
    for (int t = 0; t < 3; ++t)
      for (int s = 0; s < 2; ++s) fleet.submit(s, scene_for(9).frame(t));
    fleet.drain();

    // The registry is a kernel-launch sink; the per-stream samples are the
    // one latency record.
    EXPECT_GT(reg.launches(), 0u);
    EXPECT_EQ(fleet.aggregate_latency_rollup().count, fleet.masks_delivered());
    bool serve_track_seen = false;
    for (const telemetry::TraceEvent& ev : rec.events())
      serve_track_seen |=
          ev.tid >= telemetry::TraceRecorder::kServeTrackBase;
    EXPECT_TRUE(serve_track_seen);
  }
  telemetry::set_tracer(nullptr);
  telemetry::set_counters(nullptr);
}

TEST(StreamServer, DegradedStreamKeepsServingOffTheSharedDevice) {
  // Hammer one stream with launch faults until it degrades to the CPU tier;
  // it must keep delivering masks while the healthy stream is unaffected.
  FleetConfig cfg = one_device();
  cfg.serve.queue_depth = 16;
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;
  DeviceFleet<double> fleet{cfg};
  auto injector = std::make_shared<fault::FaultInjector>([] {
    fault::FaultConfig fc;
    fc.launch_fault_prob = 1.0;
    return fc;
  }());
  const int sick = fleet.open_stream(gpu_config(), injector);
  const int healthy = fleet.open_stream(gpu_config());
  for (int t = 0; t < 8; ++t) {
    fleet.submit(sick, scene_for(1).frame(t));
    fleet.submit(healthy, scene_for(2).frame(t));
  }
  // Each step down the ladder logs one "stream degraded" line. The faults
  // come from the stream's own injector, so the device takes no strike and
  // stays up: the sick stream rides its own ladder in place.
  telemetry::RingBufferSink log;
  telemetry::default_logger().add_sink(&log);
  fleet.drain();
  telemetry::default_logger().remove_sink(&log);
  int degraded = 0;
  for (const telemetry::LogRecord& r : log.snapshot())
    degraded += r.message == "stream degraded" ? 1 : 0;
  EXPECT_EQ(degraded, 1);  // direct GPU -> CPU is one step
  const std::string no_strike = "mog_fleet_device_strikes{device=\"0\"} 0\n";
  EXPECT_NE(fleet.metrics_text().find(no_strike), std::string::npos);

  EXPECT_EQ(fleet.stream_info(sick).tier, fault::ExecutionTier::kCpuSerial);
  EXPECT_EQ(fleet.stream_info(sick).masks_delivered, 8u);
  EXPECT_EQ(fleet.stream_info(healthy).masks_delivered, 8u);

  // The healthy stream's masks are still bit-identical to its solo run.
  GpuMogPipeline<double> solo{gpu_config()};
  const std::vector<FrameU8> served = fleet.take_masks(healthy);
  ASSERT_EQ(served.size(), 8u);
  FrameU8 fg;
  for (int t = 0; t < 8; ++t) {
    solo.process(scene_for(2).frame(t), fg);
    EXPECT_EQ(served[static_cast<std::size_t>(t)], fg);
  }
}

TEST(StreamServer, ValidatesApiMisuse) {
  FleetConfig bad = one_device();
  bad.serve.queue_depth = 0;
  EXPECT_THROW(DeviceFleet<double>{bad}, Error);

  DeviceFleet<double> fleet{one_device()};
  const SyntheticScene scene = scene_for(5);
  EXPECT_THROW(fleet.submit(0, scene.frame(0)), Error);  // unknown id
  const int id = fleet.open_stream(gpu_config());
  fleet.close_stream(id);
  EXPECT_THROW(fleet.submit(id, scene.frame(0)), Error);  // closed
  EXPECT_THROW(fleet.close_stream(id), Error);            // double close
}

}  // namespace
}  // namespace mog
