// Tests for the process-wide block executor: the pool itself (every block
// runs exactly once, exceptions propagate, the pool survives failures), the
// bit-exact determinism guarantee (identical masks, KernelStats, and modeled
// timing at 1, 2, and 8 host threads), the sharing guarantees (host threads
// bounded by the largest request, concurrent callers taking turns without
// changing results), fault-hook ordering, and the exec_env() RAII guard that
// keeps a throwing kernel from leaving a dangling thread-local behind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mog/common/block_executor.hpp"
#include "mog/cpu/parallel_mog.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using gpusim::Addr;
using gpusim::BlockCtx;
using gpusim::Device;
using gpusim::DeviceSpec;
using gpusim::KernelStats;
using gpusim::LaunchConfig;
using gpusim::Vec;
using gpusim::WarpCtx;

constexpr int kW = 64, kH = 48;

/// Every metric visit_metrics exposes, as an ordered name/value list — the
/// determinism tests demand exact equality of the whole set.
std::vector<std::pair<std::string, double>> metric_vector(
    const KernelStats& s) {
  std::vector<std::pair<std::string, double>> v;
  gpusim::visit_metrics(s, [&](const char* name, double value, bool) {
    v.emplace_back(name, value);
  });
  return v;
}

// ---------------------------------------------------------------------------
// BlockExecutor pool mechanics
// ---------------------------------------------------------------------------

TEST(BlockExecutor, RunsEveryBlockExactlyOnceAndPoolIsReusable) {
  BlockExecutor& pool = BlockExecutor::shared();
  constexpr std::int64_t kBlocks = 1000;
  for (int run = 0; run < 3; ++run) {
    std::vector<std::atomic<int>> hits(kBlocks);
    pool.run(kBlocks, 8, [&](std::int64_t block, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, 8);
      hits[static_cast<std::size_t>(block)].fetch_add(
          1, std::memory_order_relaxed);
    });
    for (std::int64_t b = 0; b < kBlocks; ++b)
      ASSERT_EQ(hits[static_cast<std::size_t>(b)].load(), 1)
          << "block " << b << " in run " << run;
  }
}

TEST(BlockExecutor, RethrowsLowestFailingBlockAndStaysUsable) {
  BlockExecutor& pool = BlockExecutor::shared();
  // Blocks are claimed in increasing order, so block 3 — the lowest thrower —
  // is always attempted before any later thrower can short-circuit the run.
  try {
    pool.run(100, 4, [](std::int64_t block, int) {
      if (block % 10 == 3) throw Error{"block " + std::to_string(block)};
    });
    FAIL() << "expected the pool to rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "block 3");
  }
  std::atomic<std::int64_t> done{0};
  pool.run(50, 4, [&](std::int64_t, int) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 50);
}

TEST(BlockExecutor, SingleThreadPoolRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  BlockExecutor::shared().run(8, 1, [&](std::int64_t block, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(block);
  });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

TEST(ExecutorConfig, ExplicitCountWinsOverEnvironment) {
  ASSERT_EQ(setenv("MOG_EXECUTOR_THREADS", "3", 1), 0);
  EXPECT_EQ(gpusim::resolved_executor_threads(0), 3);   // env fills the default
  EXPECT_EQ(gpusim::resolved_executor_threads(2), 2);   // explicit wins
  EXPECT_EQ(gpusim::resolved_executor_threads(999), 64);  // clamped
  ASSERT_EQ(unsetenv("MOG_EXECUTOR_THREADS"), 0);
  EXPECT_GE(gpusim::resolved_executor_threads(0), 1);  // hardware default
  DeviceSpec spec;
  spec.executor_threads = 5;
  EXPECT_EQ(Device{spec}.executor_threads(), 5);
}

// ---------------------------------------------------------------------------
// Bit-exact determinism across thread counts
// ---------------------------------------------------------------------------

/// A deliberately gnarly raw-device workload: a partial final block, partial
/// warps, divergent branches, shared-memory traffic, and strided global
/// stores (multiple DRAM pages). Returns (stats, device buffer contents).
std::pair<KernelStats, std::vector<double>> raw_device_workload(int threads) {
  DeviceSpec spec;
  spec.executor_threads = threads;
  Device dev{spec};
  constexpr std::int64_t kN = 128 * 37 + 48;  // 38 blocks, ragged tail
  auto buf = dev.memory().alloc<double>(kN);
  for (std::int64_t i = 0; i < kN; ++i)
    buf.data[i] = static_cast<double>(i % 101);

  LaunchConfig cfg;
  cfg.num_threads = kN;
  cfg.threads_per_block = 128;
  const KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<double>(128);
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> gid = w.global_ids();
      Vec<double> x = w.load<double>(buf, gid);
      w.shared_store(sh, Vec<Addr>::iota(0), x);
      x = x + w.shared_load(sh, Vec<Addr>::iota(0));
      w.if_then(vlt(Vec<std::int32_t>::iota(0), 11),
                [&] { w.store(buf, gid, x * Vec<double>(3.0)); });
    });
  });
  return {s, std::vector<double>(buf.data, buf.data + kN)};
}

TEST(ExecutorDeterminism, RawDeviceLaunchBitIdenticalAcrossThreadCounts) {
  const auto [s1, out1] = raw_device_workload(1);
  ASSERT_GT(s1.dram_page_switches, 0u);  // the replay path is exercised
  for (const int threads : {2, 8}) {
    const auto [st, outt] = raw_device_workload(threads);
    EXPECT_EQ(metric_vector(s1), metric_vector(st)) << threads << " threads";
    EXPECT_EQ(out1, outt) << threads << " threads";
  }
}

/// Run the full pipeline over a synthetic scene and collect every mask plus
/// the summary metrics the benches report.
struct PipelineRun {
  std::vector<FrameU8> masks;
  std::vector<std::pair<std::string, double>> per_frame_metrics;
  double modeled_seconds = 0;
  double occupancy = 0;
};

PipelineRun run_pipeline(int threads, bool tiled) {
  SceneConfig sc;
  sc.width = kW;
  sc.height = kH;
  const SyntheticScene scene{sc};

  typename GpuMogPipeline<double>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.executor_threads = threads;
  cfg.level = kernels::OptLevel::kF;
  if (tiled) {
    cfg.tiled = true;
    cfg.tiled_config.frame_group = 4;
    cfg.tiled_config.tile_pixels = 64;
  }
  GpuMogPipeline<double> pipe{cfg};

  PipelineRun run;
  FrameU8 fg;
  for (int t = 0; t < 8; ++t) {
    if (pipe.process(scene.frame(t), fg))
      for (const FrameU8& m : pipe.last_group_masks()) run.masks.push_back(m);
  }
  run.per_frame_metrics = metric_vector(pipe.per_frame_stats());
  run.modeled_seconds = pipe.modeled_seconds();
  run.occupancy = pipe.occupancy().achieved;
  return run;
}

TEST(ExecutorDeterminism, PipelineBitIdenticalAcrossThreadCounts) {
  for (const bool tiled : {false, true}) {
    const PipelineRun serial = run_pipeline(1, tiled);
    ASSERT_EQ(serial.masks.size(), 8u);
    for (const int threads : {2, 8}) {
      const PipelineRun par = run_pipeline(threads, tiled);
      const std::string label = (tiled ? "tiled, " : "level F, ") +
                                std::to_string(threads) + " threads";
      ASSERT_EQ(par.masks.size(), serial.masks.size()) << label;
      for (std::size_t i = 0; i < serial.masks.size(); ++i)
        EXPECT_TRUE(par.masks[i] == serial.masks[i])
            << label << ", mask " << i;
      EXPECT_EQ(par.per_frame_metrics, serial.per_frame_metrics) << label;
      EXPECT_EQ(par.modeled_seconds, serial.modeled_seconds) << label;
      EXPECT_EQ(par.occupancy, serial.occupancy) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// One pool for the whole process
// ---------------------------------------------------------------------------

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

TEST(SharedPool, EightPipelinesAddAtMostOnePoolOfWorkers) {
  SceneConfig sc;
  sc.width = kW;
  sc.height = kH;
  const SyntheticScene scene{sc};
  const int before = process_threads();

  std::vector<std::unique_ptr<GpuMogPipeline<double>>> pipes;
  FrameU8 fg;
  for (int i = 0; i < 8; ++i) {
    typename GpuMogPipeline<double>::Config cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.executor_threads = 4;
    pipes.push_back(std::make_unique<GpuMogPipeline<double>>(cfg));
    pipes.back()->process(scene.frame(0), fg);
  }
  // Every device runs its blocks on the one shared pool: 3 workers beside
  // the launching thread, however many devices exist.
  EXPECT_LE(process_threads() - before, 3);
}

/// Masks of a ParallelMog run over the first 8 frames of the test scene.
std::vector<FrameU8> run_parallel_cpu(int threads) {
  SceneConfig sc;
  sc.width = kW;
  sc.height = kH;
  const SyntheticScene scene{sc};
  ParallelMog<double> engine{kW, kH, MogParams{}, threads};
  std::vector<FrameU8> masks(8);
  for (int t = 0; t < 8; ++t)
    engine.apply(scene.frame(t), masks[static_cast<std::size_t>(t)]);
  return masks;
}

TEST(SharedPool, ConcurrentDevicesAndCpuEngineMatchSoloRuns) {
  // Different thread counts, so the jobs that take turns on the pool are
  // of different sizes: some workers sit out a smaller job.
  const PipelineRun solo_a = run_pipeline(8, false);
  const PipelineRun solo_b = run_pipeline(2, true);
  const std::vector<FrameU8> solo_cpu = run_parallel_cpu(3);

  constexpr int kRounds = 3;
  std::vector<PipelineRun> runs_a(kRounds), runs_b(kRounds);
  std::vector<std::vector<FrameU8>> runs_cpu(kRounds);
  std::latch start{3};
  std::thread device_a{[&] {
    start.arrive_and_wait();
    for (PipelineRun& r : runs_a) r = run_pipeline(8, false);
  }};
  std::thread device_b{[&] {
    start.arrive_and_wait();
    for (PipelineRun& r : runs_b) r = run_pipeline(2, true);
  }};
  std::thread cpu{[&] {
    start.arrive_and_wait();
    for (std::vector<FrameU8>& r : runs_cpu) r = run_parallel_cpu(3);
  }};
  device_a.join();
  device_b.join();
  cpu.join();

  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [solo, run] : {std::pair{&solo_a, &runs_a[round]},
                                    std::pair{&solo_b, &runs_b[round]}}) {
      ASSERT_EQ(run->masks.size(), solo->masks.size()) << "round " << round;
      for (std::size_t i = 0; i < solo->masks.size(); ++i)
        EXPECT_TRUE(run->masks[i] == solo->masks[i])
            << "round " << round << ", mask " << i;
      EXPECT_EQ(run->per_frame_metrics, solo->per_frame_metrics)
          << "round " << round;
      EXPECT_EQ(run->modeled_seconds, solo->modeled_seconds);
    }
    EXPECT_EQ(runs_cpu[round], solo_cpu) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Failure paths
// ---------------------------------------------------------------------------

TEST(ExecutorFaults, ExecEnvClearedWhenKernelThrowsMidWarp) {
  DeviceSpec spec;
  spec.executor_threads = 1;
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  EXPECT_THROW(dev.launch(cfg,
                          [&](BlockCtx& blk) {
                            blk.parallel([&](WarpCtx&) {
                              throw Error{"mid-warp fault"};
                            });
                          }),
               Error);
  // Regression: the launch used to leave the thread-local execution
  // environment pointing at a dead stack frame, so the next launch's
  // bookkeeping scribbled through it.
  EXPECT_EQ(gpusim::exec_env(), nullptr);

  auto benign = [&] {
    return dev.launch(cfg, [&](BlockCtx& blk) {
      blk.parallel([&](WarpCtx& w) { (void)w.active_count(); });
    });
  };
  const KernelStats after = benign();
  const KernelStats fresh = Device{spec}.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { (void)w.active_count(); });
  });
  EXPECT_EQ(metric_vector(after), metric_vector(fresh));
}

TEST(ExecutorFaults, MidKernelThrowPropagatesFromWorkerThreads) {
  DeviceSpec spec;
  spec.executor_threads = 8;
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 32 * 128;
  cfg.threads_per_block = 128;
  try {
    dev.launch(cfg, [&](BlockCtx& blk) {
      blk.parallel([&](WarpCtx&) {
        MOG_CHECK(blk.block_id() != 5, "injected block failure");
      });
    });
    FAIL() << "expected the worker's MOG_CHECK to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected block failure"),
              std::string::npos);
  }
  EXPECT_EQ(gpusim::exec_env(), nullptr);
  // The device (and the shared pool) stays usable.
  const KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { (void)w.active_count(); });
  });
  EXPECT_EQ(s.num_blocks, 32u);
  EXPECT_EQ(s.num_warps, 32u * 4u);
}

struct LaunchRefusingHook final : gpusim::FaultHook {
  void before_transfer(gpusim::TransferDir, std::uint64_t) override {}
  void after_transfer(gpusim::TransferDir, void*, std::size_t) override {}
  void before_launch() override { throw gpusim::LaunchError{"refused"}; }
};

TEST(ExecutorFaults, BeforeLaunchHookFiresBeforeAnyBlock) {
  DeviceSpec spec;
  spec.executor_threads = 8;
  Device dev{spec};
  LaunchRefusingHook hook;
  dev.set_fault_hook(&hook);
  std::atomic<int> blocks_run{0};
  LaunchConfig cfg;
  cfg.num_threads = 16 * 128;
  cfg.threads_per_block = 128;
  EXPECT_THROW(dev.launch(cfg,
                          [&](BlockCtx&) {
                            blocks_run.fetch_add(1,
                                                 std::memory_order_relaxed);
                          }),
               gpusim::LaunchError);
  EXPECT_EQ(blocks_run.load(), 0);  // device state untouched, CUDA-style
}

}  // namespace
}  // namespace mog
