#include "mog/gpusim/kernel_launch.hpp"

#include "mog/common/block_executor.hpp"
#include "mog/gpusim/timing_constants.hpp"

namespace mog::gpusim {

namespace {

/// Block runs per executor worker in one launch (see run_blocks).
constexpr std::int64_t kRunsPerWorker = 16;

}  // namespace

Device::Device(DeviceSpec spec) : spec_(std::move(spec)), memory_() {
  worker_arena(0);  // the launching thread's arena always exists
}

Device::WorkerState::WorkerState(const DeviceSpec& spec)
    : coalescer{spec, kEffectiveL1SegmentsPerWarp} {}

void Device::validate(const LaunchConfig& config) const {
  MOG_CHECK(config.num_threads >= 1, "launch needs at least one thread");
  MOG_CHECK(config.threads_per_block >= kWarpSize &&
                config.threads_per_block <= spec_.max_threads_per_block,
            "threads_per_block out of device range");
  MOG_CHECK(config.threads_per_block % kWarpSize == 0,
            "threads_per_block must be a multiple of the warp size");
}

std::vector<std::byte>& Device::worker_arena(int worker) {
  while (worker_arenas_.size() <= static_cast<std::size_t>(worker))
    worker_arenas_.emplace_back(
        static_cast<std::size_t>(spec_.shared_mem_per_sm));
  return worker_arenas_[static_cast<std::size_t>(worker)];
}

KernelStats Device::run_blocks(const LaunchConfig& config, BlockFn block_fn,
                               void* kernel) {
  const telemetry::ProfSpan launch_span{telemetry::ProfTag::kKernelLaunch};
  KernelStats stats;
  stats.threads_per_block = config.threads_per_block;
  const std::int64_t blocks =
      (config.num_threads + config.threads_per_block - 1) /
      config.threads_per_block;
  stats.num_blocks = static_cast<std::uint64_t>(blocks);

  // Per-worker private accumulation state, persistent across launches (see
  // WorkerState in the header). Everything a kernel touches outside device
  // memory is either per-worker (stats, coalescer, arena) or per-block
  // (BlockState), so kernel callables never contend; device memory itself is
  // safe because blocks only write locations owned by their own threads.
  const int pool =
      blocks > 1 ? resolved_executor_threads(spec_.executor_threads) : 1;
  while (workers_.size() < static_cast<std::size_t>(pool)) {
    workers_.emplace_back(spec_);
    worker_arena(static_cast<int>(workers_.size()) - 1);
  }
  for (int w = 0; w < pool; ++w) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.stats = KernelStats{};
    ws.coalescer.reset();  // cold caches, no open DRAM rows
    ws.peak_reg_words = 0;
  }

  // Workers claim runs of contiguous blocks, about 16 per worker: a worker
  // then walks contiguous device memory, as a warp does under the SoA
  // layout, and the last runs still balance the load. Grids of under 32
  // blocks per worker, like the tiled launches, get one-block runs. A
  // one-thread launch is one run on the launching thread: a run boundary
  // restarts the open rows, which only a launch split across workers needs.
  const std::int64_t run_length =
      pool == 1 ? blocks
                : std::max<std::int64_t>(1, blocks / (kRunsPerWorker * pool));
  const std::int64_t runs = (blocks + run_length - 1) / run_length;
  run_rows_.resize(static_cast<std::size_t>(runs));

  // Per-block counter deltas are only assembled when a sink asks (heatmap
  // capture); the common path pays one bool. The callbacks run on whichever
  // worker executed the block — StatsSink::on_block_stats documents the
  // concurrency contract.
  const bool block_stats =
      stats_sink_ != nullptr && stats_sink_->wants_block_stats();

  const auto run_one = [&](std::int64_t run, int w) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    const std::int64_t end = std::min(blocks, (run + 1) * run_length);
    for (std::int64_t b = run * run_length; b < end; ++b) {
      const int threads_in_block = static_cast<int>(std::min<std::int64_t>(
          config.threads_per_block,
          config.num_threads - b * config.threads_per_block));
      KernelStats before;
      if (block_stats) before = ws.stats;
      BlockState blk{b, threads_in_block, config.threads_per_block, ws.stats,
                     ws.coalescer,
                     worker_arenas_[static_cast<std::size_t>(w)]};
      block_fn(kernel, blk);
      if (blk.peak_reg_words > ws.peak_reg_words)
        ws.peak_reg_words = blk.peak_reg_words;
      if (block_stats) {
        BlockStats record;
        record.block_id = b;
        record.first_thread = b * config.threads_per_block;
        record.threads = threads_in_block;
        record.delta = ws.stats.counters_since(before);
        record.delta.num_blocks = 1;
        record.delta.dram_page_switches = 0;  // the launch's, not the block's
        stats_sink_->on_block_stats(record);
      }
    }
    // The run's rows started empty: the worker's coalescer was reset at
    // launch entry or handed its rows over at the end of its previous run.
    run_rows_[static_cast<std::size_t>(run)] = ws.coalescer.take_rows();
  };

  BlockExecutor::shared().run(runs, pool, run_one);

  // Deterministic reduction: fold per-worker stats in worker order. Every
  // merged field is an integer sum or max, so the totals are independent of
  // which worker executed which block.
  int peak_reg_words = 0;
  {
    const telemetry::ProfSpan merge_span{telemetry::ProfTag::kStatsMerge};
    for (int w = 0; w < pool; ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      stats += ws.stats;
      if (ws.peak_reg_words > peak_reg_words)
        peak_reg_words = ws.peak_reg_words;
    }
    // Each run counted its DRAM row switches from an empty open-row LRU.
    // Carried across the runs in block order, the LRU turns back into hits
    // the first misses that rows left open by earlier blocks serve, which
    // gives exactly the count of one LRU over the whole launch.
    DramRowLru rows;
    for (const DramRowLru& run : run_rows_)
      stats.dram_page_switches -= static_cast<std::uint64_t>(rows.follow(run));
  }

  stats.regs_per_thread = std::min(
      static_cast<int>(peak_reg_words * kRegisterPressureScale + 0.5) +
          kAbiRegisterWords,
      spec_.max_registers_per_thread);
  if (stats_sink_ != nullptr) stats_sink_->on_kernel_launch(stats);
  return stats;
}

}  // namespace mog::gpusim
