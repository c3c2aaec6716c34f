#include "mog/gpusim/kernel_launch.hpp"

#include "mog/common/block_executor.hpp"
#include "mog/gpusim/timing_constants.hpp"

namespace mog::gpusim {

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
    ws.coalescer.reset();  // cold caches + inline row accounting
    ws.peak_reg_words = 0;
    ws.page_trace.clear();
  }

  // DRAM open-row state spans blocks in the serial model. A parallel launch
  // therefore never counts switches inline: each worker records the page id
  // of every DRAM-bound transaction in its flat trace arena, block_spans_
  // remembers which slice each block produced, and the traces replay below
  // in block order through one DramRowLru — reproducing the serial counts
  // exactly regardless of thread count or block-to-worker assignment. A
  // serial launch (pool == 1) skips tracing entirely: its single worker
  // visits blocks in block order with a freshly reset open-row LRU, so
  // inline accounting already sees the transactions in replay order.
  const bool traced = pool > 1;
  if (traced) {
    block_spans_.assign(static_cast<std::size_t>(blocks), TraceSpan{});
    for (int w = 0; w < pool; ++w)
      workers_[static_cast<std::size_t>(w)].coalescer.set_page_trace(
          &workers_[static_cast<std::size_t>(w)].page_trace);
  }

  // Per-block counter deltas are only assembled when a sink asks (heatmap
  // capture); the common path pays one bool. The callbacks run on whichever
  // worker executed the block — StatsSink::on_block_stats documents the
  // concurrency contract.
  const bool block_stats =
      stats_sink_ != nullptr && stats_sink_->wants_block_stats();

  const auto run_one = [&](std::int64_t b, int w) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    const int threads_in_block = static_cast<int>(std::min<std::int64_t>(
        config.threads_per_block,
        config.num_threads - b * config.threads_per_block));
    const std::size_t trace_begin = ws.page_trace.size();
    KernelStats before;
    if (block_stats) before = ws.stats;
    BlockState blk{b, threads_in_block, config.threads_per_block, ws.stats,
                   ws.coalescer, worker_arenas_[static_cast<std::size_t>(w)]};
    block_fn(kernel, blk);
    if (traced)
      block_spans_[static_cast<std::size_t>(b)] =
          TraceSpan{w, trace_begin, ws.page_trace.size()};
    if (blk.peak_reg_words > ws.peak_reg_words)
      ws.peak_reg_words = blk.peak_reg_words;
    if (block_stats) {
      BlockStats record;
      record.block_id = b;
      record.first_thread = b * config.threads_per_block;
      record.threads = threads_in_block;
      record.delta = ws.stats.counters_since(before);
      record.delta.num_blocks = 1;
      stats_sink_->on_block_stats(record);
    }
  };

  BlockExecutor::shared().run(blocks, pool, run_one);

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
  }

  if (traced) {
    const telemetry::ProfSpan replay_span{telemetry::ProfTag::kDramRowReplay};
    DramRowLru rows;
    for (const TraceSpan& span : block_spans_) {
      const auto& trace =
          workers_[static_cast<std::size_t>(span.worker)].page_trace;
      for (std::size_t i = span.begin; i < span.end; ++i)
        if (!rows.access(trace[i])) ++stats.dram_page_switches;
    }
  }

  stats.regs_per_thread = std::min(
      static_cast<int>(peak_reg_words * kRegisterPressureScale + 0.5) +
          kAbiRegisterWords,
      spec_.max_registers_per_thread);
  if (stats_sink_ != nullptr) stats_sink_->on_kernel_launch(stats);
  return stats;
}

}  // namespace mog::gpusim
