// Kernel launch framework: grid/block decomposition, per-warp execution,
// shared-memory arena, and counter aggregation.
//
// A kernel is a callable `void(BlockCtx&)`. Inside, `blk.parallel(fn)` runs
// `fn(WarpCtx&)` once per warp of the block; consecutive parallel() sections
// are separated by an implicit __syncthreads() (the simulator executes warps
// of a section sequentially, so any cross-warp shared-memory communication
// must straddle a section boundary — the same discipline real CUDA code
// needs around barriers).
//
// Blocks of one launch run concurrently across host worker threads
// (DeviceSpec::executor_threads), mirroring the independence real CUDA
// blocks have across SMs: a kernel may not communicate between blocks
// within a launch. Kernel callables are invoked concurrently from multiple
// threads and must only write device memory owned by their own block's
// threads — exactly the discipline the modeled hardware enforces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mog/gpusim/block_executor.hpp"
#include "mog/gpusim/coalescer.hpp"
#include "mog/gpusim/device_memory.hpp"
#include "mog/gpusim/device_spec.hpp"
#include "mog/gpusim/fault_hooks.hpp"
#include "mog/gpusim/stats.hpp"
#include "mog/gpusim/warp.hpp"
// Header-only profiler tag primitives (one relaxed load per site when no
// sampler runs); gpusim does not link mog_obs — see sampler.hpp.
#include "mog/obs/sampler.hpp"

namespace mog::gpusim {

struct LaunchConfig {
  std::int64_t num_threads = 0;  ///< grid size in threads (≥ 1)
  int threads_per_block = 128;
};

class BlockCtx {
 public:
  BlockCtx(std::int64_t block_id, int threads_in_block, int threads_per_block,
           KernelStats& stats, Coalescer& coalescer,
           std::vector<std::byte>& shared_arena);

  std::int64_t block_id() const { return block_id_; }
  int threads_per_block() const { return threads_per_block_; }
  int threads_in_block() const { return threads_in_block_; }
  int num_warps() const {
    return (threads_in_block_ + kWarpSize - 1) / kWarpSize;
  }

  /// Allocate a block-scope shared array (8-byte aligned). Counts toward the
  /// block's shared-memory footprint for the occupancy calculation. The
  /// arena is pre-sized to the SM's physical capacity so earlier SharedSpan
  /// pointers never dangle; over-allocation is a kernel bug and throws.
  template <typename T>
  SharedSpan<T> shared_alloc(std::size_t count) {
    const std::size_t offset = (shared_used_ + 7) / 8 * 8;
    const std::size_t bytes = count * sizeof(T);
    MOG_CHECK(offset + bytes <= shared_arena_.size(),
              "kernel exceeds per-SM shared memory capacity");
    shared_used_ = offset + bytes;
    if (shared_used_ > stats_.shared_bytes_per_block)
      stats_.shared_bytes_per_block = shared_used_;
    return SharedSpan<T>{reinterpret_cast<T*>(shared_arena_.data() + offset),
                         static_cast<std::uint32_t>(offset), count};
  }

  /// Run `fn(WarpCtx&)` for every warp of the block. Implicit barrier
  /// between consecutive parallel() calls.
  template <typename Fn>
  void parallel(Fn&& fn) {
    const obs::ProfSpan prof_span{obs::ProfTag::kWarpDispatch};
    const int warps = num_warps();
    for (int w = 0; w < warps; ++w) {
      const int lanes = std::min<int>(kWarpSize,
                                      threads_in_block_ - w * kWarpSize);
      ExecEnv env{&stats_, &coalescer_, 0xffffffffu};
      coalescer_.begin_warp();
      // RAII: a kernel that throws mid-warp (MOG_CHECK, fault injection)
      // must not leave this thread's exec_env() dangling for the next
      // launch's bookkeeping to scribble through.
      ExecEnvScope env_scope{env};
      {
        WarpCtx warp{env, block_id_ * threads_per_block_ +
                              static_cast<std::int64_t>(w) * kWarpSize,
                     lanes};
        fn(warp);
      }
      // Per-op issue/instruction charges and register high-water marks
      // accumulate in thread-locals (branch-free hot path, see
      // detail::charge / detail::track_alloc); fold them in here, once per
      // warp, while the scope is still installed.
      {
        const obs::ProfSpan flush_span{obs::ProfTag::kChargeFlush};
        detail::flush_charges(stats_);
        ++stats_.num_warps;
        if (detail::tl_regs.peak_words > peak_reg_words_)
          peak_reg_words_ = detail::tl_regs.peak_words;
      }
    }
  }

  int peak_reg_words() const { return peak_reg_words_; }

 private:
  std::int64_t block_id_;
  int threads_in_block_;
  int threads_per_block_;
  KernelStats& stats_;
  Coalescer& coalescer_;
  std::vector<std::byte>& shared_arena_;
  std::size_t shared_used_ = 0;
  int peak_reg_words_ = 0;
};

/// The simulated device: spec + global memory + launch entry point.
class Device {
 public:
  explicit Device(DeviceSpec spec = {});

  const DeviceSpec& spec() const { return spec_; }
  DeviceMemory& memory() { return memory_; }
  const DeviceMemory& memory() const { return memory_; }

  /// Install a fault-injection hook (non-owning; nullptr restores fault-free
  /// operation). The hook is consulted by launch() and the hooked transfer
  /// members below — the plain copy_to_device/copy_from_device free
  /// functions stay fault-free, so model initialization and recovery
  /// (checkpoint upload, rollback) never fail.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Install a counter export hook (non-owning; nullptr detaches). The sink
  /// observes the finalized KernelStats of every successful launch — this is
  /// how the telemetry layer aggregates per-launch counters without the
  /// pipeline having to forward them by hand.
  void set_stats_sink(StatsSink* sink) { stats_sink_ = sink; }
  StatsSink* stats_sink() const { return stats_sink_; }

  /// Hooked host->device DMA transfer: may throw TransferError, and the
  /// installed hook may corrupt the delivered payload in place.
  template <typename T>
  std::size_t upload(DevSpan<T> dst, const T* src, std::size_t count) {
    if (fault_hook_)
      fault_hook_->before_transfer(TransferDir::kHostToDevice,
                                   count * sizeof(T));
    const std::size_t bytes = copy_to_device(dst, src, count);
    if (fault_hook_)
      fault_hook_->after_transfer(TransferDir::kHostToDevice, dst.data, bytes);
    return bytes;
  }

  /// Hooked device->host DMA transfer; mirror of upload().
  template <typename T>
  std::size_t download(T* dst, DevSpan<T> src, std::size_t count) {
    if (fault_hook_)
      fault_hook_->before_transfer(TransferDir::kDeviceToHost,
                                   count * sizeof(T));
    const std::size_t bytes = copy_from_device(dst, src, count);
    if (fault_hook_)
      fault_hook_->after_transfer(TransferDir::kDeviceToHost, dst, bytes);
    return bytes;
  }

  /// Execute a kernel over the whole grid, returning its profiler counters.
  /// Functional side effects land in device memory synchronously. With a
  /// fault hook installed the launch may throw LaunchError *before* any
  /// block runs (device state is untouched, mirroring a CUDA launch
  /// failure); a MOG_CHECK failure inside the kernel propagates from
  /// whichever host worker hit it.
  ///
  /// Blocks execute across spec().executor_threads host workers (resolved by
  /// resolved_executor_threads; 1 = serial). Results are bit-identical at
  /// any thread count: blocks are independent, each worker accumulates into
  /// private state (KernelStats, Coalescer, shared-memory arena), the
  /// per-worker stats merge in fixed worker order with commutative integer
  /// reductions, and DRAM open-row accounting is replayed in block order
  /// (see run_blocks). Telemetry delivery (the StatsSink) stays on the
  /// launching thread.
  template <typename KernelFn>
  KernelStats launch(const LaunchConfig& config, KernelFn&& kernel) {
    validate(config);
    if (fault_hook_) fault_hook_->before_launch();
    return run_blocks(config, [&kernel](BlockCtx& blk) { kernel(blk); });
  }

  /// Worker count this device's launches resolve to.
  int executor_threads() const {
    return resolved_executor_threads(spec_.executor_threads);
  }

 private:
  void validate(const LaunchConfig& config) const;

  /// Type-erased launch body: per-worker state setup, block dispatch
  /// (serial or via the persistent BlockExecutor), deterministic reduction.
  KernelStats run_blocks(const LaunchConfig& config,
                         const std::function<void(BlockCtx&)>& block_fn);

  std::vector<std::byte>& worker_arena(int worker);

  /// Per-worker accumulation state, persistent across launches so the
  /// steady-state frame loop performs no per-launch allocation: stats and
  /// caches are reset at launch entry instead of rebuilt, and each worker's
  /// flat page-trace arena keeps its high-water capacity. Defined out of
  /// line (ctor needs timing constants private to kernel_launch.cpp).
  /// Cache-line aligned (a literal 64: gcc warns on
  /// std::hardware_destructive_interference_size in a header) so no two
  /// workers' hot stats, segment caches and trace end pointers share a line.
  struct alignas(64) WorkerState {
    explicit WorkerState(const DeviceSpec& spec);
    KernelStats stats;
    Coalescer coalescer;
    int peak_reg_words = 0;
    std::vector<std::uint64_t> page_trace;  ///< parallel launches only
  };
  /// Block id → the slice of its worker's page_trace it produced, so the
  /// block-order DRAM replay can walk traces without per-block vectors.
  struct TraceSpan {
    int worker = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  DeviceSpec spec_;
  DeviceMemory memory_;
  /// One shared-memory arena per host worker (index 0 = launching thread);
  /// grown lazily so a serial device never pays for a pool's worth.
  std::vector<std::vector<std::byte>> worker_arenas_;
  std::vector<WorkerState> workers_;
  std::vector<TraceSpan> block_spans_;
  std::unique_ptr<BlockExecutor> executor_;  ///< lazy; created on first
                                             ///< parallel launch
  FaultHook* fault_hook_ = nullptr;
  StatsSink* stats_sink_ = nullptr;
};

}  // namespace mog::gpusim
