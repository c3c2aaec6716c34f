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
// threads — exactly the discipline the modeled hardware enforces. They must
// not launch a kernel themselves: every device shares one host pool that
// runs one launch at a time (see mog/common/block_executor.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "mog/gpusim/coalescer.hpp"
#include "mog/gpusim/device_memory.hpp"
#include "mog/gpusim/device_spec.hpp"
#include "mog/gpusim/fault_hooks.hpp"
#include "mog/gpusim/stats.hpp"
#include "mog/gpusim/warp.hpp"
// Header-only profiler tag primitives (one relaxed load per site when no
// sampler runs); gpusim does not link mog_telemetry — see sampler.hpp.
#include "mog/telemetry/sampler.hpp"

namespace mog::gpusim {

struct LaunchConfig {
  std::int64_t num_threads = 0;  ///< grid size in threads (≥ 1)
  int threads_per_block = 128;
};

/// One block's launch state: its ids and the executing worker's private
/// stats, coalescer and shared-memory arena. Device::run_blocks builds one
/// per block; kernels see it through BlockCtx.
struct BlockState {
  std::int64_t block_id = 0;
  int threads_in_block = 0;
  int threads_per_block = 0;
  KernelStats& stats;
  Coalescer& coalescer;
  std::vector<std::byte>& shared_arena;
  std::size_t shared_used = 0;
  int peak_reg_words = 0;
};

// The kernel-facing block API is part of the interpreter layer each x86-64
// level compiles for itself (see isa_ns.hpp): parallel() runs the level's
// warps and flushes the level's accumulators.
inline namespace MOG_ISA_NS {

class BlockCtx {
 public:
  explicit BlockCtx(BlockState& state) : s_(state) {}

  std::int64_t block_id() const { return s_.block_id; }
  int threads_per_block() const { return s_.threads_per_block; }
  int threads_in_block() const { return s_.threads_in_block; }
  int num_warps() const {
    return (s_.threads_in_block + kWarpSize - 1) / kWarpSize;
  }

  /// Allocate a block-scope shared array (8-byte aligned). Counts toward the
  /// block's shared-memory footprint for the occupancy calculation. The
  /// arena is pre-sized to the SM's physical capacity so earlier SharedSpan
  /// pointers never dangle; over-allocation is a kernel bug and throws.
  template <typename T>
  SharedSpan<T> shared_alloc(std::size_t count) {
    const std::size_t offset = (s_.shared_used + 7) / 8 * 8;
    const std::size_t bytes = count * sizeof(T);
    MOG_CHECK(offset + bytes <= s_.shared_arena.size(),
              "kernel exceeds per-SM shared memory capacity");
    s_.shared_used = offset + bytes;
    if (s_.shared_used > s_.stats.shared_bytes_per_block)
      s_.stats.shared_bytes_per_block = s_.shared_used;
    return SharedSpan<T>{
        reinterpret_cast<T*>(s_.shared_arena.data() + offset),
        static_cast<std::uint32_t>(offset), count};
  }

  /// Run `fn(WarpCtx&)` for every warp of the block. Implicit barrier
  /// between consecutive parallel() calls.
  template <typename Fn>
  void parallel(Fn&& fn) {
    const ProfTagScope prof_span{telemetry::ProfTag::kWarpDispatch};
    const int warps = num_warps();
    for (int w = 0; w < warps; ++w) {
      const int lanes =
          std::min<int>(kWarpSize, s_.threads_in_block - w * kWarpSize);
      ExecEnv env{&s_.stats, &s_.coalescer, kFullMask};
      s_.coalescer.begin_warp();
      // RAII: a kernel that throws mid-warp (MOG_CHECK, fault injection)
      // must not leave this thread's exec_env() dangling for the next
      // launch's bookkeeping to scribble through.
      ExecEnvScope env_scope{env};
      {
        WarpCtx warp{env, s_.block_id * s_.threads_per_block +
                              static_cast<std::int64_t>(w) * kWarpSize,
                     lanes};
        fn(warp);
      }
      // Per-op issue/instruction charges and register high-water marks
      // accumulate in thread-locals (branch-free hot path, see
      // detail::charge / detail::track_alloc); fold them in here, once per
      // warp, while the scope is still installed.
      {
        const ProfTagScope flush_span{telemetry::ProfTag::kChargeFlush};
        detail::flush_charges(s_.stats);
        ++s_.stats.num_warps;
        if (detail::tl_regs.peak_words > s_.peak_reg_words)
          s_.peak_reg_words = detail::tl_regs.peak_words;
      }
    }
  }

 private:
  /// telemetry::ProfSpan for the interpreter's own tags. ProfSpan is one
  /// baseline class, and a member the compiler leaves out of line (as it
  /// does on unwind paths) would be a weak copy any level could end up
  /// running; this copy is the level's own. It also never claims a profile
  /// slot, which would compile the claim path's thread_local init function
  /// into the level: it tags only a thread that already holds one — every
  /// executor worker, and a launching thread inside its kernel_launch span.
  class ProfTagScope {
   public:
    explicit ProfTagScope(telemetry::ProfTag tag) {
      if (!telemetry::detail::prof_enabled()) return;
      telemetry::ProfSlot* slot = telemetry::detail::tl_prof_slot;
      if (slot == nullptr) return;
      const std::uint32_t d = slot->depth.load(std::memory_order_relaxed);
      if (d < telemetry::kProfMaxDepth)
        slot->tags[d].store(static_cast<std::uint8_t>(tag),
                            std::memory_order_relaxed);
      else
        slot->truncated.fetch_add(1, std::memory_order_relaxed);
      slot->depth.store(d + 1, std::memory_order_relaxed);
      slot_ = slot;
    }
    ~ProfTagScope() {
      if (slot_ == nullptr) return;
      slot_->depth.store(slot_->depth.load(std::memory_order_relaxed) - 1,
                         std::memory_order_relaxed);
    }

    ProfTagScope(const ProfTagScope&) = delete;
    ProfTagScope& operator=(const ProfTagScope&) = delete;

   private:
    telemetry::ProfSlot* slot_ = nullptr;
  };

  BlockState& s_;
};

}  // namespace MOG_ISA_NS

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
  /// Blocks execute on up to spec().executor_threads threads of the
  /// process-wide BlockExecutor (resolved by resolved_executor_threads;
  /// 1 = serial, on the launching thread), which hands them out as runs of
  /// contiguous blocks; launches on different devices take turns on that
  /// pool. Results are bit-identical at any thread count: blocks are
  /// independent, each worker accumulates into private state (KernelStats,
  /// Coalescer, shared-memory arena), the per-worker stats merge in fixed
  /// worker order with commutative integer reductions, and each run counts
  /// DRAM row switches from its own empty open-row LRU, stitched together
  /// in block order after the runs finish (DramRowLru::follow). Telemetry
  /// delivery (the StatsSink) stays on the launching thread.
  template <typename KernelFn>
  KernelStats launch(const LaunchConfig& config, KernelFn&& kernel) {
    validate(config);
    if (fault_hook_) fault_hook_->before_launch();
    using Fn = std::remove_reference_t<KernelFn>;
    return run_blocks(
        config, &run_block<Fn>,
        const_cast<void*>(static_cast<const void*>(std::addressof(kernel))));
  }

  /// Worker count this device's launches resolve to.
  int executor_threads() const {
    return resolved_executor_threads(spec_.executor_threads);
  }

 private:
  void validate(const LaunchConfig& config) const;

  /// Type-erased launch body: per-worker state setup, block dispatch on the
  /// process-wide BlockExecutor, deterministic reduction. `block_fn(kernel,
  /// state)` runs one block. A plain function pointer rather than a
  /// std::function, whose members would be one baseline copy serving every
  /// x86-64 level's kernels.
  using BlockFn = void (*)(void* kernel, BlockState& state);
  KernelStats run_blocks(const LaunchConfig& config, BlockFn block_fn,
                         void* kernel);

  template <typename KernelFn>
  static void run_block(void* kernel, BlockState& state) {
    BlockCtx blk{state};
    (*static_cast<KernelFn*>(kernel))(blk);
  }

  std::vector<std::byte>& worker_arena(int worker);

  /// Per-worker accumulation state, persistent across launches so the
  /// steady-state frame loop performs no per-launch allocation: stats and
  /// caches are reset at launch entry instead of rebuilt. Defined out of
  /// line (ctor needs timing constants private to kernel_launch.cpp).
  /// Cache-line aligned (a literal 64: gcc warns on
  /// std::hardware_destructive_interference_size in a header) so no two
  /// workers' hot stats, segment caches and open-row LRUs share a line.
  struct alignas(64) WorkerState {
    explicit WorkerState(const DeviceSpec& spec);
    KernelStats stats;
    Coalescer coalescer;
    int peak_reg_words = 0;
  };

  DeviceSpec spec_;
  DeviceMemory memory_;
  /// One shared-memory arena per host worker (index 0 = launching thread);
  /// grown lazily so a serial device never pays for a pool's worth.
  std::vector<std::vector<std::byte>> worker_arenas_;
  std::vector<WorkerState> workers_;
  /// Each block run's open-row LRU, by run index, for the fix-up.
  std::vector<DramRowLru> run_rows_;
  FaultHook* fault_hook_ = nullptr;
  StatsSink* stats_sink_ = nullptr;
};

}  // namespace mog::gpusim
