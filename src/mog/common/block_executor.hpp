// The process's one host worker pool. It runs the blocks of every simulated
// kernel launch (gpusim::Device::run_blocks) and the pixel bands of the
// parallel CPU engine (ParallelMog::apply).
//
// CUDA blocks are independent by construction — no shared memory spans
// blocks and __syncthreads() never crosses a block boundary — and MoG
// pixels are independent too, so both jobs are embarrassingly parallel on
// the host. Workers persist across jobs (no per-job thread creation), the
// calling thread participates as worker 0, and a condition-variable
// generation bump dispatches each job.
//
// One pool serves every device and engine in the process, so host threads
// are bounded by the largest thread count any caller asks for, not by how
// many devices or streams exist. The pool starts with no workers and grows
// to the largest request. It runs one job at a time: a second caller waits
// its turn. A job must not start another job on the pool — it would wait on
// itself.
//
// Blocks are claimed dynamically off a shared atomic cursor. That keeps the
// slowest-block tail short and is safe for determinism because callers give
// every worker private accumulation state and fold it with commutative,
// order-independent reductions (integer sums / maxes plus a block-order
// DRAM row fix-up — see Device::run_blocks, whose "blocks" here are runs of
// contiguous simulated blocks); which worker ran which block can never show
// up in the results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mog {

/// Resolve a thread-count request: `requested` <= 0 means one thread per
/// hardware thread; the result is clamped to [1, 64].
int resolve_pool_threads(int requested);

class BlockExecutor {
 public:
  /// `fn(block_id, worker)` with worker in [0, max_threads).
  using BlockFn = std::function<void(std::int64_t, int)>;

  /// The process-wide pool.
  static BlockExecutor& shared();

  BlockExecutor(const BlockExecutor&) = delete;
  BlockExecutor& operator=(const BlockExecutor&) = delete;

  /// Run `fn` once for every block in [0, num_blocks) on at most
  /// `max_threads` threads, in [1, 64]: the calling thread is worker 0 and
  /// pool worker w is the thread named "exec<w>". Returns when all claimed
  /// blocks have finished. A job capped at one thread (or holding one
  /// block) runs its blocks in order on the calling thread without touching
  /// the pool; a larger job first waits until the pool is free, then spawns
  /// whatever workers it lacks. If any invocation threw, the remaining
  /// unclaimed blocks are skipped and, after every worker quiesces, the
  /// exception of the lowest-numbered failing block is rethrown on the
  /// calling thread. The pool stays usable afterwards.
  void run(std::int64_t num_blocks, int max_threads, const BlockFn& fn);

 private:
  BlockExecutor() = default;

  void worker_loop(int worker, std::uint64_t seen);
  void drain(int worker);

  std::mutex job_mu_;  ///< held by the caller whose job owns the pool
  std::vector<std::thread> workers_;  ///< worker w at index w - 1; job_mu_

  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  std::uint64_t generation_ = 0;
  int threads_ = 0;  ///< threads of the current job, the caller included
  int pending_ = 0;  ///< pool workers of the current job still draining

  // Per-job dispatch state; written by run() before the generation bump and
  // read by workers only after observing the new generation under mu_.
  const BlockFn* fn_ = nullptr;
  std::int64_t num_blocks_ = 0;
  std::atomic<std::int64_t> next_block_{0};

  // First failure (by block id) wins; failed_ short-circuits further claims.
  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  std::int64_t first_error_block_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace mog
