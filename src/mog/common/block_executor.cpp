#include "mog/common/block_executor.hpp"

#include <algorithm>
#include <utility>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/telemetry/sampler.hpp"

namespace mog {
namespace {

constexpr int kMaxThreads = 64;  ///< largest thread count a job may ask for

}  // namespace

int resolve_pool_threads(int requested) {
  const int n = requested > 0
                    ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, kMaxThreads);
}

BlockExecutor& BlockExecutor::shared() {
  // Never destroyed: a thread still launching while the process exits (a
  // serving pump when main calls std::exit) must not reach a dead pool, and
  // idle workers blocked on cv_start_ need no join.
  static BlockExecutor* const pool = new BlockExecutor;
  return *pool;
}

void BlockExecutor::worker_loop(int worker, std::uint64_t seen) {
  telemetry::prof_set_thread_name(strprintf("exec%d", worker).c_str());
  while (true) {
    {
      const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
      std::unique_lock lk{mu_};
      cv_start_.wait(lk, [&] { return generation_ != seen; });
      seen = generation_;
      if (worker >= threads_) continue;  // a smaller job: not needed
    }
    drain(worker);
    {
      std::lock_guard lk{mu_};
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void BlockExecutor::drain(int worker) {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::int64_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
    if (b >= num_blocks_) return;
    try {
      (*fn_)(b, worker);
    } catch (...) {
      std::lock_guard lk{err_mu_};
      if (first_error_ == nullptr || b < first_error_block_) {
        first_error_ = std::current_exception();
        first_error_block_ = b;
      }
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void BlockExecutor::run(std::int64_t num_blocks, int max_threads,
                        const BlockFn& fn) {
  MOG_CHECK(max_threads >= 1 && max_threads <= kMaxThreads,
            "executor thread count must be in [1, 64]");
  if (num_blocks <= 0) return;
  const int threads =
      static_cast<int>(std::min<std::int64_t>(max_threads, num_blocks));
  if (threads == 1) {
    for (std::int64_t b = 0; b < num_blocks; ++b) fn(b, 0);
    return;
  }

  std::unique_lock job{job_mu_, std::defer_lock};
  {
    const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
    job.lock();
  }
  fn_ = &fn;
  num_blocks_ = num_blocks;
  next_block_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lk{mu_};
    // A new worker starts at the current generation, so the bump below hands
    // it this job and never an earlier, finished one.
    for (int w = static_cast<int>(workers_.size()) + 1; w < threads; ++w)
      workers_.emplace_back(
          [this, w, seen = generation_] { worker_loop(w, seen); });
    threads_ = threads;
    pending_ = threads - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  drain(0);
  {
    std::unique_lock lk{mu_};
    cv_done_.wait(lk, [&] { return pending_ == 0; });
  }
  fn_ = nullptr;
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  job.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace mog
