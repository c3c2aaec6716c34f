#include "mog/gpusim/block_executor.hpp"

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/telemetry/sampler.hpp"

namespace mog::gpusim {

BlockExecutor::BlockExecutor(int num_threads) {
  MOG_CHECK(num_threads >= 1 && num_threads <= 64,
            "executor thread count must be in [1, 64]");
  for (int w = 1; w < num_threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

BlockExecutor::~BlockExecutor() {
  {
    std::lock_guard lk{mu_};
    shutting_down_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void BlockExecutor::worker_loop(int worker) {
  telemetry::prof_set_thread_name(strprintf("exec%d", worker).c_str());
  std::uint64_t seen = 0;
  while (true) {
    {
      const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
      std::unique_lock lk{mu_};
      cv_start_.wait(lk, [&] { return generation_ != seen || shutting_down_; });
      if (shutting_down_) return;
      seen = generation_;
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

void BlockExecutor::run(std::int64_t num_blocks, const BlockFn& fn) {
  if (num_blocks <= 0) return;
  fn_ = &fn;
  num_blocks_ = num_blocks;
  next_block_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  {
    std::lock_guard lk{mu_};
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  drain(0);
  {
    std::unique_lock lk{mu_};
    cv_done_.wait(lk, [&] { return pending_ == 0; });
  }
  fn_ = nullptr;
  if (first_error_ != nullptr) std::rethrow_exception(first_error_);
}

}  // namespace mog::gpusim
