#include "mog/cluster/frame_queue.hpp"

#include <algorithm>
#include <utility>

#include "mog/common/error.hpp"

namespace mog::cluster {

const char* to_string(DropPolicy policy) {
  switch (policy) {
    case DropPolicy::kDropNewest: return "drop-newest";
    case DropPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

BoundedFrameQueue::BoundedFrameQueue(std::size_t depth, DropPolicy policy)
    : depth_(depth), policy_(policy) {
  MOG_CHECK(depth >= 1, "frame queue needs a positive depth");
}

bool BoundedFrameQueue::push(FrameU8 frame, double arrival_seconds,
                             std::uint64_t ticket) {
  MOG_CHECK(arrival_seconds >= 0, "negative arrival time");
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (q_.size() >= depth_) {
    if (policy_ == DropPolicy::kDropNewest) {
      ++stats_.dropped;
      return false;
    }
    q_.pop_front();  // kDropOldest: evict the stalest frame
    ++stats_.dropped;
  }
  q_.push_back(QueuedFrame{std::move(frame), arrival_seconds, ticket});
  ++stats_.accepted;
  stats_.high_water = std::max<std::uint64_t>(stats_.high_water, q_.size());
  return true;
}

bool BoundedFrameQueue::pop(QueuedFrame& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (q_.empty()) return false;
  out = std::move(q_.front());
  q_.pop_front();
  ++stats_.popped;
  return true;
}

std::size_t BoundedFrameQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

QueueStats BoundedFrameQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mog::cluster
