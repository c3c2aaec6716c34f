// Bounded per-stream ingress queue for the serving layer.
//
// Each camera stream owns one BoundedFrameQueue. Producers push frames with
// a modeled arrival timestamp; when the queue is full the configured
// DropPolicy decides which frame loses its slot — the incoming one
// (kDropNewest, tail drop: latency on admitted frames stays bounded) or the
// oldest queued one (kDropOldest, head drop: the model always sees the most
// recent scene). Every decision is counted in QueueStats so backpressure is
// observable rather than silent.
//
// The queue is thread-safe (one mutex) so capture threads can push while the
// scheduler pops.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>

#include "mog/common/image.hpp"

namespace mog::cluster {

/// What to do when a frame arrives at a full queue.
enum class DropPolicy {
  kDropNewest,  ///< refuse the incoming frame (tail drop)
  kDropOldest,  ///< evict the oldest queued frame to make room (head drop)
};

const char* to_string(DropPolicy policy);

/// A frame waiting for the scheduler, stamped at admission.
struct QueuedFrame {
  FrameU8 frame;
  double arrival_seconds = 0;  ///< modeled arrival time (caller-supplied)
  std::uint64_t ticket = 0;    ///< frame ticket (trace flow id; 0 = none)
};

/// Backpressure counters. Conservation (tests assert it): under kDropNewest
/// `dropped` counts refused pushes, so submitted == accepted + dropped; under
/// kDropOldest every push is accepted and `dropped` counts evictions, so
/// accepted == popped + dropped + size().
struct QueueStats {
  std::uint64_t submitted = 0;   ///< push attempts
  std::uint64_t accepted = 0;    ///< frames that entered the queue
  std::uint64_t dropped = 0;     ///< frames lost to the drop policy
  std::uint64_t popped = 0;      ///< frames handed to the scheduler
  std::uint64_t high_water = 0;  ///< max queue depth observed
};

class BoundedFrameQueue {
 public:
  BoundedFrameQueue(std::size_t depth, DropPolicy policy);

  /// Offer one frame. Returns false when the frame was dropped (kDropNewest
  /// at a full queue); kDropOldest always admits the new frame but may have
  /// evicted a predecessor (visible in stats().dropped). `ticket` is the
  /// frame's trace ticket, carried through to the scheduler.
  bool push(FrameU8 frame, double arrival_seconds, std::uint64_t ticket = 0);

  /// Pop the oldest queued frame; false when empty.
  bool pop(QueuedFrame& out);

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  QueueStats stats() const;

 private:
  const std::size_t depth_;
  const DropPolicy policy_;

  mutable std::mutex mu_;
  std::deque<QueuedFrame> q_;
  QueueStats stats_;
};

}  // namespace mog::cluster
