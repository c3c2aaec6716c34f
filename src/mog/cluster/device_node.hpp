// One device of a DeviceFleet: a schedule that the fleet's streams pass
// through.
//
// In the paper's Fig. 5 host loop a GPU is one DMA copy engine and one
// compute engine. A DeviceNode is that, as a gpusim::SharedTimeline (the
// C2075 contention model generalized to incremental multi-stream arrival),
// plus its memory budget, its fault domain and strikes, its pump and wake
// counter, its lane rotation, and three totals (masks delivered, frames
// dropped, latest completion). It owns no stream: each stream's queue,
// pipeline, counters, latencies and masks live in the fleet's StreamRec for
// the stream's whole life. Functionally each stream keeps its own
// fault::ResilientPipeline (its own model state: masks are bit-identical to
// running that stream alone, which tests assert); *temporally* every stream
// on a node shares its timeline.
//
// Lanes: admitting a stream opens a lane, one SharedTimeline stream with its
// own buffer rotation (2 for direct variants, 2 x frame_group for tiled).
// The lane turns live when the node starts hosting the stream and stops when
// the stream leaves or closes. Lanes are never reused.
//
// Scheduling is a synchronous round pump. Each pump() round walks the live
// lanes in round-robin order over every lane the node ever opened, from a
// cursor that rotates after every round that ingests a frame (fairness: no
// stream moves two frames before another ready stream moves one; idle rounds
// leave the order alone):
//
//   1. ingest  — pop at most one frame per stream from its bounded queue and
//                reserve the copy engine for its upload, after every pending
//                download on the device that was ready by the frame's
//                arrival (so the pump's cadence never delays a mask);
//   2. deliver — reserve the copy engine for the earlier rounds' remaining
//                mask downloads and complete their end-to-end latencies.
//                Ordering uploads ahead of the older downloads is the
//                double-buffered FIFO order simulate_overlapped() drives a
//                single stream in;
//   3. compute — run the frame through the stream's pipeline; when masks
//                come due (every frame for direct variants, once per group
//                for tiled), reserve the kernel engine and defer the
//                (batched) download to a later round.
//
// Backpressure is explicit: bounded queues with a configurable DropPolicy,
// every drop counted (frame_queue.hpp). Admission control bounds both the
// stream count and the aggregate device-memory footprint. A stream that
// degrades to the CPU tier stops consuming shared device time: its frames
// complete on a private CPU clock instead. Modeled op windows go to the
// installed trace recorder on track TraceRecorder::kServeTrackBase + the
// fleet stream id, so a migrated stream keeps its row.
//
// Locking: the node mutex guards the timeline, the budget, the totals and
// every stream the node hosts. Lanes and a stream's placement change only
// under the fleet lock and the node lock both. The order is fleet, node,
// queue. The DeviceFleet alone constructs and drives nodes; device_server()
// hands out a const one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/frame_queue.hpp"
#include "mog/fault/resilient_pipeline.hpp"
#include "mog/gpusim/stream_sim.hpp"
#include "mog/telemetry/log.hpp"

namespace mog::cluster {

/// Thrown when admission control refuses a stream (stream cap or
/// device-memory budget exceeded). The node's message is the reason; the
/// fleet's names the last device that refused.
class AdmissionError : public Error {
 public:
  explicit AdmissionError(const std::string& what) : Error(what) {}
};

struct ServeConfig {
  int max_streams = 16;         ///< admission cap on concurrently open streams
  std::size_t queue_depth = 8;  ///< per-stream ingress queue depth
  DropPolicy drop_policy = DropPolicy::kDropNewest;

  /// Aggregate device-memory budget for admission control; 0 uses the
  /// simulated device's capacity.
  std::size_t device_memory_budget_bytes = 0;

  /// Recovery configuration for every stream's ResilientPipeline.
  fault::ResilienceConfig resilience;

  /// Keep delivered masks in memory for take_masks(); disable for soak
  /// runs / benches that only need counters.
  bool collect_masks = true;

  void validate() const;
};

/// Per-stream observability snapshot over the stream's whole life: a
/// migration resets nothing, and a closed stream keeps its counters and its
/// last tier.
struct StreamStats {
  QueueStats queue;
  std::uint64_t queue_depth = 0;       ///< frames waiting right now
  std::uint64_t frames_scheduled = 0;  ///< frames popped into the pipeline
  std::uint64_t masks_delivered = 0;
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  fault::RecoveryStats recovery;  ///< summed over every pipeline it had
};

/// What one DeviceNode::pump() round did.
struct PumpRound {
  int ingested = 0;  ///< frames popped into the pipelines
  /// Fleet ids of the streams whose execution tier worsened this round.
  std::vector<int> degraded;
};

template <typename T>
class DeviceFleet;

/// One fleet stream for its whole life. The fleet owns it; the node hosting
/// it schedules it. Its placement (`open`, `device`, `lane`) changes under the
/// fleet lock and the host's lock; the rest under the host's lock.
template <typename T>
struct StreamRec {
  using GpuConfig = typename GpuMogPipeline<T>::Config;

  StreamRec(int fleet_id, const GpuConfig& gpu_config,
            std::shared_ptr<fault::FaultInjector> injector,
            std::string placement_key, const ServeConfig& serve)
      : id(fleet_id),
        gpu(gpu_config),
        own_injector(std::move(injector)),
        key(std::move(placement_key)),
        queue(serve.queue_depth, serve.drop_policy) {}

  /// A batched mask download owed by a kernel.
  struct PendingDownload {
    double ready_seconds = 0;           ///< producing kernel's end
    std::vector<double> arrivals;       ///< arrival stamp per owed mask
    std::vector<std::uint64_t> tickets; ///< trace ticket per owed mask
    std::vector<FrameU8> masks;         ///< functional masks (may be empty)
  };

  /// A frame absorbed by the model whose mask is still owed (tiled
  /// mid-group), keyed by its arrival stamp and trace ticket.
  struct InFlightFrame {
    double arrival_seconds = 0;
    std::uint64_t ticket = 0;
  };

  /// Scheduling state on the hosting device; a migration starts it afresh.
  struct Schedule {
    std::uint64_t uploads_outstanding = 0;  ///< scheduled, kernel not yet
    double last_upload_end = 0;
    std::deque<InFlightFrame> in_model;  ///< absorbed, masks pending
    std::vector<PendingDownload> pending;
    double cpu_clock = 0;  ///< private completion clock after CPU degrade
  };

  const int id;  ///< fleet stream id, on trace rows and log lines
  const GpuConfig gpu;
  /// A stream-scoped injector (a sick camera) that follows the stream
  /// across migrations; null joins the hosting device's fault domain.
  const std::shared_ptr<fault::FaultInjector> own_injector;
  const std::string key;  ///< placement key
  BoundedFrameQueue queue;

  bool open = true;
  int device = -1;  ///< hosting device (the last one, once closed)
  int lane = -1;    ///< its lane there
  std::uint64_t migrations = 0;

  std::unique_ptr<fault::ResilientPipeline<T>> pipeline;  ///< null if closed
  /// The pipeline's tier as the pump last saw it (the final one if closed).
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  fault::RecoveryStats released;  ///< counters of the pipelines it released
  std::uint64_t frames_scheduled = 0;
  std::uint64_t masks_delivered = 0;
  std::vector<double> latencies;  ///< arrival -> mask download complete
  std::vector<FrameU8> collected;
  Schedule sched;
};

/// The device node. Its public readers are the const view that
/// DeviceFleet::device_server() hands out; a lane id there is an index into
/// the lanes the node ever opened.
template <typename T>
class DeviceNode {
 public:
  DeviceNode(const DeviceNode&) = delete;
  DeviceNode& operator=(const DeviceNode&) = delete;

  int num_streams() const;   ///< lanes ever opened
  int open_streams() const;  ///< streams hosted now

  /// The whole-life stats of the stream that lane `lane` was opened for,
  /// wherever it is now.
  StreamStats stream_stats(int lane) const;

  /// Live recovery counters of the pipeline serving `lane`; throws for a
  /// lane whose stream left or closed.
  fault::RecoveryStats stream_recovery_stats(int lane) const;

  /// End-to-end latency samples of the streams this node hosts, or hosted
  /// last; summed over the fleet's nodes they count each mask once.
  std::vector<double> aggregate_latencies() const;

  /// Aggregate device-memory bytes held by admitted streams.
  std::size_t device_bytes_in_use() const;

  /// The shared timeline itself, unlocked: read it only while no pump
  /// drives the node (after DeviceFleet::stop()).
  const gpusim::SharedTimeline& timeline() const { return timeline_; }

 private:
  friend class DeviceFleet<T>;

  /// A lane opened for a stream and the pipeline built for it there.
  struct Admission {
    int lane = -1;
    std::unique_ptr<fault::ResilientPipeline<T>> pipeline;
  };

  struct Lane {
    StreamRec<T>* stream = nullptr;  ///< the stream it was opened for
    std::size_t bytes = 0;           ///< charged to the budget until released
    bool live = false;               ///< hosted and scheduled here now
  };

  /// What the fleet's pages read of the device, in one locked step.
  struct Totals {
    std::uint64_t masks_delivered = 0;
    std::uint64_t frames_dropped = 0;
    double makespan_seconds = 0;  ///< both engines and any CPU-tier clock
    double dma_busy_seconds = 0;
    double kernel_busy_seconds = 0;
  };

  DeviceNode(const DeviceFleet<T>& fleet, int index);

  /// Reserve room for `s`: build its pipeline under `injector`, charge the
  /// budget and open a lane that the pump skips until host(). Throws
  /// AdmissionError when the stream cap or the device-memory budget would
  /// be exceeded (nothing is charged and nothing leaks).
  Admission admit(StreamRec<T>& s,
                  std::shared_ptr<fault::FaultInjector> injector);

  /// Make `s` this node's: install the admitted pipeline (with `model`
  /// adopted, unless null), start its schedule afresh and make its lane
  /// live.
  void host(StreamRec<T>& s, Admission admission, const MogModel<T>* model);

  /// End `s`'s stay here in one locked step: flush its partial tiled group,
  /// deliver every mask it owes, and release its pipeline (its memory leaves
  /// the budget, its counters stay in `s.released`). The queue stays with
  /// the stream. Returns the model after the flush when `keep_model`.
  MogModel<T> release(StreamRec<T>& s, bool keep_model);

  /// Offer one frame to hosted stream `s` at modeled time `arrival_seconds`.
  /// Returns false when the queue's drop policy refused it. `ticket` == 0
  /// mints a fresh trace ticket and admission starts the frame's flow chain;
  /// a decode front end (ingest::DecodeWorker) passes its pre-minted ticket
  /// instead, and admission is a step on a chain that began at decode.
  bool submit(StreamRec<T>& s, FrameU8 frame, double arrival_seconds,
              std::uint64_t ticket);

  /// Run one scheduling round (see file comment). Pending downloads from
  /// earlier rounds are delivered even when no frame is ingested, so a round
  /// that ingests nothing leaves nothing owed. A stream's tier changes only
  /// here, so `degraded` lists every step down the ladder.
  PumpRound pump();

  // Readers of a stream this node hosts (or hosted last, if closed).
  StreamStats stats(const StreamRec<T>& s) const;
  std::vector<double> latencies(const StreamRec<T>& s) const;
  std::vector<FrameU8> take_masks(StreamRec<T>& s);  ///< arrival order
  MogModel<T> model(const StreamRec<T>& s) const;    ///< works on every tier
  /// aggregate_latencies() for a caller that holds the fleet lock.
  std::vector<double> resident_latencies() const;
  Totals totals() const;

  int open_locked() const;
  const Lane& lane_at(int lane) const;
  /// Reserve the downloads of `s` that were ready by `ready_by`, oldest
  /// first, and complete their masks.
  void deliver_pending(
      StreamRec<T>& s,
      double ready_by = std::numeric_limits<double>::infinity());
  void complete_masks(StreamRec<T>& s,
                      typename StreamRec<T>::PendingDownload&& d,
                      double end_seconds);
  void finish_group(StreamRec<T>& s, std::vector<FrameU8> masks);
  void flush_locked(StreamRec<T>& s);
  void emit_window(const StreamRec<T>& s, const char* kind,
                   double start_seconds, double end_seconds);
  void emit_flow(const StreamRec<T>& s, char phase, std::uint64_t ticket,
                 double seconds);

  void wake() {
    wakeups_.fetch_add(1);
    wakeups_.notify_one();
  }

  const DeviceFleet<T>& fleet_;
  const ServeConfig& config_;
  const int index_;

  mutable std::mutex mu_;
  gpusim::SharedTimeline timeline_;
  std::size_t bytes_in_use_ = 0;
  std::vector<Lane> lanes_;  ///< in admission order
  int cursor_ = 0;           ///< fairness: the lane a round starts from
  std::uint64_t masks_delivered_ = 0;
  std::uint64_t frames_dropped_ = 0;
  double latest_completion_ = 0;

  // Fleet state, under the fleet lock.
  std::shared_ptr<fault::FaultInjector> injector_;  ///< fault domain
  bool alive_ = true;
  int strikes_ = 0;
  std::uint64_t migrations_in_ = 0;
  std::uint64_t migrations_out_ = 0;

  /// Bumped by every wake(); the live pump reads it before a round and
  /// sleeps until it changes, so a wake-up during a round is never lost.
  /// 32 bits: the width a futex waits on directly, where a 64-bit atomic
  /// waits through a waiter table shared with other addresses.
  std::atomic<std::uint32_t> wakeups_{0};
  std::thread pump_thread_;  ///< live mode only

  telemetry::ScopedLogger log_{"serve"};
};

extern template class DeviceNode<float>;
extern template class DeviceNode<double>;

}  // namespace mog::cluster
