// Per-device serving plane: one simulated device, N camera streams.
//
// A StreamServer is the device plane of a DeviceFleet, which is the serving
// API: the fleet places streams, migrates them, owns the pump threads and the
// one observability endpoint, and is the only code that constructs or drives
// a plane (everything that changes one is private to it). The plane
// multiplexes independent camera streams onto one simulated GPU.
// Functionally each stream owns a fault::ResilientPipeline (its own model
// state — masks are bit-identical to running that stream alone, which tests
// assert); *temporally* all streams share one gpusim::SharedTimeline: a
// single DMA copy engine and a single compute engine, the C2075 contention
// model of Fig. 5 generalized to incremental multi-stream arrival.
//
// Scheduling is a synchronous round pump. Each pump() round, in round-robin
// order starting from a rotating cursor (fairness: no stream moves two
// frames before another ready stream moves one):
//
//   1. ingest  — pop at most one frame per stream from its bounded queue and
//                reserve the copy engine for its upload;
//   2. deliver — reserve the copy engine for the *previous* round's pending
//                mask downloads and complete their end-to-end latencies.
//                Ordering uploads ahead of the older downloads is the
//                double-buffered FIFO order simulate_overlapped() drives a
//                single stream in;
//   3. compute — run the frame through the stream's pipeline; when masks
//                come due (every frame for direct variants, once per group
//                for tiled), reserve the kernel engine and defer the
//                (batched) download to the next round's phase 2.
//
// Backpressure is explicit: bounded queues with a configurable DropPolicy,
// every drop counted (frame_queue.hpp). Admission control bounds both the
// stream count and the aggregate device-memory footprint. A stream that
// degrades to the CPU tier stops consuming shared device time — its frames
// complete on a private CPU clock instead.
//
// Per-stream telemetry: modeled op windows go to the installed trace
// recorder on track TraceRecorder::kServeTrackBase + the stream's trace id
// (its fleet stream id, so a migrated stream keeps its row); end-to-end
// latencies stay in the stream's own samples (latency_samples()), the one
// latency record the fleet's /metrics renders.
//
// Thread safety: every method locks the plane mutex; the fleet's submit()
// may run on capture threads while the device's pump thread pumps. The plane
// runs no thread of its own: DeviceFleet::start() drives each plane's pump()
// from one thread per device, and DeviceFleet::pump() drives them
// synchronously.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mog/cluster/frame_queue.hpp"
#include "mog/fault/resilient_pipeline.hpp"
#include "mog/gpusim/stream_sim.hpp"
#include "mog/telemetry/log.hpp"

namespace mog::cluster {

/// Thrown when admission control refuses a stream (stream cap or
/// device-memory budget exceeded). The plane's message is the reason; the
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

/// Per-stream observability snapshot. A closed stream keeps its counters,
/// its last tier and its final recovery counters.
struct StreamStats {
  QueueStats queue;
  std::uint64_t queue_depth = 0;       ///< frames waiting right now
  std::uint64_t frames_scheduled = 0;  ///< frames popped into the pipeline
  std::uint64_t masks_delivered = 0;
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  fault::RecoveryStats recovery;
};

/// What one StreamServer::pump() round did.
struct PumpRound {
  int ingested = 0;  ///< frames popped into the pipelines
  /// Trace ids (fleet stream ids) of the streams whose execution tier
  /// worsened this round.
  std::vector<int> degraded;
};

template <typename T>
class DeviceFleet;

/// The device plane. Only its DeviceFleet constructs or drives it; everyone
/// else reads it through DeviceFleet::device_server(), a const reference.
template <typename T>
class StreamServer {
 public:
  using GpuConfig = typename GpuMogPipeline<T>::Config;

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  int num_streams() const;       ///< streams ever opened
  int open_streams() const;      ///< streams currently admitted
  StreamStats stream_stats(int id) const;

  /// Recovery counters of the stream's resilient pipeline (throws for a
  /// closed stream; stream_stats() keeps its final counters).
  fault::RecoveryStats stream_recovery_stats(int id) const;

  /// Raw end-to-end latency samples, arrival -> mask download complete,
  /// across all streams (latency_samples() has one stream's).
  std::vector<double> aggregate_latencies() const;

  /// Aggregate device-memory bytes held by admitted streams.
  std::size_t device_bytes_in_use() const;

  /// The shared timeline itself, unlocked: read it only while no pump
  /// drives the plane (after DeviceFleet::stop()).
  const gpusim::SharedTimeline& timeline() const { return timeline_; }

 private:
  friend class DeviceFleet<T>;

  /// Download the stream's current MoG model (works on every tier).
  MogModel<T> stream_model(int id) const;

  std::vector<double> latency_samples(int id) const;  ///< one stream's

  std::uint64_t masks_delivered() const;  ///< aggregate across streams
  std::uint64_t frames_dropped() const;   ///< aggregate queue drops

  /// Modeled completion time across both shared engines and any CPU-tier
  /// private clocks.
  double makespan_seconds() const;

  /// Busy seconds of the shared copy and compute engines so far, read under
  /// the plane lock: safe while the device's pump thread runs.
  double dma_busy_seconds() const;
  double kernel_busy_seconds() const;

  /// What evacuate() hands a migration.
  struct Evacuee {
    std::vector<QueuedFrame> frames;  ///< still queued, oldest first
    fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;  ///< ran at
    MogModel<T> model;                ///< host copy, after the group flush
  };

  explicit StreamServer(const ServeConfig& config);

  /// Admit a stream: builds its ResilientPipeline and timeline lane. Throws
  /// AdmissionError when the stream cap or the device-memory budget would be
  /// exceeded (the stream is not admitted and nothing leaks). `injector` is
  /// forwarded to the stream's ResilientPipeline. `trace_id` (the fleet
  /// stream id) is the id the stream's trace rows and log lines carry.
  /// Returns the plane-local stream id.
  int open_stream(const GpuConfig& gpu_config,
                  std::shared_ptr<fault::FaultInjector> injector,
                  int trace_id);

  /// Flush the stream's partial tiled group, deliver the remaining masks,
  /// and release its pipeline (its memory leaves the admission budget). The
  /// id is never reused.
  void close_stream(int id);

  /// Offer one frame to stream `id` at modeled time `arrival_seconds`.
  /// Returns false when the queue's drop policy refused it.
  ///
  /// `ticket` == 0 mints a fresh trace ticket here and admission becomes the
  /// start of the frame's flow chain. A decode front end
  /// (ingest::DecodeWorker) passes its pre-minted ticket instead: the chain
  /// then began at the decode span, and admission is a step on it.
  bool submit(int id, FrameU8 frame, double arrival_seconds,
              std::uint64_t ticket);

  /// Run one scheduling round (see file comment). Pending downloads from
  /// the previous round are delivered even when no frame is ingested, so a
  /// round that ingests nothing leaves nothing owed. A stream's tier changes
  /// only here, so `degraded` lists every step down the ladder.
  PumpRound pump();

  /// Move out the masks delivered so far for stream `id` (arrival order).
  /// Empty when ServeConfig::collect_masks is off.
  std::vector<FrameU8> take_masks(int id);

  /// Migration freeze, in one locked step: pop the stream's queued frames
  /// (arrival stamps and trace tickets kept; counted as popped), flush its
  /// partial tiled group, copy its model to the host, and close it.
  Evacuee evacuate(int id);

  /// Migration resume: overwrite stream `id`'s fresh model with `model`
  /// (nullptr keeps the fresh one) and requeue `frames` in order, minting no
  /// new tickets. Returns how many frames the drop policy refused.
  std::uint64_t adopt(int id, const MogModel<T>* model,
                      std::vector<QueuedFrame> frames);

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

  struct Stream {
    std::unique_ptr<fault::ResilientPipeline<T>> pipeline;
    std::unique_ptr<BoundedFrameQueue> queue;
    int trace_id = -1;           ///< id on trace rows and log lines
    int lane = -1;               ///< SharedTimeline stream index
    bool open = true;
    std::size_t device_bytes = 0;
    /// Tier last seen; open_stream() starts it at the pipeline's own tier.
    fault::ExecutionTier last_tier = fault::ExecutionTier::kTiledGpu;
    fault::RecoveryStats last_recovery;  ///< final counters, once closed

    std::uint64_t uploads_outstanding = 0;  ///< scheduled, kernel not yet
    double last_upload_end = 0;
    std::deque<InFlightFrame> in_model;  ///< absorbed, masks pending
    std::vector<PendingDownload> pending;

    double cpu_clock = 0;  ///< private completion clock after CPU degrade
    std::uint64_t frames_scheduled = 0;
    std::uint64_t masks_delivered = 0;
    double last_completion = 0;
    std::vector<double> latencies;
    std::vector<FrameU8> collected;
  };

  Stream& stream_at(int id);
  const Stream& stream_at(int id) const;
  void deliver_pending(Stream& s);
  void complete_masks(Stream& s, PendingDownload&& d, double end_seconds);
  void finish_group(Stream& s, std::vector<FrameU8> masks);
  void flush_locked(Stream& s);
  void close_locked(Stream& s);
  void emit_window(const Stream& s, const char* kind, double start_seconds,
                   double end_seconds);
  void emit_flow(const Stream& s, char phase, std::uint64_t ticket,
                 double seconds);

  ServeConfig config_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Stream>> streams_;
  gpusim::SharedTimeline timeline_;
  int cursor_ = 0;
  std::size_t bytes_in_use_ = 0;
  telemetry::ScopedLogger log_{"serve"};
};

extern template class StreamServer<float>;
extern template class StreamServer<double>;

}  // namespace mog::cluster
