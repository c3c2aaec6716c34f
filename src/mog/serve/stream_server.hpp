// Per-device serving plane: one simulated device, N camera streams.
//
// A StreamServer is the device plane of a cluster::DeviceFleet, which is the
// serving API: the fleet places streams, migrates them, and owns the one
// observability endpoint. The plane multiplexes independent camera streams
// onto one simulated GPU. Functionally each stream owns a
// fault::ResilientPipeline (its own model state — masks are bit-identical to
// running that stream alone, which tests assert); *temporally* all streams
// share one gpusim::SharedTimeline: a single DMA copy engine and a single
// compute engine, the C2075 contention model of Fig. 5 generalized to
// incremental multi-stream arrival.
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
// recorder on track TraceRecorder::kServeTrackBase + id; end-to-end
// latencies stay in the stream's own samples (latency_samples()), the one
// latency record the fleet's /metrics renders.
//
// Thread safety: every public method locks the plane mutex; submit() may be
// called from capture threads while the scheduler pumps. start()/stop() run
// the pump on a background thread for live use; deterministic callers call
// pump()/drain() synchronously instead.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mog/fault/resilient_pipeline.hpp"
#include "mog/gpusim/stream_sim.hpp"
#include "mog/serve/frame_queue.hpp"
#include "mog/telemetry/log.hpp"

namespace mog::serve {

/// Thrown by open_stream() when admission control refuses a stream (stream
/// cap or device-memory budget exceeded).
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
  double dma_seconds = 0;     ///< shared copy-engine time reserved
  double kernel_seconds = 0;  ///< shared compute-engine time reserved
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  fault::RecoveryStats recovery;
};

template <typename T>
class StreamServer {
 public:
  using GpuConfig = typename GpuMogPipeline<T>::Config;

  /// `device` is the plane's index in its fleet; it names the pump thread
  /// ("dev<device>.pump") in sampling profiles.
  explicit StreamServer(const ServeConfig& config, int device = 0);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Admit a stream: builds its ResilientPipeline and timeline lane. Throws
  /// AdmissionError when the stream cap or the device-memory budget would be
  /// exceeded (the stream is not admitted and nothing leaks). `injector` is
  /// forwarded to the stream's ResilientPipeline. Returns the stream id.
  int open_stream(const GpuConfig& gpu_config,
                  std::shared_ptr<fault::FaultInjector> injector = nullptr);

  /// Flush the stream's partial tiled group, deliver the remaining masks,
  /// and release its pipeline (its memory leaves the admission budget). The
  /// id is never reused.
  void close_stream(int id);

  /// Offer one frame to stream `id` at modeled time `arrival_seconds`.
  /// Returns false when the queue's drop policy refused it. Thread-safe.
  ///
  /// `ticket` == 0 (the default) mints a fresh trace ticket here and
  /// admission becomes the start of the frame's flow chain. A decode front
  /// end (ingest::DecodeWorker) passes its pre-minted ticket instead: the
  /// chain then began at the decode span, and admission is a step on it.
  bool submit(int id, FrameU8 frame, double arrival_seconds = 0,
              std::uint64_t ticket = 0);

  /// Run one scheduling round (see file comment). Returns the number of
  /// frames ingested this round; pending downloads from the previous round
  /// are delivered even when that count is 0.
  int pump();

  /// Pump until every queue is empty and every scheduled mask is delivered.
  /// Partial tiled groups stay buffered (close_stream() flushes them).
  void drain();

  /// Flush stream `id`'s partial tiled group without closing it.
  int flush_stream(int id);

  /// Background scheduler thread driving pump() (live serving / TSan
  /// coverage). Deterministic callers use pump()/drain() directly.
  void start();
  void stop();

  /// Move out the masks delivered so far for stream `id` (arrival order).
  /// Empty when ServeConfig::collect_masks is off.
  std::vector<FrameU8> take_masks(int id);

  int num_streams() const;       ///< streams ever opened
  int open_streams() const;      ///< streams currently admitted
  StreamStats stream_stats(int id) const;

  // --- migration hooks (used by cluster::DeviceFleet to move a live stream
  // to another device; see src/mog/cluster/) ------------------------------

  /// Pop every frame still waiting in the stream's ingress queue, in order,
  /// preserving arrival stamps and trace tickets (they re-enter another
  /// device's queue via resubmit()). Counted as popped in QueueStats.
  std::vector<QueuedFrame> steal_queue(int id);

  /// Re-enqueue a frame stolen from another server, keeping its arrival
  /// stamp and ticket (no new ticket is minted). Returns false when the
  /// drop policy refused it.
  bool resubmit(int id, QueuedFrame qf);

  /// Download the stream's current MoG model (works on every tier).
  MogModel<T> stream_model(int id) const;

  /// Overwrite the stream's model with restored snapshot state.
  void restore_stream_model(int id, const MogModel<T>& m);

  /// Recovery counters of the stream's resilient pipeline (throws for a
  /// closed stream; stream_stats() keeps its final counters).
  fault::RecoveryStats stream_recovery_stats(int id) const;

  /// Raw end-to-end latency samples, arrival -> mask download complete (per
  /// stream / across all streams) — the fleet merges these into its rollups
  /// and device-spanning histograms.
  std::vector<double> latency_samples(int id) const;
  std::vector<double> aggregate_latencies() const;

  std::uint64_t masks_delivered() const;  ///< aggregate across streams
  std::uint64_t frames_dropped() const;   ///< aggregate queue drops

  /// Modeled completion time across both shared engines and any CPU-tier
  /// private clocks.
  double makespan_seconds() const;

  /// Aggregate device-memory bytes held by admitted streams.
  std::size_t device_bytes_in_use() const;

  const gpusim::SharedTimeline& timeline() const { return timeline_; }

 private:
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
    GpuConfig gpu_config;
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
    double dma_seconds = 0;
    double kernel_seconds = 0;
    double last_completion = 0;
    std::vector<double> latencies;
    std::vector<FrameU8> collected;
  };

  Stream& stream_at(int id);
  const Stream& stream_at(int id) const;
  int pump_locked();
  void deliver_pending(Stream& s, int id);
  void complete_masks(Stream& s, int id, PendingDownload&& d,
                      double end_seconds);
  void finish_group(Stream& s, int id, std::vector<FrameU8> masks);
  int flush_locked(int id);
  void emit_window(int id, const char* kind, double start_seconds,
                   double end_seconds);
  void emit_flow(char phase, std::uint64_t ticket, int id, double seconds);

  ServeConfig config_;
  int device_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Stream>> streams_;
  gpusim::SharedTimeline timeline_;
  int cursor_ = 0;
  std::size_t bytes_in_use_ = 0;
  telemetry::ScopedLogger log_{"serve"};

  std::condition_variable cv_;
  std::thread worker_;
  bool stop_requested_ = false;
  bool running_ = false;
};

extern template class StreamServer<float>;
extern template class StreamServer<double>;

}  // namespace mog::serve
