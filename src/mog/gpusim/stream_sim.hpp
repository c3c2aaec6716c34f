// Discrete-event simulation of the host-side frame pipeline.
//
// SharedTimeline is the one event simulator: one DMA engine (the C2075 has a
// single copy engine, so uploads and downloads serialize) and one compute
// engine shared by any number of streams, with real data dependencies
// (kernel i needs upload i; download i needs kernel i; a stream's buffer
// rotation gates how far its uploads run ahead). The Fig. 5 schedules are
// single-stream runs through it, producing the exact operation timeline,
// renderable as a Fig.-5-style Gantt chart. The closed forms in
// transfer_model.hpp stay the production model of the modeled seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mog/gpusim/transfer_model.hpp"

namespace mog::gpusim {

struct TimelineOp {
  enum class Engine { kDma, kKernel };
  Engine engine;
  int frame;
  const char* kind;  // "up", "kernel", "down"
  double start_seconds;
  double end_seconds;
};

struct Timeline {
  std::vector<TimelineOp> ops;
  double total_seconds = 0;

  /// Render as a two-row ASCII Gantt chart (DMA / KER), `columns` wide.
  std::string ascii(int columns = 72) const;
};

/// Fig. 5(a): strictly sequential per frame (one device buffer).
Timeline simulate_sequential(const FrameSchedule& frame, int frames);

/// Fig. 5(b): overlapped with double buffering and one copy engine, in the
/// serving layer's enqueue order.
Timeline simulate_overlapped(const FrameSchedule& frame, int frames);

/// Multi-stream generalization of the Fig. 5(b) contention model: one DMA
/// engine and one kernel engine shared by any number of camera streams, with
/// operations arriving incrementally instead of from a closed-form loop. The
/// serving layer drives one of these per simulated device to model how N
/// pipelines share the single copy engine.
///
/// Engine reservations are granted in call order (the engines are FIFOs,
/// like real CUDA copy/compute queues), so the caller's enqueue order is
/// part of the model — the serving scheduler enqueues the next round's
/// uploads ahead of the previous round's downloads, the order
/// simulate_overlapped() drives a single stream in.
///
/// Per stream, frames are FIFO through a bounded buffer pool: the upload of
/// frame i may not start before the kernel that consumed frame i - buffers
/// of the same stream has completed (double buffering is buffers = 2; the
/// tiled variant rotates 2 * frame_group buffers at group granularity).
class SharedTimeline {
 public:
  struct Window {
    double start_seconds = 0;
    double end_seconds = 0;
  };

  /// Register a stream with a `buffers`-deep device-buffer rotation.
  /// Returns the stream's index.
  int add_stream(int buffers = 2);

  int num_streams() const { return static_cast<int>(streams_.size()); }

  /// Reserve the copy engine for one upload of `seconds`, no earlier than
  /// `ready_seconds` (frame arrival) and not before the stream's buffer
  /// rotation frees a slot.
  Window schedule_upload(int stream, double ready_seconds, double seconds);

  /// Reserve the kernel engine, no earlier than `ready_seconds` (the end of
  /// the consumed uploads). `uploads_consumed` frames of the stream's buffer
  /// rotation are released when this kernel completes (1 per frame for the
  /// direct variants, frame_group for a tiled group launch).
  Window schedule_kernel(int stream, double ready_seconds, double seconds,
                         int uploads_consumed = 1);

  /// Reserve the copy engine for a (possibly batched) download, no earlier
  /// than `ready_seconds` (the producing kernel's end).
  Window schedule_download(int stream, double ready_seconds, double seconds);

  double dma_free_seconds() const { return dma_free_; }
  double kernel_free_seconds() const { return kernel_free_; }

  /// Cumulative seconds each engine spent occupied. Divided by the makespan
  /// these are the copy/compute utilizations the /metrics endpoint exports —
  /// the saturation signal that says which engine is the multi-stream
  /// bottleneck (the paper's single copy engine usually saturates first).
  double dma_busy_seconds() const { return dma_busy_; }
  double kernel_busy_seconds() const { return kernel_busy_; }

  /// Every scheduled operation (TimelineOp::frame holds the stream index);
  /// total_seconds is the makespan so far.
  const Timeline& timeline() const { return tl_; }
  double makespan_seconds() const { return tl_.total_seconds; }

 private:
  struct StreamLane {
    int buffers = 2;
    std::uint64_t uploads = 0;   ///< uploads scheduled so far
    std::uint64_t consumed = 0;  ///< uploads released by scheduled kernels
    /// release_seconds[i] = completion of the kernel that consumed upload i
    /// (known for every i < consumed).
    std::vector<double> release_seconds;
  };

  double dma_free_ = 0;
  double kernel_free_ = 0;
  double dma_busy_ = 0;
  double kernel_busy_ = 0;
  std::vector<StreamLane> streams_;
  Timeline tl_;
};

}  // namespace mog::gpusim
