#include "mog/gpusim/stream_sim.hpp"

#include <algorithm>

#include "mog/common/error.hpp"

namespace mog::gpusim {

namespace {

void push(Timeline& tl, TimelineOp::Engine engine, int frame,
          const char* kind, double start, double duration) {
  tl.ops.push_back(TimelineOp{engine, frame, kind, start, start + duration});
  tl.total_seconds = std::max(tl.total_seconds, start + duration);
}

}  // namespace

// Both Fig. 5 schedules run one lane through SharedTimeline, so the one
// event loop that models the serving layer's shared device also renders the
// figure. SharedTimeline records the lane index in TimelineOp::frame; each
// schedule writes the op's frame index back before returning.

Timeline simulate_sequential(const FrameSchedule& frame, int frames) {
  MOG_CHECK(frames >= 0, "negative frame count");
  // One device buffer: frame i+1's upload waits for kernel i, and the
  // download goes ahead of it in the copy engine's FIFO.
  SharedTimeline st;
  const int lane = st.add_stream(1);
  for (int i = 0; i < frames; ++i) {
    const double up =
        st.schedule_upload(lane, 0.0, frame.upload_seconds).end_seconds;
    const double k =
        st.schedule_kernel(lane, up, frame.kernel_seconds).end_seconds;
    st.schedule_download(lane, k, frame.download_seconds);
  }
  Timeline tl = st.timeline();
  for (std::size_t j = 0; j < tl.ops.size(); ++j)
    tl.ops[j].frame = static_cast<int>(j / 3);
  return tl;
}

Timeline simulate_overlapped(const FrameSchedule& frame, int frames) {
  MOG_CHECK(frames >= 0, "negative frame count");
  // Double buffering in the serving order: round r enqueues up(r), then
  // down(r-1), then kernel(r), so the next upload sits ahead of the
  // previous download in the copy engine's FIFO.
  SharedTimeline st;
  const int lane = st.add_stream(2);
  std::vector<int> frame_of;
  double up = 0, k = 0;
  for (int r = 0; r <= frames; ++r) {
    if (r < frames) {
      up = st.schedule_upload(lane, 0.0, frame.upload_seconds).end_seconds;
      frame_of.push_back(r);
    }
    if (r > 0) {
      st.schedule_download(lane, k, frame.download_seconds);
      frame_of.push_back(r - 1);
    }
    if (r < frames) {
      k = st.schedule_kernel(lane, up, frame.kernel_seconds).end_seconds;
      frame_of.push_back(r);
    }
  }
  Timeline tl = st.timeline();
  for (std::size_t j = 0; j < tl.ops.size(); ++j) tl.ops[j].frame = frame_of[j];
  return tl;
}

int SharedTimeline::add_stream(int buffers) {
  MOG_CHECK(buffers >= 1, "a stream needs at least one device buffer");
  streams_.push_back(StreamLane{buffers, 0, 0, {}});
  return static_cast<int>(streams_.size()) - 1;
}

SharedTimeline::Window SharedTimeline::schedule_upload(int stream,
                                                       double ready_seconds,
                                                       double seconds) {
  MOG_CHECK(stream >= 0 && stream < num_streams(), "unknown timeline stream");
  MOG_CHECK(ready_seconds >= 0 && seconds >= 0, "negative time");
  StreamLane& lane = streams_[static_cast<std::size_t>(stream)];
  double start = std::max(ready_seconds, dma_free_);
  // Buffer rotation: slot (uploads % buffers) is free once the kernel that
  // consumed upload (uploads - buffers) has completed. The scheduler always
  // launches the consuming kernel before it uploads `buffers` frames ahead,
  // so the release time is known here by construction.
  if (lane.uploads >= static_cast<std::uint64_t>(lane.buffers)) {
    const std::uint64_t reuse_of = lane.uploads -
                                   static_cast<std::uint64_t>(lane.buffers);
    MOG_CHECK(reuse_of < lane.consumed,
              "upload outruns the stream's buffer rotation (kernel for the "
              "reused slot not scheduled yet)");
    start = std::max(
        start, lane.release_seconds[static_cast<std::size_t>(reuse_of)]);
  }
  push(tl_, TimelineOp::Engine::kDma, stream, "up", start, seconds);
  dma_free_ = start + seconds;
  dma_busy_ += seconds;
  ++lane.uploads;
  return Window{start, dma_free_};
}

SharedTimeline::Window SharedTimeline::schedule_kernel(int stream,
                                                       double ready_seconds,
                                                       double seconds,
                                                       int uploads_consumed) {
  MOG_CHECK(stream >= 0 && stream < num_streams(), "unknown timeline stream");
  MOG_CHECK(ready_seconds >= 0 && seconds >= 0, "negative time");
  MOG_CHECK(uploads_consumed >= 1, "a kernel must consume at least one frame");
  StreamLane& lane = streams_[static_cast<std::size_t>(stream)];
  MOG_CHECK(lane.consumed + static_cast<std::uint64_t>(uploads_consumed) <=
                lane.uploads,
            "kernel consumes frames that were never uploaded");
  const double start = std::max(ready_seconds, kernel_free_);
  const double end = start + seconds;
  push(tl_, TimelineOp::Engine::kKernel, stream, "kernel", start, seconds);
  kernel_free_ = end;
  kernel_busy_ += seconds;
  for (int i = 0; i < uploads_consumed; ++i) {
    lane.release_seconds.push_back(end);
    ++lane.consumed;
  }
  return Window{start, end};
}

SharedTimeline::Window SharedTimeline::schedule_download(int stream,
                                                         double ready_seconds,
                                                         double seconds) {
  MOG_CHECK(stream >= 0 && stream < num_streams(), "unknown timeline stream");
  MOG_CHECK(ready_seconds >= 0 && seconds >= 0, "negative time");
  const double start = std::max(ready_seconds, dma_free_);
  push(tl_, TimelineOp::Engine::kDma, stream, "down", start, seconds);
  dma_free_ = start + seconds;
  dma_busy_ += seconds;
  return Window{start, dma_free_};
}

std::string Timeline::ascii(int columns) const {
  MOG_CHECK(columns >= 16, "timeline needs at least 16 columns");
  if (ops.empty() || total_seconds <= 0) return "(empty timeline)\n";
  const double scale = static_cast<double>(columns) / total_seconds;

  std::string dma(static_cast<std::size_t>(columns), '.');
  std::string ker(static_cast<std::size_t>(columns), '.');
  for (const TimelineOp& op : ops) {
    std::string& row = op.engine == TimelineOp::Engine::kDma ? dma : ker;
    int lo = static_cast<int>(op.start_seconds * scale);
    int hi = static_cast<int>(op.end_seconds * scale);
    lo = std::clamp(lo, 0, columns - 1);
    hi = std::clamp(hi, lo + 1, columns);
    char glyph = 'K';
    if (op.kind[0] == 'u') glyph = 'U';
    if (op.kind[0] == 'd') glyph = 'D';
    for (int c = lo; c < hi; ++c)
      row[static_cast<std::size_t>(c)] = glyph;
  }
  std::string out;
  out += "DMA |" + dma + "|\n";
  out += "KER |" + ker + "|\n";
  return out;
}

}  // namespace mog::gpusim
