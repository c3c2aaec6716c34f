// Tests for the discrete-event pipeline simulator: the Fig. 5 schedules
// against a standalone reference event loop (bit for bit) and against the
// closed forms, and SharedTimeline's multi-stream contention model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"

#include "mog/gpusim/stream_sim.hpp"

namespace mog::gpusim {
namespace {

FrameSchedule sched(double up_ms, double kernel_ms, double down_ms) {
  FrameSchedule f;
  f.upload_seconds = up_ms * 1e-3;
  f.kernel_seconds = kernel_ms * 1e-3;
  f.download_seconds = down_ms * 1e-3;
  return f;
}

// --- reference event loop ----------------------------------------------------
// The standalone Fig. 5 event loop that simulate_sequential and
// simulate_overlapped replaced with runs through SharedTimeline, kept
// verbatim as the oracle they must reproduce bit for bit.

void push(Timeline& tl, TimelineOp::Engine engine, int frame,
          const char* kind, double start, double duration) {
  tl.ops.push_back(TimelineOp{engine, frame, kind, start, start + duration});
  tl.total_seconds = std::max(tl.total_seconds, start + duration);
}

Timeline reference_sequential(const FrameSchedule& frame, int frames) {
  Timeline tl;
  double t = 0;
  for (int i = 0; i < frames; ++i) {
    push(tl, TimelineOp::Engine::kDma, i, "up", t, frame.upload_seconds);
    t += frame.upload_seconds;
    push(tl, TimelineOp::Engine::kKernel, i, "kernel", t,
         frame.kernel_seconds);
    t += frame.kernel_seconds;
    push(tl, TimelineOp::Engine::kDma, i, "down", t, frame.download_seconds);
    t += frame.download_seconds;
  }
  return tl;
}

Timeline reference_overlapped(const FrameSchedule& frame, int frames) {
  Timeline tl;
  if (frames == 0) return tl;

  // Enqueue order follows the standard double-buffered host loop:
  //   up(0); for i: { launch kernel(i); enqueue up(i+1); enqueue down(i); }
  // so the next frame's upload sits ahead of the current download in the
  // copy engine's FIFO, and neither suffers head-of-line blocking behind an
  // op whose dependency is further out.
  double dma_free = 0, kernel_free = 0;
  std::vector<double> upload_end(static_cast<std::size_t>(frames), 0);
  std::vector<double> kernel_end(static_cast<std::size_t>(frames), 0);

  auto schedule_upload = [&](int i) {
    // Needs the DMA engine and its input buffer (two rotate: kernel i-2
    // must have released it).
    double ready = dma_free;
    if (i >= 2)
      ready = std::max(ready, kernel_end[static_cast<std::size_t>(i - 2)]);
    push(tl, TimelineOp::Engine::kDma, i, "up", ready, frame.upload_seconds);
    upload_end[static_cast<std::size_t>(i)] = ready + frame.upload_seconds;
    dma_free = upload_end[static_cast<std::size_t>(i)];
  };

  schedule_upload(0);
  for (int i = 0; i < frames; ++i) {
    const double kstart =
        std::max(upload_end[static_cast<std::size_t>(i)], kernel_free);
    push(tl, TimelineOp::Engine::kKernel, i, "kernel", kstart,
         frame.kernel_seconds);
    kernel_end[static_cast<std::size_t>(i)] = kstart + frame.kernel_seconds;
    kernel_free = kernel_end[static_cast<std::size_t>(i)];

    if (i + 1 < frames) schedule_upload(i + 1);

    const double dstart =
        std::max(kernel_end[static_cast<std::size_t>(i)], dma_free);
    push(tl, TimelineOp::Engine::kDma, i, "down", dstart,
         frame.download_seconds);
    dma_free = dstart + frame.download_seconds;
  }
  return tl;
}

/// "" when `got` equals `want` exactly (engine, kind, frame, start and end of
/// every op, total_seconds, ascii()); else the first difference.
std::string timeline_diff(const Timeline& got, const Timeline& want) {
  if (got.ops.size() != want.ops.size())
    return strprintf("op count %zu vs %zu", got.ops.size(), want.ops.size());
  for (std::size_t j = 0; j < got.ops.size(); ++j) {
    const TimelineOp& a = got.ops[j];
    const TimelineOp& b = want.ops[j];
    if (a.engine != b.engine || std::strcmp(a.kind, b.kind) != 0 ||
        a.frame != b.frame || a.start_seconds != b.start_seconds ||
        a.end_seconds != b.end_seconds)
      return strprintf("op %zu (%s of frame %d)", j, b.kind, b.frame);
  }
  if (got.total_seconds != want.total_seconds) return "total_seconds";
  if (got.ascii() != want.ascii()) return "ascii()";
  return "";
}

TEST(StreamSim, SchedulesMatchReferenceEventLoopBitForBit) {
  // 1200 seeded schedules of 0-64 frames; every op must match exactly.
  constexpr int kSchedules = 1200;
  for (int seed = 0; seed < kSchedules; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_real_distribution<double> ms(0.05, 4.0);
    const double up = ms(rng), down = ms(rng);
    // Kernel-bound, transfer-bound and balanced shapes in turn.
    const double factor[] = {1.5 + ms(rng), ms(rng) / 8.0, 1.0};
    const FrameSchedule f = sched(up, (up + down) * factor[seed % 3], down);
    const int n = static_cast<int>(rng() % 65);
    const std::string seq =
        timeline_diff(simulate_sequential(f, n), reference_sequential(f, n));
    EXPECT_EQ(seq, "") << "sequential, seed " << seed << ", frames " << n;
    const std::string ovl =
        timeline_diff(simulate_overlapped(f, n), reference_overlapped(f, n));
    EXPECT_EQ(ovl, "") << "overlapped, seed " << seed << ", frames " << n;
  }
}

TEST(StreamSim, SequentialMatchesClosedFormExactly) {
  const FrameSchedule f = sched(2, 5, 2);
  for (const int n : {0, 1, 3, 50}) {
    const Timeline tl = simulate_sequential(f, n);
    EXPECT_NEAR(tl.total_seconds, sequential_pipeline_seconds(f, n),
                1e-12 + 1e-12 * tl.total_seconds);
    EXPECT_EQ(tl.ops.size(), static_cast<std::size_t>(3 * n));
  }
}

class OverlapAgreement
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(OverlapAgreement, EventSimMatchesClosedForm) {
  const auto [up, kernel, down] = GetParam();
  const FrameSchedule f = sched(up, kernel, down);
  for (const int n : {1, 2, 5, 40}) {
    const Timeline tl = simulate_overlapped(f, n);
    const double closed = overlapped_pipeline_seconds(f, n);
    // The closed form idealizes steady state; the event simulation includes
    // every buffer dependency. They must agree to within a couple of frame
    // periods' worth of pipeline fill.
    EXPECT_NEAR(tl.total_seconds, closed,
                0.05 * closed + 2.0 * (f.upload_seconds + f.download_seconds))
        << "n=" << n << " up=" << up << " kernel=" << kernel;
    // And the event sim can never beat physics: at least the serialized DMA
    // work and at least the serialized kernel work.
    EXPECT_GE(tl.total_seconds,
              n * (f.upload_seconds + f.download_seconds) - 1e-12);
    EXPECT_GE(tl.total_seconds, n * f.kernel_seconds - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, OverlapAgreement,
    ::testing::Values(std::make_tuple(2.0, 8.9, 2.0),   // kernel-bound (B)
                      std::make_tuple(2.0, 5.2, 2.0),   // kernel-bound (F)
                      std::make_tuple(4.0, 1.0, 4.0),   // transfer-bound
                      std::make_tuple(3.0, 6.0, 3.0),   // balanced
                      std::make_tuple(0.1, 10.0, 0.1)), // transfers trivial
    [](const auto& desc) {
      return "case" + std::to_string(desc.index);
    });

TEST(StreamSim, OverlappedNeverSlowerThanSequential) {
  for (const double kernel_ms : {1.0, 4.0, 10.0}) {
    const FrameSchedule f = sched(2, kernel_ms, 2);
    EXPECT_LE(simulate_overlapped(f, 20).total_seconds,
              simulate_sequential(f, 20).total_seconds + 1e-12);
  }
}

TEST(StreamSim, DependenciesAreRespected) {
  const FrameSchedule f = sched(2, 5, 2);
  const Timeline tl = simulate_overlapped(f, 6);
  double upload_end[6] = {}, kernel_end[6] = {}, kernel_start[6] = {},
         down_start[6] = {};
  for (const TimelineOp& op : tl.ops) {
    if (op.kind[0] == 'u') upload_end[op.frame] = op.end_seconds;
    if (op.kind[0] == 'k') {
      kernel_start[op.frame] = op.start_seconds;
      kernel_end[op.frame] = op.end_seconds;
    }
    if (op.kind[0] == 'd') down_start[op.frame] = op.start_seconds;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_GE(kernel_start[i], upload_end[i] - 1e-12) << i;
    EXPECT_GE(down_start[i], kernel_end[i] - 1e-12) << i;
  }
}

TEST(StreamSim, SingleDmaEngineSerializesTransfers) {
  const FrameSchedule f = sched(3, 1, 3);  // transfer-heavy
  const Timeline tl = simulate_overlapped(f, 10);
  // Collect DMA intervals and verify no overlap.
  std::vector<std::pair<double, double>> dma;
  for (const TimelineOp& op : tl.ops)
    if (op.engine == TimelineOp::Engine::kDma)
      dma.emplace_back(op.start_seconds, op.end_seconds);
  std::sort(dma.begin(), dma.end());
  for (std::size_t i = 1; i < dma.size(); ++i)
    EXPECT_GE(dma[i].first, dma[i - 1].second - 1e-12);
}

TEST(StreamSim, SteadyStateKernelsAreBackToBackWhenKernelBound) {
  const FrameSchedule f = sched(1, 8, 1);
  const Timeline tl = simulate_overlapped(f, 10);
  double prev_end = -1;
  for (const TimelineOp& op : tl.ops) {
    if (op.engine != TimelineOp::Engine::kKernel || op.frame < 2) continue;
    if (prev_end >= 0) {
      EXPECT_NEAR(op.start_seconds, prev_end, 1e-9);
    }
    prev_end = op.end_seconds;
  }
}

TEST(StreamSim, AsciiGanttRendersBothRows) {
  const FrameSchedule f = sched(2, 5, 2);
  const std::string art = simulate_overlapped(f, 4).ascii(64);
  EXPECT_NE(art.find("DMA |"), std::string::npos);
  EXPECT_NE(art.find("KER |"), std::string::npos);
  EXPECT_NE(art.find('U'), std::string::npos);
  EXPECT_NE(art.find('K'), std::string::npos);
  EXPECT_NE(art.find('D'), std::string::npos);
}

TEST(StreamSim, EmptyAndInvalidInputs) {
  const FrameSchedule f = sched(1, 1, 1);
  EXPECT_DOUBLE_EQ(simulate_overlapped(f, 0).total_seconds, 0.0);
  EXPECT_THROW(simulate_overlapped(f, -1), mog::Error);
  EXPECT_THROW(simulate_sequential(f, -1), mog::Error);
  EXPECT_EQ(simulate_sequential(f, 0).ascii(), "(empty timeline)\n");
}

TEST(SharedTimeline, EnginesNeverOverlapAcrossStreams) {
  const FrameSchedule f = sched(2, 5, 2);
  SharedTimeline st;
  const int a = st.add_stream(2);
  const int b = st.add_stream(2);
  // Interleave two streams round-robin, the way the serving pump does.
  struct Lane {
    int id;
    double pending_ready = 0;
    bool has_pending = false;
    double up_end = 0;
  };
  Lane lanes[2] = {{a}, {b}};
  const int frames = 6;
  for (int r = 0; r <= frames; ++r) {
    for (Lane& l : lanes)
      if (r < frames)
        l.up_end =
            st.schedule_upload(l.id, 0.0, f.upload_seconds).end_seconds;
    for (Lane& l : lanes)
      if (l.has_pending) {
        st.schedule_download(l.id, l.pending_ready, f.download_seconds);
        l.has_pending = false;
      }
    for (Lane& l : lanes)
      if (r < frames) {
        l.pending_ready =
            st.schedule_kernel(l.id, l.up_end, f.kernel_seconds, 1)
                .end_seconds;
        l.has_pending = true;
      }
  }

  // One copy engine and one compute engine: within each, reservations are
  // granted in call order and may never overlap.
  double dma_cursor = 0, kernel_cursor = 0;
  for (const TimelineOp& op : st.timeline().ops) {
    double& cursor = op.engine == TimelineOp::Engine::kDma ? dma_cursor
                                                           : kernel_cursor;
    EXPECT_GE(op.start_seconds, cursor - 1e-12);
    cursor = op.end_seconds;
  }

  // Both streams moved 6 frames through a shared device: the makespan sits
  // between one stream's solo time and the strictly serialized bound.
  const double solo_span = simulate_overlapped(f, frames).total_seconds;
  EXPECT_GT(st.makespan_seconds(), solo_span);
  EXPECT_LE(st.makespan_seconds(), 2 * solo_span + 1e-12);
}

TEST(SharedTimeline, BufferRotationGatesUploadRunahead) {
  const FrameSchedule f = sched(1, 10, 1);
  SharedTimeline st;
  const int lane = st.add_stream(2);
  st.schedule_upload(lane, 0.0, f.upload_seconds);
  st.schedule_upload(lane, 0.0, f.upload_seconds);
  // Third upload would reuse slot 0, whose consuming kernel is not even
  // scheduled yet — the model must refuse rather than invent a time.
  EXPECT_THROW(st.schedule_upload(lane, 0.0, f.upload_seconds), mog::Error);

  // Once the kernel is scheduled, the reused slot frees at its completion;
  // the upload must wait for it even though the DMA engine is idle.
  const SharedTimeline::Window k =
      st.schedule_kernel(lane, 1e-3, f.kernel_seconds, 1);
  const SharedTimeline::Window up =
      st.schedule_upload(lane, 0.0, f.upload_seconds);
  EXPECT_GE(up.start_seconds, k.end_seconds - 1e-12);
}

TEST(SharedTimeline, ValidatesArguments) {
  SharedTimeline st;
  EXPECT_THROW(st.schedule_upload(0, 0.0, 1.0), mog::Error);  // no stream
  const int lane = st.add_stream(2);
  EXPECT_THROW(st.add_stream(0), mog::Error);
  EXPECT_THROW(st.schedule_upload(lane, -1.0, 1.0), mog::Error);
  // A kernel may not consume frames that were never uploaded.
  EXPECT_THROW(st.schedule_kernel(lane, 0.0, 1.0, 1), mog::Error);
  st.schedule_upload(lane, 0.0, 1e-3);
  EXPECT_THROW(st.schedule_kernel(lane, 0.0, 1.0, 2), mog::Error);
  EXPECT_EQ(st.num_streams(), 1);
}

}  // namespace
}  // namespace mog::gpusim
