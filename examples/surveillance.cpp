// Video-surveillance pipeline: the paper's motivating application, run the
// way a deployment actually has to run — behind the fault-tolerant wrapper.
// A seeded fault injector corrupts frames at the video layer and fails DMA
// transfers and kernel launches on the simulated device; the resilient
// pipeline retries, salvages, checkpoints, and (if the device keeps dying)
// degrades tiled -> direct -> CPU while masks keep flowing. Detections are
// extracted from the masks with a small connected-components pass and scored
// against the scene's ground truth.
//
//   $ ./examples/surveillance [frames] [output_dir] [fault_rate]
//
// `fault_rate` (default 0.02, in [0, 1]) drives the transfer/launch fault
// probability; pass 0 for a fault-free run. `output_dir` must exist. A bad
// argument prints one line and exits 2.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mog/common/strutil.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/fault/resilient_pipeline.hpp"
#include "mog/metrics/confusion.hpp"
#include "mog/telemetry/log.hpp"
#include "mog/telemetry/telemetry.hpp"
#include "mog/video/pnm_io.hpp"
#include "mog/video/scene.hpp"

namespace {

struct Blob {
  int min_x, min_y, max_x, max_y;
  int area;
};

/// 4-connected components over a binary mask; tiny blobs are noise and get
/// dropped.
std::vector<Blob> find_blobs(const mog::FrameU8& mask, int min_area) {
  const int w = mask.width(), h = mask.height();
  std::vector<int> label(static_cast<std::size_t>(w) * h, -1);
  std::vector<Blob> blobs;
  std::vector<std::size_t> stack;
  for (std::size_t start = 0; start < mask.size(); ++start) {
    if (mask[start] == 0 || label[start] >= 0) continue;
    const int id = static_cast<int>(blobs.size());
    Blob blob{w, h, 0, 0, 0};
    stack.assign(1, start);
    label[start] = id;
    while (!stack.empty()) {
      const std::size_t p = stack.back();
      stack.pop_back();
      const int x = static_cast<int>(p) % w;
      const int y = static_cast<int>(p) / w;
      blob.min_x = std::min(blob.min_x, x);
      blob.max_x = std::max(blob.max_x, x);
      blob.min_y = std::min(blob.min_y, y);
      blob.max_y = std::max(blob.max_y, y);
      ++blob.area;
      const int dx[] = {1, -1, 0, 0}, dy[] = {0, 0, 1, -1};
      for (int d = 0; d < 4; ++d) {
        const int nx = x + dx[d], ny = y + dy[d];
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        const std::size_t q = static_cast<std::size_t>(ny) * w + nx;
        if (mask[q] != 0 && label[q] < 0) {
          label[q] = id;
          stack.push_back(q);
        }
      }
    }
    blobs.push_back(blob);
  }
  std::erase_if(blobs, [min_area](const Blob& b) { return b.area < min_area; });
  return blobs;
}

}  // namespace

int main(int argc, char** argv) try {
  int frames = 80;
  std::string out_dir = ".";
  double fault_rate = 0.02;
  try {
    if (argc > 4) throw mog::Error{"too many arguments"};
    if (argc > 1) frames = mog::parse_int(argv[1], 1, 1000000, "frames");
    if (argc > 2) out_dir = argv[2];
    if (argc > 3)
      fault_rate = mog::parse_double(argv[3], 0.0, 1.0, "fault_rate");
    if (!std::filesystem::is_directory(out_dir))
      throw mog::Error{"output_dir is not an existing directory: " + out_dir};
  } catch (const mog::Error& e) {
    std::fprintf(stderr,
                 "error: %s (usage: surveillance [frames] [output_dir] "
                 "[fault_rate])\n",
                 e.what());
    return 2;
  }

  mog::SceneConfig scene_cfg;
  scene_cfg.width = 640;
  scene_cfg.height = 360;
  scene_cfg.num_objects = 4;
  scene_cfg.seed = 2026;
  scene_cfg.texture_fraction = 0.3;  // moderately busy scene
  const mog::SyntheticScene camera{scene_cfg};

  // Tiled GPU variant (the paper's §IV-D): masks arrive one frame group at
  // a time, which is the realistic deployment trade-off between throughput
  // and latency.
  mog::fault::ResilientPipeline<double>::GpuConfig gpu_cfg;
  gpu_cfg.width = scene_cfg.width;
  gpu_cfg.height = scene_cfg.height;
  gpu_cfg.tiled = true;
  gpu_cfg.tiled_config.frame_group = 8;

  // Deterministic fault model: DMA transfers and launches fail at
  // fault_rate, frames arrive corrupted or not at all at half that rate.
  mog::fault::FaultConfig fault_cfg;
  fault_cfg.seed = 0xbad0cafe;
  fault_cfg.upload_fault_prob = fault_rate;
  fault_cfg.download_fault_prob = fault_rate;
  fault_cfg.launch_fault_prob = fault_rate / 2;
  fault_cfg.frame_corrupt_prob = fault_rate / 2;
  fault_cfg.frame_drop_prob = fault_rate / 4;
  auto injector = std::make_shared<mog::fault::FaultInjector>(fault_cfg);

  // Telemetry: trace every upload/kernel/download span plus the recovery
  // events, and aggregate per-launch profiler counters. Installed before the
  // pipeline so its device picks up the counter sink at construction.
  mog::telemetry::TraceRecorder trace;
  mog::telemetry::CounterRegistry counters;
  mog::telemetry::set_tracer(&trace);
  mog::telemetry::set_counters(&counters);

  // Structured logs to stderr: the fault layer narrates every retry,
  // ladder step, and rollback as one JSON line per event.
  mog::telemetry::StderrSink log_sink;
  mog::telemetry::default_logger().add_sink(&log_sink);

  mog::fault::ResilienceConfig res_cfg;
  res_cfg.checkpoint_interval = 64;
  res_cfg.health_check_interval = 16;
  mog::fault::ResilientPipeline<double> pipeline{gpu_cfg, res_cfg, injector};

  mog::ConfusionCounts totals;
  mog::FrameU8 frame, mask, truth;
  int detections = 0, truth_frames = 0, last_scored = -1;

  auto consume = [&](int t, const mog::FrameU8& m) {
    if (t < 32) return;  // let the model warm up before scoring
    camera.render(t, nullptr, &truth);
    totals += compare_masks(m, truth);
    ++truth_frames;
    // Qualified: ADL would also find mog::find_blobs (a different helper).
    const auto blobs = ::find_blobs(m, /*min_area=*/60);
    detections += static_cast<int>(blobs.size());
    if (t == frames - 1) {
      std::printf("frame %d: %zu detections\n", t, blobs.size());
      for (const Blob& b : blobs)
        std::printf("  bbox (%d,%d)-(%d,%d), area %d\n", b.min_x, b.min_y,
                    b.max_x, b.max_y, b.area);
      mog::write_pgm(out_dir + "/surveillance_frame.pgm", frame);
      mog::write_pgm(out_dir + "/surveillance_mask.pgm", m);
      mog::write_pgm(out_dir + "/surveillance_background.pgm",
                     pipeline.background());
    }
    last_scored = t;
  };

  for (int t = 0; t < frames; ++t) {
    frame = camera.frame(t);
    // Never throws on an injected fault: the wrapper retries, reuses the
    // last mask, or steps down the degradation ladder.
    if (pipeline.process(frame, mask)) consume(t, mask);
  }
  std::vector<mog::FrameU8> rest;
  if (pipeline.flush(rest) > 0 && last_scored < frames - 1)
    consume(frames - 1, rest.back());

  std::printf(
      "\nsummary over %d scored frames: precision %.2f, recall %.2f, F1 "
      "%.2f, %d total detections\n",
      truth_frames, totals.precision(), totals.recall(), totals.f1(),
      detections);
  std::printf("execution tier at exit: %s\n",
              mog::fault::to_string(pipeline.tier()));
  std::printf("recovery: %s\n", pipeline.recovery_stats().summary().c_str());
  const auto* gpu = pipeline.gpu_pipeline();
  if (gpu != nullptr && gpu->frames_processed() > 0) {
    std::printf(
        "tiled GPU pipeline: %.2f ms/frame kernel (modeled), occupancy "
        "%.0f%%, modeled total %.2f s\n",
        1e3 * gpu->per_frame_kernel_timing().total_seconds,
        100.0 * gpu->occupancy().achieved, gpu->modeled_seconds());
  }

  const std::string trace_path = out_dir + "/surveillance_trace.json";
  trace.write(trace_path);
  std::printf("\ntelemetry: %zu trace events -> %s (open in ui.perfetto.dev "
              "or chrome://tracing)\n",
              trace.size(), trace_path.c_str());
  std::printf("%s", counters.summary(static_cast<std::uint64_t>(
                                         truth_frames)).c_str());
  const std::string counters_path = out_dir + "/surveillance_counters.json";
  mog::telemetry::write_json_file(counters_path, counters.to_json());
  std::printf("\ncounter dump -> %s (digest with `mogprof %s`)\n",
              counters_path.c_str(), counters_path.c_str());
  mog::telemetry::default_logger().remove_sink(&log_sink);
  mog::telemetry::set_tracer(nullptr);
  mog::telemetry::set_counters(nullptr);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
