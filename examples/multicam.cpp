// Multi-camera fleet demo: N synthetic cameras sharded across D simulated
// GPUs through cluster::DeviceFleet. Each camera gets a classic test-scene
// preset (highway / lobby / waving trees, cycled), its own bounded queue, and
// its own resilient pipeline; the scheduler places streams least-loaded-first
// and each device's background worker interleaves uploads, kernels, and
// downloads on that device's copy engine.
//
//   $ ./examples/multicam [--devices N] [--streams N] [--frames N]
//                         [--depth N] [--drop newest|oldest] [--tiled G]
//                         [--fail-device IDX] [--fail-at-frame T]
//                         [--obs-port P] [--hold-seconds S]
//                         [--y4m FILE | --mjpeg FILE]
//
// Cameras submit frames at a 30 fps arrival cadence. With a shallow queue
// (--depth 2) and many streams you can watch the drop counters engage; with
// --tiled G each stream batches G frames per kernel launch (§IV-D).
//
// --y4m FILE / --mjpeg FILE replace the synthetic cameras with the encoded
// ingestion front end: every stream gets its own ingest::DecodeWorker
// reading FILE (Y4M container or concatenated baseline-JPEG parts), decoding
// off the pump thread, and submitting into the fleet with a pre-minted trace
// ticket — so a --trace timeline shows the decode span as the first hop of
// each frame's flow chain. Like a camera, each stream offers its frames at
// the file's rate on the wall clock (MJPEG: 30 fps), not as fast as they
// decode. Frame dimensions come from the file header; --frames caps the
// frames pulled per stream.
//
// --fail-device IDX declares device IDX lost mid-run (at --fail-at-frame T,
// default half the frame budget): its streams checkpoint their MoG models,
// fail over to the surviving devices, and keep serving — watch the
// mog_fleet_migrations_total counters move on /metrics.
//
// --obs-port P exposes the fleet's observability plane (GET /metrics,
// /healthz, /statusz, /profilez) on 127.0.0.1:P for the fleet's lifetime
// (P=0 picks an ephemeral port, printed at startup) and mirrors structured
// logs to stderr as JSON lines. Per-stream series and health lines carry the
// fleet stream id, whichever device hosts the stream; at exit the demo prints
// the same /statusz page. --hold-seconds S keeps the process (and thus the
// endpoints) alive S seconds after the run so a scraper can collect the final
// counters or grab a sampling profile (/profilez?seconds=1&hz=997).
//
// Masks, mask counts, and the modeled makespan are deterministic, but the
// latency percentiles vary run to run: which scheduler round ingests a
// frame depends on how live submissions interleave with the background
// worker — exactly as in a real server. For bit-reproducible numbers use
// the synchronous drain() path (tests/test_cluster.cpp, bench_serve).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/ingest/decode_worker.hpp"
#include "mog/ingest/mjpeg.hpp"
#include "mog/ingest/y4m.hpp"
#include "mog/telemetry/log.hpp"
#include "mog/telemetry/telemetry.hpp"
#include "mog/video/scene.hpp"

namespace {

/// Bad command line: one line naming the reason, exit 2 (the usage is in
/// the comment at the top of this file).
[[noreturn]] void bad_input(const std::string& why) {
  std::fprintf(stderr, "multicam: %s\n", why.c_str());
  std::exit(2);
}

// Open a fresh FrameReader over the ingest file (one per stream: each
// DecodeWorker owns its own cursor into the same bytes).
std::unique_ptr<mog::ingest::FrameReader> open_reader(
    const std::string& y4m_path, const std::string& mjpeg_path) {
  if (!y4m_path.empty())
    return std::make_unique<mog::ingest::Y4mReader>(
        std::make_unique<mog::ingest::FileSource>(y4m_path));
  return std::make_unique<mog::ingest::MjpegReader>(
      std::make_unique<mog::ingest::FileSource>(mjpeg_path));
}

// Frame geometry and cadence of the encoded stream: Y4M carries both in its
// header; MJPEG parts carry geometry in their SOF0 (cadence is modeled).
struct ProbedStream {
  int width = 0;
  int height = 0;
  double fps = 30.0;
};

ProbedStream probe_ingest(const std::string& y4m_path,
                          const std::string& mjpeg_path) {
  ProbedStream p;
  if (!y4m_path.empty()) {
    const mog::ingest::Y4mReader reader{
        std::make_unique<mog::ingest::FileSource>(y4m_path)};
    p.width = reader.header().width;
    p.height = reader.header().height;
    p.fps = reader.header().fps();
  } else {
    mog::ingest::MjpegReader reader{
        std::make_unique<mog::ingest::FileSource>(mjpeg_path)};
    mog::FrameU8 first;
    if (!reader.next(first))
      throw mog::ingest::IngestError{mog::ingest::IngestErrorKind::kTruncated,
                                     "MJPEG file holds no frames"};
    p.width = first.width();
    p.height = first.height();
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) try {
  int devices = 2;
  int streams = 4;
  int frames = 48;
  int depth = 8;
  int tiled_group = 0;     // 0 = per-frame direct kernels
  int fail_device = -1;    // -1 = no injected device loss
  int fail_at_frame = -1;  // -1 = half the frame budget
  int obs_port = -1;       // -1 = observability endpoints off
  int hold_seconds = 0;    // keep the endpoints up after the run
  std::string y4m_path;    // encoded ingestion instead of synthetic scenes
  std::string mjpeg_path;
  std::string trace_path;  // Chrome trace dump (decode spans + flow chains)
  mog::cluster::DropPolicy drop = mog::cluster::DropPolicy::kDropNewest;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* what) -> std::string {
      if (i + 1 >= argc) bad_input(std::string{what} + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--devices")
        devices = mog::parse_int(need("--devices"), 1, 16, "--devices");
      else if (arg == "--streams")
        streams = mog::parse_int(need("--streams"), 1, 16, "--streams");
      else if (arg == "--frames")
        frames = mog::parse_int(need("--frames"), 1, 1 << 20, "--frames");
      else if (arg == "--depth")
        depth = mog::parse_int(need("--depth"), 1, 1 << 16, "--depth");
      else if (arg == "--tiled")
        tiled_group = mog::parse_int(need("--tiled"), 1, 64, "--tiled");
      else if (arg == "--fail-device")
        fail_device =
            mog::parse_int(need("--fail-device"), 0, 15, "--fail-device");
      else if (arg == "--fail-at-frame")
        fail_at_frame = mog::parse_int(need("--fail-at-frame"), 0, 1 << 20,
                                       "--fail-at-frame");
      else if (arg == "--obs-port")
        obs_port = mog::parse_int(need("--obs-port"), 0, 65535, "--obs-port");
      else if (arg == "--hold-seconds")
        hold_seconds =
            mog::parse_int(need("--hold-seconds"), 0, 3600, "--hold-seconds");
      else if (arg == "--y4m")
        y4m_path = need("--y4m");
      else if (arg == "--mjpeg")
        mjpeg_path = need("--mjpeg");
      else if (arg == "--trace")
        trace_path = need("--trace");
      else if (arg == "--drop") {
        const std::string v = need("--drop");
        if (v == "newest")
          drop = mog::cluster::DropPolicy::kDropNewest;
        else if (v == "oldest")
          drop = mog::cluster::DropPolicy::kDropOldest;
        else
          bad_input("--drop: invalid value \"" + v + "\" (newest|oldest)");
      } else {
        bad_input("unknown flag " + arg);
      }
    } catch (const mog::Error& e) {
      bad_input(e.what());
    }
  }
  if (fail_device >= devices)
    bad_input("--fail-device must name one of the --devices");
  if (fail_device >= 0 && devices < 2)
    bad_input("--fail-device needs at least 2 devices to fail over to");
  if (fail_at_frame < 0) fail_at_frame = frames / 2;
  if (!y4m_path.empty() && !mjpeg_path.empty())
    bad_input("--y4m and --mjpeg are mutually exclusive");
  const bool ingest_mode = !y4m_path.empty() || !mjpeg_path.empty();

  mog::telemetry::TraceRecorder trace;
  if (!trace_path.empty()) mog::telemetry::set_tracer(&trace);

  // With the observability plane on, mirror the fleet's structured logs to
  // stderr; the sink is unowned, so it must outlive the fleet below.
  mog::telemetry::StderrSink log_sink;
  if (obs_port >= 0) mog::telemetry::default_logger().add_sink(&log_sink);

  mog::cluster::FleetConfig cfg;
  cfg.devices = static_cast<std::size_t>(devices);
  cfg.serve.max_streams = streams;  // per device: headroom to absorb failover
  cfg.serve.queue_depth = static_cast<std::size_t>(depth);
  cfg.serve.drop_policy = drop;
  cfg.serve.collect_masks = false;
  cfg.obs_port = obs_port;
  mog::cluster::DeviceFleet<float> fleet{cfg};
  if (obs_port >= 0)
    std::printf("observability: http://127.0.0.1:%d/metrics (also /healthz, "
                "/statusz, /profilez)\n",
                fleet.obs_port());

  const mog::SceneConfig presets[] = {
      mog::SceneConfig::highway(192, 108),
      mog::SceneConfig::lobby(192, 108),
      mog::SceneConfig::waving_trees(192, 108),
  };

  ProbedStream probed;
  if (ingest_mode) {
    probed = probe_ingest(y4m_path, mjpeg_path);
    std::printf("ingest: %s %dx%d @ %.1f fps x%d streams\n",
                !y4m_path.empty() ? y4m_path.c_str() : mjpeg_path.c_str(),
                probed.width, probed.height, probed.fps, streams);
  }

  std::vector<mog::SyntheticScene> scenes;
  std::vector<int> ids;
  for (int s = 0; s < streams; ++s) {
    mog::SceneConfig sc = presets[static_cast<std::size_t>(s) % 3];
    sc.seed += static_cast<std::uint64_t>(s);
    if (!ingest_mode) scenes.emplace_back(sc);

    mog::cluster::DeviceFleet<float>::GpuConfig gpu;
    gpu.width = ingest_mode ? probed.width : sc.width;
    gpu.height = ingest_mode ? probed.height : sc.height;
    if (tiled_group > 0) {
      gpu.tiled = true;
      gpu.tiled_config.frame_group = tiled_group;
    }
    ids.push_back(fleet.open_stream(gpu, nullptr, "cam" + std::to_string(s)));
  }

  fleet.start();
  if (ingest_mode) {
    // Encoded ingestion: one DecodeWorker per stream, each with its own
    // cursor into the file. Decode happens on the worker threads — never the
    // pump thread — and every frame enters the fleet with the pre-minted
    // ticket whose flow chain began at the decode span, no earlier than its
    // arrival stamp on the wall clock. The --fail-device injection still
    // applies, timed off the same clock.
    using Clock = std::chrono::steady_clock;
    const auto at = [epoch = Clock::now()](double seconds) {
      return epoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    };
    std::vector<std::unique_ptr<mog::ingest::DecodeWorker>> workers;
    for (int s = 0; s < streams; ++s) {
      const int id = ids[static_cast<std::size_t>(s)];
      const double stagger = s * 1e-4;
      mog::ingest::DecodeWorkerConfig wc;
      wc.fps = probed.fps;
      wc.max_frames = static_cast<std::uint64_t>(frames);
      wc.stream_id = id;
      workers.push_back(std::make_unique<mog::ingest::DecodeWorker>(
          open_reader(y4m_path, mjpeg_path),
          [&fleet, id, stagger, at](mog::FrameU8 frame, double arrival,
                                    std::uint64_t ticket) {
            std::this_thread::sleep_until(at(arrival + stagger));
            return fleet.submit(id, std::move(frame), arrival + stagger,
                                ticket);
          },
          wc));
    }
    std::unique_ptr<std::thread> failer;
    if (fail_device >= 0)
      failer = std::make_unique<std::thread>([&] {
        // Fail the device when the cameras reach --fail-at-frame.
        std::this_thread::sleep_until(at(fail_at_frame / probed.fps));
        std::printf("failing device %d: streams migrate live\n", fail_device);
        fleet.fail_device(fail_device);
      });
    for (auto& w : workers) w->start();
    for (auto& w : workers) w->join();
    if (failer) failer->join();
    mog::ingest::DecodeStats total;
    for (auto& w : workers) {
      if (w->failed())
        std::fprintf(stderr, "multicam: ingest error: %s\n",
                     w->error().c_str());
      const mog::ingest::DecodeStats st = w->stats();
      total.frames_decoded += st.frames_decoded;
      total.frames_rejected += st.frames_rejected;
      total.bytes_consumed += st.bytes_consumed;
      total.decode_seconds += st.decode_seconds;
    }
    std::printf(
        "ingest: decoded %llu frames (%llu rejected at ingress) from %llu "
        "compressed bytes in %.3f s decode time (%.1f fps/worker)\n",
        static_cast<unsigned long long>(total.frames_decoded),
        static_cast<unsigned long long>(total.frames_rejected),
        static_cast<unsigned long long>(total.bytes_consumed),
        total.decode_seconds,
        total.decode_seconds > 0
            ? static_cast<double>(total.frames_decoded) / total.decode_seconds
            : 0.0);
  } else {
    // 30 fps cameras: camera s delivers frame t at t/30 s (staggered a
    // little so arrivals don't tie). Each device's background worker drains
    // its queues as the modeled hardware allows; a shallow --depth makes the
    // drop policy visible.
    for (int t = 0; t < frames; ++t) {
      if (fail_device >= 0 && t == fail_at_frame) {
        std::printf("failing device %d at frame %d: streams migrate live\n",
                    fail_device, t);
        fleet.fail_device(fail_device);
      }
      for (int s = 0; s < streams; ++s)
        fleet.submit(ids[static_cast<std::size_t>(s)],
                     scenes[static_cast<std::size_t>(s)].frame(t),
                     t / 30.0 + s * 1e-4);
    }
  }
  fleet.stop();
  fleet.drain();

  std::printf("%s", fleet.statusz().c_str());
  const mog::telemetry::Rollup lat = fleet.aggregate_latency_rollup();
  std::printf(
      "aggregate: %llu masks in %.3f s modeled  (%.1f fps, p99 latency %.2f "
      "ms, %llu dropped)\n",
      static_cast<unsigned long long>(fleet.masks_delivered()),
      fleet.makespan_seconds(),
      static_cast<double>(fleet.masks_delivered()) / fleet.makespan_seconds(),
      1e3 * lat.p99,
      static_cast<unsigned long long>(fleet.frames_dropped()));
  if (hold_seconds > 0) {
    std::printf("holding %d s for scrapers...\n", hold_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(hold_seconds));
  }
  if (!trace_path.empty()) {
    mog::telemetry::set_tracer(nullptr);
    trace.write(trace_path);
    std::printf("trace: %zu events -> %s (chrome://tracing)\n", trace.size(),
                trace_path.c_str());
  }
  if (obs_port >= 0) mog::telemetry::default_logger().remove_sink(&log_sink);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "multicam: %s\n", e.what());
  return 1;
}
