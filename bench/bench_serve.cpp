// Serving-layer scaling through cluster::DeviceFleet, the serving API.
//
// The s<N> cases put N camera streams on one device (a fleet with
// devices = 1): every stream submits the full frame budget at t = 0 and the
// scheduler drains the backlog; the report captures the aggregate modeled
// throughput, the end-to-end latency distribution (arrival -> mask download
// complete), and the device makespan. One stream reproduces the Fig. 5(b)
// overlapped pipeline; more streams trade per-stream latency for aggregate
// throughput on the single copy engine — the serving-layer analogue of the
// paper's transfer/kernel overlap story. The d<D>s<N> cases extend the
// surface to devices x streams: the same backlog sharded across D
// single-device planes, plus device-loss runs where device 0 dies
// mid-backlog and its streams fail over live (model checkpoint carried
// across, queued frames requeued).
#include "bench_util.hpp"

#include "mog/cluster/device_fleet.hpp"
#include "mog/video/scene.hpp"

namespace mog::bench {
namespace {

struct FleetResult {
  int devices = 0;
  int streams = 0;
  bool device_loss = false;
  double makespan_seconds = 0;
  double aggregate_fps = 0;
  telemetry::Rollup latency;
  std::uint64_t masks = 0;
  std::uint64_t dropped = 0;
  cluster::MigrationStats migrations;
};

std::map<std::string, FleetResult>& fleet_results() {
  static std::map<std::string, FleetResult> r;
  return r;
}

/// One fleet run: S streams sharded over D devices, full backlog at t = 0.
/// With `kill_device_zero`, device 0 is declared lost after half of each
/// stream's frames are queued — the remainder lands on the survivors.
FleetResult run_fleet(int devices, int streams, bool kill_device_zero) {
  const ExperimentConfig base = base_config();

  cluster::FleetConfig cfg;
  cfg.devices = static_cast<std::size_t>(devices);
  cfg.serve.max_streams = streams;  // per device: room to absorb failover
  cfg.serve.queue_depth = static_cast<std::size_t>(2 * base.frames);
  cfg.serve.collect_masks = false;
  cluster::DeviceFleet<double> fleet{cfg};

  cluster::DeviceFleet<double>::GpuConfig gpu;
  gpu.width = base.width;
  gpu.height = base.height;
  gpu.level = kernels::OptLevel::kF;
  std::vector<int> ids;
  for (int s = 0; s < streams; ++s)
    ids.push_back(fleet.open_stream(gpu, nullptr, "cam" + std::to_string(s)));

  std::vector<SyntheticScene> scenes;
  for (int s = 0; s < streams; ++s) {
    SceneConfig sc;
    sc.width = base.width;
    sc.height = base.height;
    sc.seed = 1000 + static_cast<std::uint64_t>(s);
    scenes.emplace_back(sc);
  }

  const int cut = kill_device_zero ? base.frames / 2 : base.frames;
  for (int s = 0; s < streams; ++s)
    for (int t = 0; t < cut; ++t)
      fleet.submit(ids[static_cast<std::size_t>(s)],
                   scenes[static_cast<std::size_t>(s)].frame(t));
  if (kill_device_zero) {
    fleet.fail_device(0);  // queued frames migrate with their streams
    for (int s = 0; s < streams; ++s)
      for (int t = cut; t < base.frames; ++t)
        fleet.submit(ids[static_cast<std::size_t>(s)],
                     scenes[static_cast<std::size_t>(s)].frame(t));
  }
  fleet.drain();

  FleetResult r;
  r.devices = devices;
  r.streams = streams;
  r.device_loss = kill_device_zero;
  r.makespan_seconds = fleet.makespan_seconds();
  r.masks = fleet.masks_delivered();
  r.dropped = fleet.frames_dropped();
  r.aggregate_fps = static_cast<double>(r.masks) / r.makespan_seconds;
  r.latency = fleet.aggregate_latency_rollup();
  r.migrations = fleet.migration_stats();
  return r;
}

// --- streams sharing one device --------------------------------------------

std::map<int, FleetResult>& serve_results() {
  static std::map<int, FleetResult> r;
  return r;
}

void serve_streams(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  const ExperimentConfig base = base_config();

  FleetResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) result = run_fleet(1, streams, false);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  state.counters["streams"] = streams;
  state.counters["aggregate_fps"] = result.aggregate_fps;
  state.counters["latency_p99_ms"] = 1e3 * result.latency.p99;
  serve_results()[streams] = result;

  reporter().set_workload(base.width, base.height, base.frames);
  reporter()
      .add_case("s" + std::to_string(streams))
      .metric("aggregate_fps", result.aggregate_fps)
      .metric("makespan_seconds", result.makespan_seconds)
      .metric("latency_p50_ms", 1e3 * result.latency.p50)
      .metric("latency_p99_ms", 1e3 * result.latency.p99)
      .metric("latency_mean_ms", 1e3 * result.latency.mean)
      .metric("masks_delivered", static_cast<double>(result.masks))
      .metric("wall_ms", wall_ms);
}
BENCHMARK(serve_streams)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --- devices x streams, with and without device loss ------------------------

void fleet_surface(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  const int streams = static_cast<int>(state.range(1));
  const ExperimentConfig base = base_config();

  FleetResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) result = run_fleet(devices, streams, false);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  state.counters["devices"] = devices;
  state.counters["streams"] = streams;
  state.counters["aggregate_fps"] = result.aggregate_fps;
  const std::string name =
      "d" + std::to_string(devices) + "s" + std::to_string(streams);
  fleet_results()[name] = result;

  reporter().set_workload(base.width, base.height, base.frames);
  reporter()
      .add_case(name)
      .metric("aggregate_fps", result.aggregate_fps)
      .metric("makespan_seconds", result.makespan_seconds)
      .metric("latency_p50_ms", 1e3 * result.latency.p50)
      .metric("latency_p99_ms", 1e3 * result.latency.p99)
      .metric("masks_delivered", static_cast<double>(result.masks))
      .metric("wall_ms", wall_ms);
}
BENCHMARK(fleet_surface)
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void fleet_device_loss(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  const int streams = static_cast<int>(state.range(1));
  const ExperimentConfig base = base_config();

  FleetResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) result = run_fleet(devices, streams, true);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  // The fault-free run with the same shape is the latency yardstick: the
  // acceptance bar is zero admitted-frame loss and surviving-device p99
  // within 2x of fault-free.
  const std::string fault_free_name =
      "d" + std::to_string(devices) + "s" + std::to_string(streams);
  const double fault_free_p99 =
      fleet_results().count(fault_free_name) != 0
          ? fleet_results()[fault_free_name].latency.p99
          : 0.0;
  const double p99_ratio =
      fault_free_p99 > 0 ? result.latency.p99 / fault_free_p99 : 0.0;

  state.counters["devices"] = devices;
  state.counters["streams"] = streams;
  state.counters["frames_dropped"] = static_cast<double>(result.dropped);
  state.counters["p99_vs_fault_free"] = p99_ratio;
  const std::string name = "loss_" + fault_free_name;
  fleet_results()[name] = result;

  reporter().set_workload(base.width, base.height, base.frames);
  reporter()
      .add_case(name)
      .metric("aggregate_fps", result.aggregate_fps)
      .metric("makespan_seconds", result.makespan_seconds)
      .metric("latency_p99_ms", 1e3 * result.latency.p99)
      .metric("p99_vs_fault_free", p99_ratio)
      .metric("masks_delivered", static_cast<double>(result.masks))
      .metric("frames_dropped", static_cast<double>(result.dropped))
      .metric("migrations_completed",
              static_cast<double>(result.migrations.completed))
      .metric("frames_requeued",
              static_cast<double>(result.migrations.frames_requeued))
      .metric("wall_ms", wall_ms);
}
BENCHMARK(fleet_device_loss)
    ->Args({2, 4})
    ->Args({4, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void epilogue() {
  std::vector<Row> rows;
  const double base_fps = serve_results().count(1) != 0
                              ? serve_results()[1].aggregate_fps
                              : 0.0;
  for (const auto& [streams, r] : serve_results()) {
    rows.push_back(
        Row{"streams=" + std::to_string(streams),
            {static_cast<double>(streams), r.aggregate_fps,
             base_fps > 0 ? r.aggregate_fps / base_fps : 0.0,
             1e3 * r.latency.p50, 1e3 * r.latency.p99,
             1e3 * r.makespan_seconds}});
  }
  print_table(
      "Serving layer — streams sharing one device (level F, double)",
      {"streams", "agg_fps", "scaling_x", "p50_ms", "p99_ms", "makespan_ms"},
      rows,
      "one DMA + one compute engine shared round-robin; latency is modeled "
      "arrival -> mask-download-complete.");

  std::vector<Row> surface;
  std::vector<Row> loss;
  for (const auto& [name, r] : fleet_results()) {
    if (!r.device_loss) {
      surface.push_back(Row{name,
                            {static_cast<double>(r.devices),
                             static_cast<double>(r.streams), r.aggregate_fps,
                             1e3 * r.latency.p50, 1e3 * r.latency.p99,
                             1e3 * r.makespan_seconds}});
      continue;
    }
    const std::string fault_free = name.substr(std::string("loss_").size());
    const double base_p99 = fleet_results().count(fault_free) != 0
                                ? fleet_results()[fault_free].latency.p99
                                : 0.0;
    loss.push_back(Row{
        name,
        {static_cast<double>(r.devices), static_cast<double>(r.streams),
         static_cast<double>(r.masks), static_cast<double>(r.dropped),
         static_cast<double>(r.migrations.completed),
         static_cast<double>(r.migrations.frames_requeued),
         base_p99 > 0 ? r.latency.p99 / base_p99 : 0.0}});
  }
  if (!surface.empty())
    print_table(
        "Device fleet — streams sharded across devices (level F, double)",
        {"devices", "streams", "agg_fps", "p50_ms", "p99_ms", "makespan_ms"},
        surface,
        "cluster::DeviceFleet, least-loaded placement; each device is one "
        "full serve plane with its own DMA + compute engines.");
  if (!loss.empty())
    print_table(
        "Device fleet — device 0 lost at half the backlog",
        {"devices", "streams", "masks", "dropped", "migrations", "requeued",
         "p99_x"},
        loss,
        "live failover: models checkpointed across, queued frames requeued on "
        "the survivors; p99_x is surviving-stream p99 vs the fault-free run "
        "of the same shape (acceptance bar: dropped == 0, p99_x <= 2).");
}

}  // namespace
}  // namespace mog::bench

MOG_BENCH_MAIN("serve", mog::bench::epilogue)
