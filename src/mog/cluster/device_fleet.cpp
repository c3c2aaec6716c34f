#include "mog/cluster/device_fleet.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "mog/common/strutil.hpp"
#include "mog/cpu/model_io.hpp"
#include "mog/fault/model_health.hpp"
#include "mog/telemetry/flame.hpp"
#include "mog/telemetry/prometheus.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::cluster {

namespace {

/// Degradation strikes (streams stepping down the recovery ladder) charged
/// to a device before it is declared lost and its streams migrate.
constexpr int kDeviceLossStrikes = 1;

/// Recovery actions exported per stream, as `action=` labels.
using fault::RecoveryStats;
constexpr std::pair<const char*, std::uint64_t RecoveryStats::*>
    kRecoveryActions[] = {
        {"retry", &RecoveryStats::retries},
        {"mask_reused", &RecoveryStats::masks_reused},
        {"frame_lost", &RecoveryStats::frames_lost},
        {"checkpoint", &RecoveryStats::checkpoints},
        {"rollback", &RecoveryStats::rollbacks},
        {"degradation", &RecoveryStats::degradations},
        {"deadline", &RecoveryStats::deadline_exceeded},
};

}  // namespace

void FleetConfig::validate() const {
  MOG_CHECK(devices >= 1, "a fleet needs at least one device");
  MOG_CHECK(obs_port <= 65535, "obs_port out of range");
  serve.validate();
}

std::string MigrationStats::summary() const {
  return strprintf(
      "migrations: %llu attempted, %llu completed, %llu checkpoint-rejected "
      "(%llu retried, %llu reset), %llu capacity-exhausted, "
      "%llu frames requeued",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(checkpoint_rejected),
      static_cast<unsigned long long>(snapshot_retries),
      static_cast<unsigned long long>(models_reset),
      static_cast<unsigned long long>(capacity_exhausted),
      static_cast<unsigned long long>(frames_requeued));
}

template <typename T>
DeviceFleet<T>::DeviceFleet(const FleetConfig& config) : config_(config) {
  config_.validate();
  for (int d = 0; d < config_.devices; ++d) {
    nodes_.push_back(
        std::unique_ptr<DeviceNode<T>>(new DeviceNode<T>(*this, d)));
    scheduler_.add_device(d);
  }
  start_obs_server();
}

template <typename T>
DeviceFleet<T>::~DeviceFleet() {
  obs_http_.stop();  // no scrape may touch a half-destroyed fleet
  stop();
}

template <typename T>
void DeviceFleet<T>::start_obs_server() {
  if (config_.obs_port < 0) return;
  obs_http_.handle("/metrics", [this](const telemetry::HttpRequest&) {
    telemetry::HttpResponse r;
    r.content_type = telemetry::kPrometheusContentType;
    r.body = metrics_text();
    return r;
  });
  obs_http_.handle("/healthz", [this](const telemetry::HttpRequest&) {
    telemetry::HttpResponse r;
    std::string detail;
    const bool ok = healthz(detail);
    r.status = ok ? 200 : 503;
    r.body = (ok ? "ok\n" : "unhealthy\n") + detail;
    return r;
  });
  obs_http_.handle("/statusz", [this](const telemetry::HttpRequest&) {
    telemetry::HttpResponse r;
    r.body = statusz();
    return r;
  });
  // The sampler is process-global, so one capture covers every device's
  // pump and executor threads ("dev<i>.pump", "exec<w>") at once.
  obs_http_.handle("/profilez", telemetry::profilez_response);
  obs_http_.start(config_.obs_port);
  log_.info("fleet observability endpoint up",
            {{"port", obs_http_.port()},
             {"endpoints", "/metrics /healthz /statusz /profilez"}});
}

template <typename T>
void DeviceFleet<T>::set_device_injector(
    int d, std::shared_ptr<fault::FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  node_at(d).injector_ = std::move(injector);
}

template <typename T>
std::vector<DeviceLoad> DeviceFleet<T>::loads_locked(
    int exclude_device) const {
  std::vector<DeviceLoad> loads;
  loads.reserve(nodes_.size());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode<T>& node = *nodes_[d];
    DeviceLoad l;
    l.device = static_cast<int>(d);
    l.alive = node.alive_ && l.device != exclude_device;
    l.open_streams = node.open_streams();
    l.bytes_in_use = node.device_bytes_in_use();
    loads.push_back(l);
  }
  return loads;
}

template <typename T>
int DeviceFleet<T>::admit_locked(StreamRec<T>& rec,
                                 typename DeviceNode<T>::Admission& admission,
                                 std::string& refusal, int exclude_device) {
  std::vector<DeviceLoad> loads = loads_locked(exclude_device);
  while (true) {
    const int d = scheduler_.pick(rec.key, loads);
    if (d < 0) return -1;
    DeviceNode<T>& node = node_at(d);
    // A stream-scoped injector (sick camera) travels with the stream;
    // otherwise the stream joins the hosting device's fault domain.
    std::shared_ptr<fault::FaultInjector> inj =
        rec.own_injector != nullptr ? rec.own_injector : node.injector_;
    try {
      admission = node.admit(rec, std::move(inj));
      return d;
    } catch (const AdmissionError& e) {
      // This device is full; strike it from the candidate set and retry.
      refusal = strprintf("device %d: %s", d, e.what());
      for (DeviceLoad& l : loads)
        if (l.device == d) l.alive = false;
    }
  }
}

template <typename T>
int DeviceFleet<T>::open_stream(const GpuConfig& gpu_config,
                                std::shared_ptr<fault::FaultInjector> injector,
                                std::string placement_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(recs_.size());
  auto rec = std::make_unique<StreamRec<T>>(
      id, gpu_config, std::move(injector),
      placement_key.empty() ? strprintf("stream-%d", id)
                            : std::move(placement_key),
      config_.serve);
  typename DeviceNode<T>::Admission admission;
  std::string refusal;
  const int d = admit_locked(*rec, admission, refusal);
  if (d < 0)
    throw AdmissionError{strprintf(
        "stream refused: every alive device is at capacity (%d devices, "
        "%d alive)%s%s",
        static_cast<int>(nodes_.size()), alive_locked(),
        refusal.empty() ? "" : "; ", refusal.c_str())};
  recs_.push_back(std::move(rec));
  node_at(d).host(*recs_.back(), std::move(admission), nullptr);
  log_.info("stream placed",
            {{"stream", id}, {"device", d}, {"key", recs_.back()->key}});
  return id;
}

template <typename T>
void DeviceFleet<T>::close_stream(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec<T>& rec = rec_at(id);
  MOG_CHECK(rec.open, "stream already closed");
  node_at(rec.device).release(rec, false);
  rec.open = false;
}

template <typename T>
bool DeviceFleet<T>::submit(int id, FrameU8 frame, double arrival_seconds,
                            std::uint64_t ticket) {
  // Hold the fleet lock through the node call so the stream cannot be
  // mid-migration between the routing decision and the enqueue.
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec<T>& rec = rec_at(id);
  MOG_CHECK(rec.open, "submit to a closed stream");
  DeviceNode<T>& node = node_at(rec.device);
  const bool accepted =
      node.submit(rec, std::move(frame), arrival_seconds, ticket);
  node.wake();
  return accepted;
}

template <typename T>
int DeviceFleet<T>::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  int ingested = 0;
  std::vector<std::vector<int>> degraded(nodes_.size());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    PumpRound round = nodes_[d]->pump();
    ingested += round.ingested;
    degraded[d] = std::move(round.degraded);
  }
  for (std::size_t d = 0; d < nodes_.size(); ++d)
    charge_strikes_locked(static_cast<int>(d), degraded[d]);
  return ingested;
}

template <typename T>
void DeviceFleet<T>::drain() {
  // Two consecutive idle rounds: a migration at the end of a round can move
  // queued frames onto a device whose ingest phase already ran, so one idle
  // round is not proof the fleet is dry.
  int idle = 0;
  while (idle < 2) idle = pump() > 0 ? 0 : idle + 1;
}

template <typename T>
void DeviceFleet<T>::start() {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(!running_, "fleet pumps already running");
  log_.info("fleet starting",
            {{"devices", static_cast<int>(nodes_.size())}});
  stop_requested_.store(false);
  running_ = true;
  for (std::size_t d = 0; d < nodes_.size(); ++d)
    nodes_[d]->pump_thread_ =
        std::thread([this, d] { pump_loop(static_cast<int>(d)); });
}

template <typename T>
void DeviceFleet<T>::pump_loop(int d) {
  telemetry::prof_set_thread_name(strprintf("dev%d.pump", d).c_str());
  DeviceNode<T>& node = node_at(d);
  while (true) {
    // Read before the round: a wake() from here on makes wait() return.
    const std::uint32_t seen = node.wakeups_.load();
    if (stop_requested_.load()) return;
    const PumpRound round = node.pump();
    if (!round.degraded.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      charge_strikes_locked(d, round.degraded);
    }
    // A round that ingested frames owes their downloads to the next one; an
    // idle round owes nothing, so sleeping after it strands no mask.
    if (round.ingested > 0) continue;
    const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
    node.wakeups_.wait(seen);
  }
}

template <typename T>
void DeviceFleet<T>::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_.store(true);
  }
  for (const auto& node : nodes_) node->wake();
  for (const auto& node : nodes_) node->pump_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

template <typename T>
void DeviceFleet<T>::fail_device(int d) {
  std::lock_guard<std::mutex> lock(mu_);
  declare_lost_locked(d, "fail_device");
}

template <typename T>
void DeviceFleet<T>::charge_strikes_locked(int d,
                                           const std::vector<int>& degraded) {
  // A stream stepping down the recovery ladder is evidence against the
  // device hosting it (launch/transfer failures are device-side in this
  // model; frame-level corruption never degrades) — unless the stream runs
  // under its own injector: a sick camera's faults follow it from device
  // to device, so they say nothing about any of them, and the stream rides
  // its own ladder in place. Charging only changes this device's count, so
  // charging and declaring device by device migrates exactly as charging
  // every device first would.
  DeviceNode<T>& node = node_at(d);
  if (!node.alive_) return;
  int charged = 0;
  for (const int id : degraded)
    if (rec_at(id).own_injector == nullptr) ++charged;
  if (charged == 0) return;
  node.strikes_ += charged;
  log_.warn("degradation strike",
            {{"device", d},
             {"streams_degraded", charged},
             {"strikes", node.strikes_}});
  if (node.strikes_ >= kDeviceLossStrikes)
    declare_lost_locked(d, "degradation strikes");
}

template <typename T>
void DeviceFleet<T>::declare_lost_locked(int d, const char* reason) {
  DeviceNode<T>& node = node_at(d);
  if (!node.alive_) return;
  node.alive_ = false;
  log_.error("device lost",
             {{"device", d}, {"reason", reason}, {"strikes", node.strikes_}});
  for (std::size_t i = 0; i < recs_.size(); ++i)
    if (recs_[i]->open && recs_[i]->device == d)
      migrate_stream_locked(static_cast<int>(i));
}

template <typename T>
bool DeviceFleet<T>::migrate_stream_locked(int id) {
  ++migration_stats_.attempted;
  StreamRec<T>& rec = *recs_[static_cast<std::size_t>(id)];
  const int src_d = rec.device;
  DeviceNode<T>& src = node_at(src_d);

  // 1. Reserve on a healthy device first: build the stream's new pipeline
  //    and charge that device's budget. When nobody can take the stream it
  //    stays untouched and rides its per-stream ladder in place.
  typename DeviceNode<T>::Admission admission;
  std::string refusal;
  const int dst_d = admit_locked(rec, admission, refusal, src_d);
  if (dst_d < 0) {
    ++migration_stats_.capacity_exhausted;
    log_.warn("migration refused: no device has capacity",
              {{"stream", id}, {"device", src_d}, {"refusal", refusal}});
    return false;
  }
  DeviceNode<T>& dst = node_at(dst_d);

  // 2. Flush the stream on the source in one node step: its partial tiled
  //    group and owed masks are delivered, its model is copied to the host,
  //    and its pipeline leaves the source. Its queued frames wait in its
  //    queue, in order.
  MogModel<T> host_copy = src.release(rec, true);
  const fault::ExecutionTier victim_tier = rec.tier;  // as the source left it
  const std::size_t queued = rec.queue.size();

  // 3. Snapshot the host copy through the MOGM v2 CRC checkpoint encoding. A
  //    corrupt payload is rejected by type; retry once by re-encoding the
  //    host copy before falling back to a fresh model.
  std::unique_ptr<MogModel<T>> model;
  const auto snapshot = [&] {
    std::vector<std::uint8_t> payload = serialize_model(host_copy);
    if (snapshot_corruptor_) snapshot_corruptor_(payload);
    try {
      model = std::make_unique<MogModel<T>>(deserialize_model<T>(
          payload.data(), payload.size(), rec.gpu.params,
          "migration snapshot"));
      return true;
    } catch (const ModelIoError& e) {
      ++migration_stats_.checkpoint_rejected;
      log_.error("migration snapshot rejected",
                 {{"stream", id}, {"error", e.what()}});
      return false;
    }
  };
  if (!snapshot()) {
    ++migration_stats_.snapshot_retries;
    snapshot();
  }
  host_copy = MogModel<T>{};  // free the host copy before the target upload
  if (model == nullptr) {
    ++migration_stats_.models_reset;
    log_.error("snapshot unrecoverable; stream resumes with a fresh model",
               {{"stream", id}});
  }

  // 4. Resume on the target: load the restored model and re-point the
  //    stream, whose lane there turns live; wake the target's pump.
  dst.host(rec, std::move(admission), model.get());
  dst.wake();

  ++rec.migrations;
  migration_stats_.frames_requeued += queued;
  ++src.migrations_out_;
  ++dst.migrations_in_;
  ++migration_stats_.completed;
  log_.info("stream migrated",
            {{"stream", id},
             {"from", src_d},
             {"to", dst_d},
             {"frames_requeued", static_cast<std::int64_t>(queued)},
             {"victim_tier", fault::to_string(victim_tier)},
             {"model", model != nullptr ? "restored" : "reset"}});
  return true;
}

template <typename T>
int DeviceFleet<T>::devices() const {
  return static_cast<int>(nodes_.size());
}

template <typename T>
int DeviceFleet<T>::alive_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_locked();
}

template <typename T>
int DeviceFleet<T>::alive_locked() const {
  return static_cast<int>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const auto& node) { return node->alive_; }));
}

template <typename T>
bool DeviceFleet<T>::device_alive(int d) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_at(d).alive_;
}

template <typename T>
int DeviceFleet<T>::stream_device(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rec_at(id).device;
}

template <typename T>
std::vector<FrameU8> DeviceFleet<T>::take_masks(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec<T>& rec = rec_at(id);
  return node_at(rec.device).take_masks(rec);
}

template <typename T>
FleetStreamInfo DeviceFleet<T>::stream_info(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamRec<T>& rec = rec_at(id);
  FleetStreamInfo info;
  info.device = rec.device;
  info.open = rec.open;
  info.migrations = rec.migrations;
  info.serve = node_at(rec.device).stats(rec);
  info.tier = info.serve.tier;
  info.masks_delivered = info.serve.masks_delivered;
  return info;
}

template <typename T>
MigrationStats DeviceFleet<T>::migration_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return migration_stats_;
}

template <typename T>
telemetry::Rollup DeviceFleet<T>::latency_rollup(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamRec<T>& rec = rec_at(id);
  return telemetry::make_rollup(node_at(rec.device).latencies(rec));
}

template <typename T>
std::vector<double> DeviceFleet<T>::all_latencies_locked() const {
  std::vector<double> all;
  for (const auto& node : nodes_) {
    const std::vector<double> lat = node->resident_latencies();
    all.insert(all.end(), lat.begin(), lat.end());
  }
  return all;
}

template <typename T>
telemetry::Rollup DeviceFleet<T>::aggregate_latency_rollup() const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry::make_rollup(all_latencies_locked());
}

template <typename T>
std::uint64_t DeviceFleet<T>::masks_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->totals().masks_delivered;
  return total;
}

template <typename T>
std::uint64_t DeviceFleet<T>::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->totals().frames_dropped;
  return total;
}

template <typename T>
double DeviceFleet<T>::makespan_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double span = 0;
  for (const auto& node : nodes_)
    span = std::max(span, node->totals().makespan_seconds);
  return span;
}

template <typename T>
const DeviceNode<T>& DeviceFleet<T>::device_server(int d) const {
  return node_at(d);
}

template <typename T>
void DeviceFleet<T>::set_snapshot_corruptor(
    std::function<void(std::vector<std::uint8_t>&)> corruptor) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_corruptor_ = std::move(corruptor);
}

template <typename T>
StreamRec<T>& DeviceFleet<T>::rec_at(int id) const {
  MOG_CHECK(id >= 0 && id < static_cast<int>(recs_.size()),
            "unknown stream id");
  return *recs_[static_cast<std::size_t>(id)];
}

template <typename T>
DeviceNode<T>& DeviceFleet<T>::node_at(int d) const {
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return *nodes_[static_cast<std::size_t>(d)];
}

template <typename T>
std::string DeviceFleet<T>::metrics_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  using telemetry::MetricFamily;
  using telemetry::MetricType;
  std::vector<MetricFamily> families;
  const auto add = [&families](const char* name, const char* help,
                               MetricType type) -> MetricFamily& {
    return families.emplace_back(MetricFamily{name, help, type, {}, {}});
  };
  const auto device_label = [](std::size_t d) {
    return telemetry::LabelSet{{"device", strprintf("%zu", d)}};
  };
  const auto stream_label = [](std::size_t i) {
    return telemetry::LabelSet{{"stream", strprintf("%zu", i)}};
  };
  // A family of one sample per device (per stream), labelled by its index.
  const auto per_device = [&](const char* name, const char* help,
                              MetricType type, const auto& value) {
    MetricFamily& f = add(name, help, type);
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back({device_label(d), static_cast<double>(value(d))});
  };
  const auto per_stream = [&](const char* name, const char* help,
                              MetricType type, const auto& value) {
    MetricFamily& f = add(name, help, type);
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.samples.push_back({stream_label(i), static_cast<double>(value(i))});
  };
  std::vector<typename DeviceNode<T>::Totals> totals;
  for (const auto& node : nodes_) totals.push_back(node->totals());
  std::vector<StreamStats> stats;
  for (const auto& rec : recs_)
    stats.push_back(node_at(rec->device).stats(*rec));

  {
    MetricFamily& f = add("mog_fleet_devices", "Device nodes by liveness state",
                          MetricType::kGauge);
    const int alive = alive_locked();
    f.samples.push_back({{{"state", "alive"}}, static_cast<double>(alive)});
    f.samples.push_back(
        {{{"state", "lost"}},
         static_cast<double>(static_cast<int>(nodes_.size()) - alive)});
  }
  per_device("mog_fleet_device_up",
             "1 while the device node is alive, 0 once declared lost",
             MetricType::kGauge,
             [&](std::size_t d) { return nodes_[d]->alive_ ? 1 : 0; });
  per_device("mog_fleet_open_streams", "Streams currently admitted per device",
             MetricType::kGauge,
             [&](std::size_t d) { return nodes_[d]->open_streams(); });
  per_device("mog_fleet_device_memory_bytes",
             "Device memory held by admitted streams per device",
             MetricType::kGauge,
             [&](std::size_t d) { return nodes_[d]->device_bytes_in_use(); });
  per_device("mog_fleet_device_strikes",
             "Degradation strikes charged against each device",
             MetricType::kGauge,
             [&](std::size_t d) { return nodes_[d]->strikes_; });
  per_device("mog_fleet_masks_delivered_total",
             "Masks completed end to end per device", MetricType::kCounter,
             [&](std::size_t d) { return totals[d].masks_delivered; });
  per_device("mog_fleet_frames_dropped_total",
             "Frames lost to queue drop policies per device",
             MetricType::kCounter,
             [&](std::size_t d) { return totals[d].frames_dropped; });
  {
    MetricFamily& f =
        add("mog_fleet_engine_busy_seconds",
            "Cumulative busy time of each device's shared engines",
            MetricType::kGauge);
    for (std::size_t d = 0; d < nodes_.size(); ++d) {
      telemetry::LabelSet dma = device_label(d);
      dma.emplace_back("engine", "dma");
      f.samples.push_back({std::move(dma), totals[d].dma_busy_seconds});
      telemetry::LabelSet kernel = device_label(d);
      kernel.emplace_back("engine", "kernel");
      f.samples.push_back({std::move(kernel), totals[d].kernel_busy_seconds});
    }
  }
  per_device("mog_fleet_device_makespan_seconds",
             "Modeled completion time per device", MetricType::kGauge,
             [&](std::size_t d) { return totals[d].makespan_seconds; });
  {
    MetricFamily& f = add("mog_fleet_migrations_total",
                          "Live-migration protocol actions",
                          MetricType::kCounter);
    const std::pair<const char*, std::uint64_t> events[] = {
        {"attempted", migration_stats_.attempted},
        {"completed", migration_stats_.completed},
        {"checkpoint_rejected", migration_stats_.checkpoint_rejected},
        {"snapshot_retry", migration_stats_.snapshot_retries},
        {"model_reset", migration_stats_.models_reset},
        {"capacity_exhausted", migration_stats_.capacity_exhausted},
        {"frame_requeued", migration_stats_.frames_requeued},
    };
    for (const auto& [event, count] : events)
      f.samples.push_back({{{"event", event}}, static_cast<double>(count)});
  }
  per_stream("mog_fleet_stream_device",
             "Current device hosting each fleet stream", MetricType::kGauge,
             [&](std::size_t i) { return recs_[i]->device; });
  per_stream("mog_fleet_stream_migrations_total",
             "Completed failovers per fleet stream", MetricType::kCounter,
             [&](std::size_t i) { return recs_[i]->migrations; });
  add("mog_fleet_latency_seconds",
      "End-to-end modeled latency across every device",
      MetricType::kHistogram)
      .histograms.push_back(
          telemetry::make_histogram(all_latencies_locked(), {}));

  // Per-stream families, keyed by fleet stream id.
  per_stream("mog_serve_frames_submitted_total", "Frames offered to submit()",
             MetricType::kCounter,
             [&](std::size_t i) { return stats[i].queue.submitted; });
  per_stream("mog_serve_frames_dropped_total",
             "Frames lost to the queue drop policy", MetricType::kCounter,
             [&](std::size_t i) { return stats[i].queue.dropped; });
  per_stream("mog_serve_frames_scheduled_total",
             "Frames popped into the pipeline", MetricType::kCounter,
             [&](std::size_t i) { return stats[i].frames_scheduled; });
  per_stream("mog_serve_masks_delivered_total", "Masks completed end to end",
             MetricType::kCounter,
             [&](std::size_t i) { return stats[i].masks_delivered; });
  per_stream("mog_serve_queue_depth",
             "Frames currently waiting in the ingress queue",
             MetricType::kGauge,
             [&](std::size_t i) { return stats[i].queue_depth; });
  per_stream("mog_serve_queue_high_water",
             "Maximum ingress queue depth observed", MetricType::kGauge,
             [&](std::size_t i) { return stats[i].queue.high_water; });
  per_stream("mog_serve_stream_tier",
             "Degradation-ladder tier (0 tiled GPU, 1 direct GPU, 2 CPU)",
             MetricType::kGauge,
             [&](std::size_t i) { return static_cast<int>(stats[i].tier); });
  {
    MetricFamily& f = add("mog_serve_latency_seconds",
                          "End-to-end modeled latency per delivered mask",
                          MetricType::kHistogram);
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.histograms.push_back(telemetry::make_histogram(
          node_at(recs_[i]->device).latencies(*recs_[i]), stream_label(i)));
  }
  {
    MetricFamily& f =
        add("mog_serve_recovery_actions_total",
            "Recovery actions taken by each stream's resilient pipeline",
            MetricType::kCounter);
    for (std::size_t i = 0; i < stats.size(); ++i)
      for (const auto& [action, field] : kRecoveryActions) {
        telemetry::LabelSet labels = stream_label(i);
        labels.emplace_back("action", action);
        const double count = static_cast<double>(stats[i].recovery.*field);
        f.samples.push_back({std::move(labels), count});
      }
  }

  // Global telemetry sinks, when installed: kernel-counter rollups and
  // trace-recorder drop health.
  if (const telemetry::CounterRegistry* reg = telemetry::counters())
    telemetry::append_counter_registry(*reg, families);
  if (const telemetry::TraceRecorder* tr = telemetry::tracer())
    telemetry::append_trace_health(*tr, families);

  return telemetry::render(families);
}

template <typename T>
bool DeviceFleet<T>::healthz(std::string& detail) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool ok = alive_locked() > 0;
  const fault::ResilienceConfig& res = config_.serve.resilience;
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode<T>& node = *nodes_[d];
    detail += strprintf("device %zu: %s, %d stream(s), %d strike(s)\n", d,
                        node.alive_ ? "alive" : "LOST", node.open_streams(),
                        node.strikes_);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const StreamRec<T>& rec = *recs_[i];
      if (!rec.open || rec.device != static_cast<int>(d)) continue;
      const fault::ExecutionTier tier = node.stats(rec).tier;
      // Subsampled watchdog scan — same check the rollback machinery uses.
      const fault::ModelHealth health = fault::validate_model(
          node.model(rec), res.health_check_stride);
      const bool model_ok = health.healthy(res.weight_drift_tolerance);
      // A stream stranded on the CPU tier by its device (a lost device and
      // no capacity fleet-wide) keeps the fleet unhealthy until it is back
      // on a GPU tier somewhere. A sick camera's own injector put it there
      // wherever it runs, so only its model counts.
      const bool tier_ok = tier != fault::ExecutionTier::kCpuSerial ||
                           rec.own_injector != nullptr;
      ok = ok && tier_ok && model_ok;
      detail += strprintf("  stream %zu: tier=%s model=%s\n", i,
                          fault::to_string(tier),
                          model_ok ? "healthy" : health.summary().c_str());
    }
  }
  return ok;
}

template <typename T>
std::string DeviceFleet<T>::statusz() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== fleet ==\n";
  out += strprintf("devices: %zu (%d alive), streams: %zu\n", nodes_.size(),
                   alive_locked(), recs_.size());
  out += migration_stats_.summary() + "\n";
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode<T>& node = *nodes_[d];
    const typename DeviceNode<T>::Totals totals = node.totals();
    out += strprintf(
        "-- device %zu [%s, %d strike(s), %llu in / %llu out migrations]: "
        "%d open stream(s), makespan %.3f s, device memory %s, "
        "engines dma %.3f s + kernel %.3f s busy\n",
        d, node.alive_ ? "alive" : "LOST", node.strikes_,
        static_cast<unsigned long long>(node.migrations_in_),
        static_cast<unsigned long long>(node.migrations_out_),
        node.open_streams(), totals.makespan_seconds,
        human_bytes(static_cast<double>(node.device_bytes_in_use())).c_str(),
        totals.dma_busy_seconds, totals.kernel_busy_seconds);
  }
  out += "== streams ==\n";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const StreamRec<T>& rec = *recs_[i];
    const DeviceNode<T>& host = node_at(rec.device);
    const StreamStats st = host.stats(rec);
    const telemetry::Rollup lat = telemetry::make_rollup(host.latencies(rec));
    out += strprintf(
        "stream %zu [%s%s] on device %d, %llu migration(s): %llu in / %llu "
        "masks / %llu dropped, latency p50 %.3f ms p99 %.3f ms\n",
        i, fault::to_string(st.tier), rec.open ? "" : ", closed", rec.device,
        static_cast<unsigned long long>(rec.migrations),
        static_cast<unsigned long long>(st.queue.submitted),
        static_cast<unsigned long long>(st.masks_delivered),
        static_cast<unsigned long long>(st.queue.dropped), lat.p50 * 1e3,
        lat.p99 * 1e3);
    // The full recovery digest of the pipeline serving the stream now (of
    // its whole life, once closed).
    out += strprintf(
        "  on device %d: %s\n", rec.device,
        (rec.open ? host.stream_recovery_stats(rec.lane) : st.recovery)
            .summary()
            .c_str());
  }
  if (const telemetry::CounterRegistry* reg = telemetry::counters()) {
    out += "== kernel counters ==\n";
    out += reg->summary() + "\n";
  }
  return out;
}

template class DeviceFleet<float>;
template class DeviceFleet<double>;

}  // namespace mog::cluster
