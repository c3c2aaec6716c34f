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
/// to a device before it is declared lost and evacuated.
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
      "%llu frames requeued (%llu dropped in transit)",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(checkpoint_rejected),
      static_cast<unsigned long long>(snapshot_retries),
      static_cast<unsigned long long>(models_reset),
      static_cast<unsigned long long>(capacity_exhausted),
      static_cast<unsigned long long>(frames_requeued),
      static_cast<unsigned long long>(frames_dropped_in_transit));
}

template <typename T>
DeviceFleet<T>::DeviceFleet(const FleetConfig& config) : config_(config) {
  config_.validate();
  // Sized once: a node is neither copyable nor movable (its pump thread
  // holds its address).
  nodes_ = std::vector<DeviceNode>(static_cast<std::size_t>(config_.devices));
  for (int d = 0; d < config_.devices; ++d) {
    nodes_[static_cast<std::size_t>(d)].server =
        std::unique_ptr<StreamServer<T>>(new StreamServer<T>(config_.serve));
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
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  nodes_[static_cast<std::size_t>(d)].injector = std::move(injector);
}

template <typename T>
std::vector<DeviceLoad> DeviceFleet<T>::loads_locked(
    int exclude_device) const {
  std::vector<DeviceLoad> loads;
  loads.reserve(nodes_.size());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    DeviceLoad l;
    l.device = static_cast<int>(d);
    l.alive = node.alive && l.device != exclude_device;
    l.open_streams = node.server->open_streams();
    l.bytes_in_use = node.server->device_bytes_in_use();
    loads.push_back(l);
  }
  return loads;
}

template <typename T>
int DeviceFleet<T>::open_on_some_device_locked(int id, StreamRec& rec,
                                               std::string& refusal,
                                               int exclude_device) {
  std::vector<DeviceLoad> loads = loads_locked(exclude_device);
  while (true) {
    const int d = scheduler_.pick(rec.key, loads);
    if (d < 0) return -1;
    DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
    // A stream-scoped injector (sick camera) travels with the stream;
    // otherwise the stream joins the hosting device's fault domain.
    std::shared_ptr<fault::FaultInjector> inj =
        rec.own_injector != nullptr ? rec.own_injector : node.injector;
    try {
      rec.local_id = node.server->open_stream(rec.gpu, std::move(inj), id);
      rec.device = d;
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
  StreamRec rec;
  rec.gpu = gpu_config;
  rec.own_injector = std::move(injector);
  rec.key = placement_key.empty() ? strprintf("stream-%d", id)
                                  : std::move(placement_key);
  std::string refusal;
  const int d = open_on_some_device_locked(id, rec, refusal);
  if (d < 0) {
    int alive = 0;
    for (const DeviceNode& node : nodes_) alive += node.alive ? 1 : 0;
    throw AdmissionError{strprintf(
        "stream refused: every alive device is at capacity (%d devices, "
        "%d alive)%s%s",
        static_cast<int>(nodes_.size()), alive, refusal.empty() ? "" : "; ",
        refusal.c_str())};
  }
  recs_.push_back(std::move(rec));
  log_.info("stream placed",
            {{"stream", id}, {"device", d}, {"key", recs_.back().key}});
  return id;
}

template <typename T>
void DeviceFleet<T>::close_stream(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec& rec = rec_at(id);
  MOG_CHECK(rec.open, "stream already closed");
  nodes_[static_cast<std::size_t>(rec.device)].server->close_stream(
      rec.local_id);
  rec.open = false;
}

template <typename T>
bool DeviceFleet<T>::submit(int id, FrameU8 frame, double arrival_seconds,
                            std::uint64_t ticket) {
  // Hold the fleet lock through the member call so the stream cannot be
  // mid-migration between the routing decision and the enqueue.
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec& rec = rec_at(id);
  MOG_CHECK(rec.open, "submit to a closed stream");
  DeviceNode& node = nodes_[static_cast<std::size_t>(rec.device)];
  const bool accepted = node.server->submit(rec.local_id, std::move(frame),
                                            arrival_seconds, ticket);
  node.wake();
  return accepted;
}

template <typename T>
int DeviceFleet<T>::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  int ingested = 0;
  std::vector<int> degraded(nodes_.size());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const PumpRound round = nodes_[d].server->pump();
    ingested += round.ingested;
    degraded[d] = round.degraded;
  }
  for (std::size_t d = 0; d < nodes_.size(); ++d)
    charge_strikes_locked(static_cast<int>(d), degraded[d]);
  return ingested;
}

template <typename T>
void DeviceFleet<T>::drain() {
  // Two consecutive idle rounds: a migration at the end of a round can
  // requeue frames after the round's ingest phase already ran, so one idle
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
    nodes_[d].pump = std::thread([this, d] { pump_loop(static_cast<int>(d)); });
}

template <typename T>
void DeviceFleet<T>::pump_loop(int d) {
  telemetry::prof_set_thread_name(strprintf("dev%d.pump", d).c_str());
  DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
  while (true) {
    // Read before the round: a wake() from here on makes wait() return.
    const std::uint32_t seen = node.wakeups.load();
    if (stop_requested_.load()) return;
    const PumpRound round = node.server->pump();
    if (round.degraded > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      charge_strikes_locked(d, round.degraded);
    }
    // A round that ingested frames owes their downloads to the next one; an
    // idle round owes nothing, so sleeping after it strands no mask.
    if (round.ingested > 0) continue;
    const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
    node.wakeups.wait(seen);
  }
}

template <typename T>
void DeviceFleet<T>::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_.store(true);
  }
  for (DeviceNode& node : nodes_) node.wake();
  for (DeviceNode& node : nodes_) node.pump.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

template <typename T>
void DeviceFleet<T>::fail_device(int d) {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  declare_lost_locked(d, "fail_device");
}

template <typename T>
void DeviceFleet<T>::charge_strikes_locked(int d, int degraded) {
  // A stream stepping down the recovery ladder is evidence against the
  // device hosting it (launch/transfer failures are device-side in this
  // model; frame-level corruption never degrades). Charging only changes
  // this device's count, so charging and declaring device by device
  // migrates exactly as charging every device first would.
  DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
  if (degraded == 0 || !node.alive) return;
  node.strikes += degraded;
  log_.warn("degradation strike",
            {{"device", d},
             {"streams_degraded", degraded},
             {"strikes", node.strikes}});
  if (node.strikes >= kDeviceLossStrikes)
    declare_lost_locked(d, "degradation strikes");
}

template <typename T>
void DeviceFleet<T>::declare_lost_locked(int d, const char* reason) {
  DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
  if (!node.alive) return;
  node.alive = false;
  log_.error("device lost",
             {{"device", d}, {"reason", reason}, {"strikes", node.strikes}});
  for (std::size_t i = 0; i < recs_.size(); ++i)
    if (recs_[i].open && recs_[i].device == d)
      migrate_stream_locked(static_cast<int>(i));
}

template <typename T>
bool DeviceFleet<T>::migrate_stream_locked(int id) {
  ++migration_stats_.attempted;
  StreamRec& rec = recs_[static_cast<std::size_t>(id)];
  const int src_d = rec.device;
  const int local = rec.local_id;

  // 1. Reserve a slot on a healthy device first: when nobody can take the
  //    stream it stays untouched and rides its per-stream ladder in place.
  std::string refusal;
  const int dst_d = open_on_some_device_locked(id, rec, refusal, src_d);
  if (dst_d < 0) {
    ++migration_stats_.capacity_exhausted;
    log_.warn("migration refused: no device has capacity",
              {{"stream", id}, {"device", src_d}, {"refusal", refusal}});
    return false;
  }

  // 2. Freeze the victim in one plane step: steal its queued frames (arrival
  //    stamps and trace tickets preserved), flush its partial tiled group,
  //    copy its model to the host and close it. The closed incarnation keeps
  //    the masks, latencies and counters it produced; the fleet reads them
  //    through `retired`.
  auto victim = nodes_[static_cast<std::size_t>(src_d)].server->evacuate(local);
  rec.retired.push_back(Placement{src_d, local});

  // 3. Snapshot the host copy through the MOGM v2 CRC checkpoint encoding. A
  //    corrupt payload is rejected by type; retry once by re-encoding the
  //    host copy before falling back to a fresh model.
  std::unique_ptr<MogModel<T>> model;
  const auto snapshot = [&] {
    std::vector<std::uint8_t> payload = serialize_model(victim.model);
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
  victim.model = MogModel<T>{};  // free the host copy before adopt() uploads
  if (model == nullptr) {
    ++migration_stats_.models_reset;
    log_.error("snapshot unrecoverable; stream resumes with a fresh model",
               {{"stream", id}});
  }

  // 4. Resume on the target: adopt the restored model, then requeue the
  //    stolen frames, oldest first.
  const std::size_t requeued = victim.frames.size();
  rec.requeued += requeued;
  migration_stats_.frames_requeued += requeued;
  migration_stats_.frames_dropped_in_transit +=
      nodes_[static_cast<std::size_t>(dst_d)].server->adopt(
          rec.local_id, model.get(), std::move(victim.frames));
  nodes_[static_cast<std::size_t>(dst_d)].wake();

  ++nodes_[static_cast<std::size_t>(src_d)].migrations_out;
  ++nodes_[static_cast<std::size_t>(dst_d)].migrations_in;
  ++migration_stats_.completed;
  log_.info("stream migrated",
            {{"stream", id},
             {"from", src_d},
             {"to", dst_d},
             {"frames_requeued", static_cast<std::int64_t>(requeued)},
             {"victim_tier", fault::to_string(victim.tier)},
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
  int n = 0;
  for (const DeviceNode& node : nodes_) n += node.alive ? 1 : 0;
  return n;
}

template <typename T>
bool DeviceFleet<T>::device_alive(int d) const {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return nodes_[static_cast<std::size_t>(d)].alive;
}

template <typename T>
int DeviceFleet<T>::stream_device(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rec_at(id).device;
}

template <typename T>
std::vector<FrameU8> DeviceFleet<T>::take_masks(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FrameU8> out;
  for (const Placement& p : incarnations(rec_at(id))) {
    std::vector<FrameU8> masks = plane(p).take_masks(p.local_id);
    out.insert(out.end(), std::make_move_iterator(masks.begin()),
               std::make_move_iterator(masks.end()));
  }
  return out;
}

template <typename T>
FleetStreamInfo DeviceFleet<T>::stream_info(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamRec& rec = rec_at(id);
  FleetStreamInfo info;
  info.device = rec.device;
  info.open = rec.open;
  info.migrations = rec.retired.size();
  for (const Placement& p : incarnations(rec)) {
    info.serve = plane(p).stream_stats(p.local_id);  // the current one last
    info.masks_delivered += info.serve.masks_delivered;
  }
  info.tier = info.serve.tier;
  return info;
}

template <typename T>
MigrationStats DeviceFleet<T>::migration_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return migration_stats_;
}

template <typename T>
StreamStats DeviceFleet<T>::totals_locked(const StreamRec& rec) const {
  StreamStats sum;
  for (const Placement& p : incarnations(rec)) {
    const StreamStats st = plane(p).stream_stats(p.local_id);
    sum.queue.submitted += st.queue.submitted;
    sum.queue.dropped += st.queue.dropped;
    sum.queue.high_water = std::max(sum.queue.high_water, st.queue.high_water);
    sum.queue_depth += st.queue_depth;
    sum.frames_scheduled += st.frames_scheduled;
    sum.masks_delivered += st.masks_delivered;
    for (const auto& action : kRecoveryActions)
      sum.recovery.*action.second += st.recovery.*action.second;
    sum.tier = st.tier;  // the current incarnation is last
  }
  // A requeued frame was offered once, whichever queues it passed through.
  sum.queue.submitted -= rec.requeued;
  return sum;
}

template <typename T>
std::vector<double> DeviceFleet<T>::latencies_locked(
    const StreamRec& rec) const {
  std::vector<double> all;
  for (const Placement& p : incarnations(rec)) {
    const std::vector<double> lat = plane(p).latency_samples(p.local_id);
    all.insert(all.end(), lat.begin(), lat.end());
  }
  return all;
}

template <typename T>
telemetry::Rollup DeviceFleet<T>::latency_rollup(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry::make_rollup(latencies_locked(rec_at(id)));
}

template <typename T>
telemetry::Rollup DeviceFleet<T>::aggregate_latency_rollup() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Every incarnation lives on exactly one plane, so the planes' aggregates
  // count each delivered mask once.
  std::vector<double> all;
  for (const DeviceNode& node : nodes_) {
    const std::vector<double> lat = node.server->aggregate_latencies();
    all.insert(all.end(), lat.begin(), lat.end());
  }
  return telemetry::make_rollup(all);
}

template <typename T>
std::uint64_t DeviceFleet<T>::masks_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const DeviceNode& node : nodes_) total += node.server->masks_delivered();
  return total;
}

template <typename T>
std::uint64_t DeviceFleet<T>::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const DeviceNode& node : nodes_) total += node.server->frames_dropped();
  return total;
}

template <typename T>
double DeviceFleet<T>::makespan_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double span = 0;
  for (const DeviceNode& node : nodes_)
    span = std::max(span, node.server->makespan_seconds());
  return span;
}

template <typename T>
const StreamServer<T>& DeviceFleet<T>::device_server(int d) const {
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return *nodes_[static_cast<std::size_t>(d)].server;
}

template <typename T>
void DeviceFleet<T>::set_snapshot_corruptor(
    std::function<void(std::vector<std::uint8_t>&)> corruptor) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_corruptor_ = std::move(corruptor);
}

template <typename T>
typename DeviceFleet<T>::StreamRec& DeviceFleet<T>::rec_at(int id) {
  MOG_CHECK(id >= 0 && id < static_cast<int>(recs_.size()),
            "unknown stream id");
  return recs_[static_cast<std::size_t>(id)];
}

template <typename T>
const typename DeviceFleet<T>::StreamRec& DeviceFleet<T>::rec_at(
    int id) const {
  MOG_CHECK(id >= 0 && id < static_cast<int>(recs_.size()),
            "unknown stream id");
  return recs_[static_cast<std::size_t>(id)];
}

template <typename T>
std::vector<typename DeviceFleet<T>::Placement> DeviceFleet<T>::incarnations(
    const StreamRec& rec) const {
  std::vector<Placement> all = rec.retired;
  all.push_back(Placement{rec.device, rec.local_id});
  return all;
}

template <typename T>
StreamServer<T>& DeviceFleet<T>::plane(const Placement& p) const {
  return *nodes_[static_cast<std::size_t>(p.device)].server;
}

template <typename T>
std::string DeviceFleet<T>::metrics_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_text_locked();
}

template <typename T>
std::string DeviceFleet<T>::metrics_text_locked() const {
  using telemetry::MetricFamily;
  using telemetry::MetricType;
  std::vector<MetricFamily> families;

  const auto device_label = [](std::size_t d) {
    return telemetry::LabelSet{{"device", strprintf("%zu", d)}};
  };

  {
    MetricFamily f;
    f.name = "mog_fleet_devices";
    f.help = "Device nodes by liveness state";
    int alive = 0;
    for (const DeviceNode& node : nodes_) alive += node.alive ? 1 : 0;
    f.samples.push_back(
        {{{"state", "alive"}}, static_cast<double>(alive)});
    f.samples.push_back(
        {{{"state", "lost"}},
         static_cast<double>(static_cast<int>(nodes_.size()) - alive)});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_device_up";
    f.help = "1 while the device node is alive, 0 once declared lost";
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back({device_label(d), nodes_[d].alive ? 1.0 : 0.0});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_open_streams";
    f.help = "Streams currently admitted per device";
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d),
           static_cast<double>(nodes_[d].server->open_streams())});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_device_memory_bytes";
    f.help = "Device memory held by admitted streams per device";
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d),
           static_cast<double>(nodes_[d].server->device_bytes_in_use())});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_device_strikes";
    f.help = "Degradation strikes charged against each device";
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d), static_cast<double>(nodes_[d].strikes)});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_masks_delivered_total";
    f.help = "Masks completed end to end per device";
    f.type = MetricType::kCounter;
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d),
           static_cast<double>(nodes_[d].server->masks_delivered())});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_frames_dropped_total";
    f.help = "Frames lost to queue drop policies per device";
    f.type = MetricType::kCounter;
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d),
           static_cast<double>(nodes_[d].server->frames_dropped())});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_engine_busy_seconds";
    f.help = "Cumulative busy time of each device's shared engines";
    for (std::size_t d = 0; d < nodes_.size(); ++d) {
      const StreamServer<T>& server = *nodes_[d].server;
      telemetry::LabelSet dma = device_label(d);
      dma.emplace_back("engine", "dma");
      f.samples.push_back({std::move(dma), server.dma_busy_seconds()});
      telemetry::LabelSet kernel = device_label(d);
      kernel.emplace_back("engine", "kernel");
      f.samples.push_back({std::move(kernel), server.kernel_busy_seconds()});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_device_makespan_seconds";
    f.help = "Modeled completion time per device";
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back(
          {device_label(d), nodes_[d].server->makespan_seconds()});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_migrations_total";
    f.help = "Live-migration protocol actions";
    f.type = MetricType::kCounter;
    const std::pair<const char*, std::uint64_t> events[] = {
        {"attempted", migration_stats_.attempted},
        {"completed", migration_stats_.completed},
        {"checkpoint_rejected", migration_stats_.checkpoint_rejected},
        {"snapshot_retry", migration_stats_.snapshot_retries},
        {"model_reset", migration_stats_.models_reset},
        {"capacity_exhausted", migration_stats_.capacity_exhausted},
        {"frame_requeued", migration_stats_.frames_requeued},
        {"frame_dropped_in_transit",
         migration_stats_.frames_dropped_in_transit},
    };
    for (const auto& [event, count] : events)
      f.samples.push_back(
          {{{"event", event}}, static_cast<double>(count)});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_stream_device";
    f.help = "Current device hosting each fleet stream";
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.samples.push_back({{{"stream", strprintf("%zu", i)}},
                           static_cast<double>(recs_[i].device)});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_stream_migrations_total";
    f.help = "Completed failovers per fleet stream";
    f.type = MetricType::kCounter;
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.samples.push_back({{{"stream", strprintf("%zu", i)}},
                           static_cast<double>(recs_[i].retired.size())});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_fleet_latency_seconds";
    f.help = "End-to-end modeled latency across every device";
    f.type = MetricType::kHistogram;
    std::vector<double> all;
    for (const DeviceNode& node : nodes_) {
      const std::vector<double> lat = node.server->aggregate_latencies();
      all.insert(all.end(), lat.begin(), lat.end());
    }
    f.histograms.push_back(telemetry::make_histogram(all, {}));
    families.push_back(std::move(f));
  }

  // Per-stream families, keyed by fleet stream id.
  std::vector<StreamStats> totals;
  for (const StreamRec& rec : recs_) totals.push_back(totals_locked(rec));
  const auto stream_label = [](std::size_t i) {
    return telemetry::LabelSet{{"stream", strprintf("%zu", i)}};
  };
  struct StreamSpec {
    const char* name;
    const char* help;
    MetricType type;
    std::uint64_t (*value)(const StreamStats&);
  };
  const StreamSpec specs[] = {
      {"mog_serve_frames_submitted_total", "Frames offered to submit()",
       MetricType::kCounter,
       [](const StreamStats& s) { return s.queue.submitted; }},
      {"mog_serve_frames_dropped_total",
       "Frames lost to the queue drop policy", MetricType::kCounter,
       [](const StreamStats& s) { return s.queue.dropped; }},
      {"mog_serve_frames_scheduled_total", "Frames popped into the pipeline",
       MetricType::kCounter,
       [](const StreamStats& s) { return s.frames_scheduled; }},
      {"mog_serve_masks_delivered_total", "Masks completed end to end",
       MetricType::kCounter,
       [](const StreamStats& s) { return s.masks_delivered; }},
      {"mog_serve_queue_depth",
       "Frames currently waiting in the ingress queue", MetricType::kGauge,
       [](const StreamStats& s) { return s.queue_depth; }},
      {"mog_serve_queue_high_water", "Maximum ingress queue depth observed",
       MetricType::kGauge,
       [](const StreamStats& s) { return s.queue.high_water; }},
      {"mog_serve_stream_tier",
       "Degradation-ladder tier (0 tiled GPU, 1 direct GPU, 2 CPU)",
       MetricType::kGauge,
       [](const StreamStats& s) {
         return static_cast<std::uint64_t>(s.tier);
       }},
  };
  for (const StreamSpec& spec : specs) {
    MetricFamily f;
    f.name = spec.name;
    f.help = spec.help;
    f.type = spec.type;
    for (std::size_t i = 0; i < totals.size(); ++i)
      f.samples.push_back(
          {stream_label(i), static_cast<double>(spec.value(totals[i]))});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_serve_latency_seconds";
    f.help = "End-to-end modeled latency per delivered mask";
    f.type = MetricType::kHistogram;
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.histograms.push_back(telemetry::make_histogram(
          latencies_locked(recs_[i]), stream_label(i)));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f;
    f.name = "mog_serve_recovery_actions_total";
    f.help = "Recovery actions taken by each stream's resilient pipeline";
    f.type = MetricType::kCounter;
    for (std::size_t i = 0; i < totals.size(); ++i)
      for (const auto& [action, field] : kRecoveryActions) {
        telemetry::LabelSet labels = stream_label(i);
        labels.emplace_back("action", action);
        const double count = static_cast<double>(totals[i].recovery.*field);
        f.samples.push_back({std::move(labels), count});
      }
    families.push_back(std::move(f));
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
  return healthz_locked(detail);
}

template <typename T>
bool DeviceFleet<T>::healthz_locked(std::string& detail) const {
  int alive = 0;
  for (const DeviceNode& node : nodes_) alive += node.alive ? 1 : 0;
  bool ok = alive > 0;
  const fault::ResilienceConfig& res = config_.serve.resilience;
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    detail += strprintf("device %zu: %s, %d stream(s), %d strike(s)\n", d,
                        node.alive ? "alive" : "LOST",
                        node.server->open_streams(), node.strikes);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const StreamRec& rec = recs_[i];
      if (!rec.open || rec.device != static_cast<int>(d)) continue;
      const fault::ExecutionTier tier =
          node.server->stream_stats(rec.local_id).tier;
      // Subsampled watchdog scan — same check the rollback machinery uses.
      const fault::ModelHealth health = fault::validate_model(
          node.server->stream_model(rec.local_id), res.health_check_stride);
      const bool model_ok = health.healthy(res.weight_drift_tolerance);
      // A stream stranded on a lost device (capacity exhausted fleet-wide)
      // keeps the fleet unhealthy until it is back on a GPU tier somewhere.
      ok = ok && tier != fault::ExecutionTier::kCpuSerial && model_ok;
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
  return statusz_locked();
}

template <typename T>
std::string DeviceFleet<T>::statusz_locked() const {
  int alive = 0;
  for (const DeviceNode& node : nodes_) alive += node.alive ? 1 : 0;
  std::string out = "== fleet ==\n";
  out += strprintf("devices: %zu (%d alive), streams: %zu\n", nodes_.size(),
                   alive, recs_.size());
  out += migration_stats_.summary() + "\n";
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    out += strprintf(
        "-- device %zu [%s, %d strike(s), %llu in / %llu out migrations]: "
        "%d open stream(s), makespan %.3f s, device memory %s, "
        "engines dma %.3f s + kernel %.3f s busy\n",
        d, node.alive ? "alive" : "LOST", node.strikes,
        static_cast<unsigned long long>(node.migrations_in),
        static_cast<unsigned long long>(node.migrations_out),
        node.server->open_streams(), node.server->makespan_seconds(),
        human_bytes(static_cast<double>(node.server->device_bytes_in_use()))
            .c_str(),
        node.server->dma_busy_seconds(), node.server->kernel_busy_seconds());
  }
  out += "== streams ==\n";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const StreamRec& rec = recs_[i];
    const StreamStats sum = totals_locked(rec);
    const telemetry::Rollup lat =
        telemetry::make_rollup(latencies_locked(rec));
    out += strprintf(
        "stream %zu [%s%s] on device %d, %zu migration(s): %llu in / %llu "
        "masks / %llu dropped, latency p50 %.3f ms p99 %.3f ms\n",
        i, fault::to_string(sum.tier), rec.open ? "" : ", closed", rec.device,
        rec.retired.size(),
        static_cast<unsigned long long>(sum.queue.submitted),
        static_cast<unsigned long long>(sum.masks_delivered),
        static_cast<unsigned long long>(sum.queue.dropped), lat.p50 * 1e3,
        lat.p99 * 1e3);
    // The full recovery digest of the current incarnation's pipeline.
    const StreamStats cur =
        plane({rec.device, rec.local_id}).stream_stats(rec.local_id);
    out += strprintf("  on device %d: %s\n", rec.device,
                     cur.recovery.summary().c_str());
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
