// Multi-device fleet: N simulated devices behind one serving front end.
//
// DeviceFleet is the serving API (devices = 1 for a single GPU). It owns N
// device nodes. Each node is a single-device serving plane — a
// serve::StreamServer with its own gpusim::SharedTimeline (DMA + compute
// engines), its own device-memory admission budget, its own
// pump, and optionally its own fault::FaultInjector. The injector makes the
// node a *fault domain*: every stream placed on the node shares it, so an
// injected device failure correlates across exactly the streams that live
// there and no others — the "one device dies, its cameras fail over, the
// rest of the fleet never notices" production story.
//
// Placement: streams are admitted through a ClusterScheduler —
// least-loaded first with a consistent-hash tiebreak (placement.hpp) — and
// rebalance naturally on admission because every open_stream() consults the
// live load vector.
//
// Live migration (the headline robustness mechanism): when a device is
// declared lost — explicitly via fail_device(), or automatically on the
// first degradation strike, when a stream on it steps down the recovery
// ladder after repeated launch/transfer failures — every stream it hosts is
// moved to a healthy device:
//
//   1. freeze   — steal the stream's queued frames (stamps and trace
//                 tickets preserved), flush its partial tiled group;
//   2. snapshot — round-trip the MoG model through the MOGM v2 CRC
//                 checkpoint encoding (serialize_model/deserialize_model).
//                 A corrupt snapshot is *rejected by type* (ModelIoError),
//                 retried from a fresh device read, and only as a last
//                 resort replaced by a fresh model;
//   3. resume   — open a stream on the target (same GPU config, so a
//                 degraded victim returns to its full tier), adopt the
//                 restored model, requeue the stolen frames in order.
//
// Degradation order, fleet-wide: healthy GPU tier -> migrate to another
// device -> (no capacity anywhere) ride the per-stream ladder down to CPU
// in place. Admitted frames are never dropped by a failover; a migration is
// observable in MigrationStats, the structured log, and /metrics.
//
// Observability: the fleet is the only owner of the HTTP endpoint and
// renders every page once: /metrics (per-device mog_fleet_* families, fleet
// migration counters, a devices-spanning latency histogram, and the
// per-stream mog_serve_* families labelled by fleet stream id), /healthz
// (per-device and per-stream verdicts; 503 while any admitted stream is
// off-GPU or model-drifted), and /statusz. A migrated stream leaves a closed
// incarnation, counters intact, on each device it left; the per-stream
// families sum over a stream's incarnations, so a failover never resets a
// counter.
//
// Thread safety: public methods lock the fleet mutex; member servers have
// their own locks (always acquired after the fleet's, never the reverse).
// start()/stop() run every member pump on its own thread plus one fleet
// supervisor thread that watches for device loss and migrates in the
// background; deterministic callers use pump()/drain() synchronously.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/placement.hpp"
#include "mog/serve/stream_server.hpp"
#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/http_server.hpp"

namespace mog::cluster {

struct FleetConfig {
  int devices = 2;  ///< device nodes (each a single-device serving plane)

  /// Template applied to every device node.
  serve::ServeConfig serve;

  /// Observability endpoint (/metrics, /healthz, /statusz, /profilez),
  /// served from a thread the fleet owns for its whole lifetime: -1
  /// disables it, 0 binds an ephemeral loopback port (read it back via
  /// obs_port()), >0 binds that port.
  int obs_port = -1;

  void validate() const;
};

/// Counters for every migration action, comparable for deterministic tests.
struct MigrationStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t checkpoint_rejected = 0;  ///< snapshot failed typed decode
  std::uint64_t snapshot_retries = 0;     ///< re-read after a rejection
  std::uint64_t models_reset = 0;         ///< last resort: fresh model
  std::uint64_t capacity_exhausted = 0;   ///< no healthy device could admit
  std::uint64_t frames_requeued = 0;      ///< queued frames moved along
  std::uint64_t frames_dropped_in_transit = 0;  ///< refused by target queue

  bool operator==(const MigrationStats&) const = default;
  std::string summary() const;
};

/// Fleet-level view of one stream.
struct FleetStreamInfo {
  int device = -1;                  ///< current hosting device
  bool open = true;
  std::uint64_t migrations = 0;     ///< times this stream failed over
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  std::uint64_t masks_delivered = 0;  ///< across all incarnations
  serve::StreamStats serve;           ///< current incarnation's stats
};

template <typename T>
class DeviceFleet {
 public:
  using GpuConfig = typename serve::StreamServer<T>::GpuConfig;

  explicit DeviceFleet(const FleetConfig& config);
  ~DeviceFleet();

  DeviceFleet(const DeviceFleet&) = delete;
  DeviceFleet& operator=(const DeviceFleet&) = delete;

  /// Install a device node's fault domain: every stream subsequently placed
  /// on device `d` without its own injector shares this one. Call before
  /// opening streams on the device.
  void set_device_injector(int d,
                           std::shared_ptr<fault::FaultInjector> injector);

  /// Admit a stream onto the least-loaded device (consistent-hash
  /// tiebreak on `placement_key`; empty derives a key from the stream id).
  /// A stream-scoped `injector` (a sick camera) follows the stream across
  /// migrations; without one the stream joins its device's fault domain.
  /// Throws serve::AdmissionError when every alive device refuses it.
  int open_stream(const GpuConfig& gpu_config,
                  std::shared_ptr<fault::FaultInjector> injector = nullptr,
                  std::string placement_key = {});

  void close_stream(int id);

  /// Offer one frame to stream `id`. Thread-safe; routes to the stream's
  /// current device (atomically with respect to migration). A nonzero
  /// `ticket` is a pre-minted trace ticket from a decode front end
  /// (see StreamServer::submit).
  bool submit(int id, FrameU8 frame, double arrival_seconds = 0,
              std::uint64_t ticket = 0);

  /// Pump every device one round, then supervise: charge degradation
  /// strikes, declare lost devices, migrate their streams. Returns frames
  /// ingested across the fleet this round.
  int pump();

  /// Pump until every queue is drained and every owed mask is delivered.
  void drain();

  /// Background mode: every member pump thread plus the fleet supervisor.
  void start();
  void stop();

  /// Operator/chaos entry point: declare device `d` lost now and evacuate
  /// its streams.
  void fail_device(int d);

  int devices() const;
  int alive_devices() const;
  bool device_alive(int d) const;
  int stream_device(int id) const;  ///< current placement of stream `id`

  /// Masks delivered for stream `id` in arrival order, spanning migrations.
  std::vector<FrameU8> take_masks(int id);

  FleetStreamInfo stream_info(int id) const;
  MigrationStats migration_stats() const;  ///< a copy taken under the lock

  telemetry::Rollup latency_rollup(int id) const;
  telemetry::Rollup aggregate_latency_rollup() const;
  std::uint64_t masks_delivered() const;  ///< fleet-wide
  std::uint64_t frames_dropped() const;   ///< fleet-wide queue drops
  double makespan_seconds() const;        ///< slowest device's clock

  /// Member server access (tests, benches). The fleet owns it; treat as
  /// read-mostly and never hold references across pump()/migration.
  serve::StreamServer<T>& device_server(int d);
  const serve::StreamServer<T>& device_server(int d) const;

  const FleetConfig& config() const { return config_; }

  // --- observability plane (the /metrics, /healthz, /statusz bodies; also
  // callable directly so tests and embedders need no socket) ---------------

  /// Prometheus text exposition: the mog_fleet_* families, the per-stream
  /// mog_serve_* families keyed by fleet stream id, plus the global
  /// CounterRegistry and trace health when telemetry sinks are installed.
  std::string metrics_text() const;

  /// Liveness verdict: true while some device is alive and every open
  /// stream is on a GPU tier with a model that passes
  /// fault::validate_model(). `detail` gets one line per device and per
  /// open stream either way (the /healthz body).
  bool healthz(std::string& detail) const;

  /// Human-readable status page: devices, migrations, and per-stream
  /// traffic, latency and recovery.
  std::string statusz() const;

  /// Bound observability port; -1 when FleetConfig::obs_port disabled it.
  int obs_port() const { return obs_http_.port(); }

  /// Test hook: mutate the serialized snapshot between encode and decode
  /// (models checkpoint bit rot on the migration hot path).
  void set_snapshot_corruptor(
      std::function<void(std::vector<std::uint8_t>&)> corruptor);

 private:
  struct DeviceNode {
    std::unique_ptr<serve::StreamServer<T>> server;
    std::shared_ptr<fault::FaultInjector> injector;  ///< fault domain
    bool alive = true;
    int strikes = 0;
    std::uint64_t migrations_in = 0;
    std::uint64_t migrations_out = 0;
  };

  /// Where one incarnation of a fleet stream lives.
  struct Placement {
    int device = -1;
    int local_id = -1;  ///< stream id on that device's plane
  };

  struct StreamRec {
    bool open = true;
    int device = -1;
    int local_id = -1;
    GpuConfig gpu;
    std::shared_ptr<fault::FaultInjector> own_injector;
    std::string key;
    fault::ExecutionTier last_tier = fault::ExecutionTier::kGpuDirect;
    /// Closed incarnations a migration left behind, oldest first; their
    /// planes keep their masks, latencies and counters.
    std::vector<Placement> retired;
    std::uint64_t requeued = 0;  ///< frames migrations moved between queues
  };

  StreamRec& rec_at(int id);
  const StreamRec& rec_at(int id) const;
  /// Every incarnation of `rec`, oldest first; the current one is last.
  std::vector<Placement> incarnations(const StreamRec& rec) const;
  serve::StreamServer<T>& plane(const Placement& p) const;
  std::vector<DeviceLoad> loads_locked(int exclude_device = -1) const;
  int open_on_some_device_locked(StreamRec& rec, int exclude_device);
  int pump_locked();
  void supervise_locked();
  void declare_lost_locked(int d, const char* reason);
  bool migrate_stream_locked(int id);
  void start_obs_server();
  /// `rec`'s counters summed over its incarnations (tier: the current one's;
  /// recovery: the exported action counts only).
  serve::StreamStats totals_locked(const StreamRec& rec) const;
  std::vector<double> latencies_locked(const StreamRec& rec) const;
  std::string metrics_text_locked() const;
  bool healthz_locked(std::string& detail) const;
  std::string statusz_locked() const;

  FleetConfig config_;
  mutable std::mutex mu_;
  std::vector<DeviceNode> nodes_;
  std::vector<StreamRec> recs_;
  ClusterScheduler scheduler_;
  MigrationStats migration_stats_;
  std::function<void(std::vector<std::uint8_t>&)> snapshot_corruptor_;
  telemetry::ScopedLogger log_{"cluster"};
  telemetry::HttpServer obs_http_;

  std::thread supervisor_;
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

extern template class DeviceFleet<float>;
extern template class DeviceFleet<double>;

}  // namespace mog::cluster
