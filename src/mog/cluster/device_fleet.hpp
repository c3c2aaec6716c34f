// Multi-device fleet: N simulated devices behind one serving front end.
//
// DeviceFleet is the serving API (devices = 1 for a single GPU). It owns
// each stream's StreamRec (device_node.hpp), which holds the stream's queue,
// pipeline, counters, latency samples and masks for its whole life, and N
// DeviceNodes, each one device that only schedules the streams placed on
// it: a gpusim::SharedTimeline (DMA + compute engines), a device-memory
// admission budget, a pump, and optionally a fault::FaultInjector. The
// injector makes the node a *fault domain*: every stream placed on the node
// without its own injector shares it, so an injected device failure
// correlates across exactly the streams that live there and no others — the
// "one device dies, its cameras fail over, the rest of the fleet never
// notices" production story.
//
// Streams are admitted through a ClusterScheduler — least-loaded first with
// a consistent-hash tiebreak (placement.hpp) — and rebalance naturally on
// admission because every open_stream() consults the live load vector.
//
// Live migration (the headline robustness mechanism): when a device is
// declared lost — explicitly via fail_device(), or automatically on the
// first degradation strike, charged by the pump round in which a stream on
// it steps down the recovery ladder after repeated launch/transfer
// failures — every stream it hosts is moved to a healthy device:
//
//   1. reserve  — admit the stream on the target: build its new pipeline
//                 (same GPU config, so a degraded victim returns to its full
//                 tier) and charge the target's budget;
//   2. flush    — on the source, in one locked step: deliver the stream's
//                 partial tiled group and owed masks, copy its model to the
//                 host, and release its pipeline. Its queued frames stay in
//                 its queue, in order, stamps and trace tickets intact;
//   3. snapshot — round-trip that host copy through the MOGM v2 CRC
//                 checkpoint encoding (serialize_model/deserialize_model).
//                 A corrupt snapshot is *rejected by type* (ModelIoError),
//                 retried by re-encoding the host copy, and only as a last
//                 resort replaced by a fresh model;
//   4. resume   — load the restored model into the new pipeline and
//                 re-point the stream at the target, whose pump sees it
//                 from now on.
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
// (per-device and per-stream verdicts; 503 while a stream is off-GPU through
// its device's faults or model-drifted), and /statusz. A stream's record
// outlives its migrations, so a failover never resets a counter.
//
// Threads and locking: public methods lock the fleet mutex; a node's lock
// is always acquired after the fleet's, never the reverse, and a queue's
// after its node's. The fleet owns every serving thread. start() runs one
// pump thread per device ("dev<i>.pump"); it pumps its node under the node
// lock only, and takes the fleet lock only after a round that degraded a
// stream, to charge the strikes and declare the device lost. An idle pump
// sleeps until a submit(), a migration onto its device, or stop() wakes it.
// stop() joins the pumps without holding the fleet lock. Deterministic
// callers use pump()/drain() synchronously.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mog/cluster/device_node.hpp"
#include "mog/cluster/placement.hpp"
#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/http_server.hpp"

namespace mog::cluster {

struct FleetConfig {
  int devices = 2;  ///< device nodes (each one simulated GPU)

  /// Template applied to every device node.
  ServeConfig serve;

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
  std::uint64_t frames_requeued = 0;      ///< frames queued at migration

  bool operator==(const MigrationStats&) const = default;
  std::string summary() const;
};

/// Fleet-level view of one stream.
struct FleetStreamInfo {
  int device = -1;                  ///< current hosting device
  bool open = true;
  std::uint64_t migrations = 0;     ///< times this stream failed over
  fault::ExecutionTier tier = fault::ExecutionTier::kTiledGpu;
  std::uint64_t masks_delivered = 0;
  StreamStats serve;  ///< over the stream's whole life
};

template <typename T>
class DeviceFleet {
 public:
  using GpuConfig = typename StreamRec<T>::GpuConfig;

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
  /// Throws AdmissionError when every alive device refuses it; the message
  /// ends with the last refusing device's reason.
  int open_stream(const GpuConfig& gpu_config,
                  std::shared_ptr<fault::FaultInjector> injector = nullptr,
                  std::string placement_key = {});

  void close_stream(int id);

  /// Offer one frame to stream `id`. Thread-safe; routes to the stream's
  /// current device (atomically with respect to migration). A nonzero
  /// `ticket` is a pre-minted trace ticket from a decode front end
  /// (see DeviceNode::submit).
  bool submit(int id, FrameU8 frame, double arrival_seconds = 0,
              std::uint64_t ticket = 0);

  /// Pump every device one round, then charge the round's degradation
  /// strikes in device order; a device that reaches its strike limit is
  /// declared lost and its streams migrate in fleet-id order. Returns frames
  /// ingested across the fleet this round.
  int pump();

  /// Pump until every queue is drained and every owed mask is delivered.
  void drain();

  /// Live mode: one pump thread per device, each pumping as long as its
  /// node has work and sleeping until woken otherwise. stop() joins them.
  void start();
  void stop();

  /// Operator/chaos entry point: declare device `d` lost now and migrate
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

  /// Read-only view of device `d` (benches, tests).
  const DeviceNode<T>& device_server(int d) const;

  // --- observability pages (the /metrics, /healthz, /statusz bodies; also
  // callable directly so tests and embedders need no socket) ---------------

  /// Prometheus text exposition: the mog_fleet_* families, the per-stream
  /// mog_serve_* families keyed by fleet stream id, plus the global
  /// CounterRegistry and trace health when telemetry sinks are installed.
  std::string metrics_text() const;

  /// Liveness verdict: true while some device is alive and every open
  /// stream has a model that passes fault::validate_model() and is on a GPU
  /// tier (unless its own injector, not a device, put it on the CPU tier).
  /// `detail` gets one line per device and per open stream either way (the
  /// /healthz body).
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
  friend class DeviceNode<T>;

  StreamRec<T>& rec_at(int id) const;
  DeviceNode<T>& node_at(int d) const;  ///< checks `d`
  int alive_locked() const;
  std::vector<DeviceLoad> loads_locked(int exclude_device = -1) const;
  /// Admit `rec` on the least-loaded alive device that takes it, never
  /// `exclude_device`; returns that device, or -1 with the last refusing
  /// device's reason in `refusal` (empty when no device was eligible).
  int admit_locked(StreamRec<T>& rec,
                   typename DeviceNode<T>::Admission& admission,
                   std::string& refusal, int exclude_device = -1);
  void pump_loop(int d);
  void charge_strikes_locked(int d, const std::vector<int>& degraded);
  void declare_lost_locked(int d, const char* reason);
  bool migrate_stream_locked(int id);
  void start_obs_server();
  /// Every delivered mask's latency, device by device.
  std::vector<double> all_latencies_locked() const;

  FleetConfig config_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<DeviceNode<T>>> nodes_;
  std::vector<std::unique_ptr<StreamRec<T>>> recs_;
  ClusterScheduler scheduler_;
  MigrationStats migration_stats_;
  std::function<void(std::vector<std::uint8_t>&)> snapshot_corruptor_;
  telemetry::ScopedLogger log_{"cluster"};
  telemetry::HttpServer obs_http_;

  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

extern template class DeviceFleet<float>;
extern template class DeviceFleet<double>;

}  // namespace mog::cluster
