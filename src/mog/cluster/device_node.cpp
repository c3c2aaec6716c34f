#include "mog/cluster/device_node.hpp"

#include <algorithm>
#include <utility>

#include "mog/cluster/device_fleet.hpp"
#include "mog/common/strutil.hpp"
#include "mog/telemetry/frame_ticket.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::cluster {

namespace {

std::int64_t to_us(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6);
}

}  // namespace

void ServeConfig::validate() const {
  MOG_CHECK(max_streams >= 1, "serving needs at least one stream slot");
  MOG_CHECK(queue_depth >= 1, "queue depth must be positive");
  resilience.validate();
}

template <typename T>
DeviceNode<T>::DeviceNode(const DeviceFleet<T>& fleet, int index)
    : fleet_(fleet), config_(fleet.config_.serve), index_(index) {}

template <typename T>
typename DeviceNode<T>::Admission DeviceNode<T>::admit(
    StreamRec<T>& s, std::shared_ptr<fault::FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  const int open_count = open_locked();
  if (open_count >= config_.max_streams)
    throw AdmissionError{
        strprintf("%d streams already open (max_streams = %d)", open_count,
                  config_.max_streams)};

  auto pipeline = std::make_unique<fault::ResilientPipeline<T>>(
      s.gpu, config_.resilience, std::move(injector));
  const gpusim::Device& device = pipeline->gpu_pipeline()->device();
  const std::size_t bytes = device.memory().bytes_allocated();
  const std::size_t budget = config_.device_memory_budget_bytes != 0
                                 ? config_.device_memory_budget_bytes
                                 : device.memory().capacity();
  if (bytes_in_use_ + bytes > budget)
    throw AdmissionError{strprintf(
        "needs %s device memory, %s of %s budget in use",
        human_bytes(static_cast<double>(bytes)).c_str(),
        human_bytes(static_cast<double>(bytes_in_use_)).c_str(),
        human_bytes(static_cast<double>(budget)).c_str())};

  const int buffers = s.gpu.tiled ? 2 * s.gpu.tiled_config.frame_group : 2;
  const int lane = timeline_.add_stream(buffers);
  lanes_.push_back(Lane{&s, bytes});
  bytes_in_use_ += bytes;
  log_.info("stream opened",
            {{"stream", s.id},
             {"buffers", buffers},
             {"device_bytes", static_cast<std::int64_t>(bytes)}});
  return Admission{lane, std::move(pipeline)};
}

template <typename T>
void DeviceNode<T>::host(StreamRec<T>& s, Admission admission,
                         const MogModel<T>* model) {
  std::lock_guard<std::mutex> lock(mu_);
  s.tier = admission.pipeline->tier();
  if (model != nullptr) admission.pipeline->adopt_model(*model);
  s.pipeline = std::move(admission.pipeline);
  s.sched = {};
  s.device = index_;
  s.lane = admission.lane;
  lanes_[static_cast<std::size_t>(s.lane)].live = true;
}

template <typename T>
MogModel<T> DeviceNode<T>::release(StreamRec<T>& s, bool keep_model) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked(s);
  MogModel<T> model = keep_model ? s.pipeline->model() : MogModel<T>{};
  Lane& lane = lanes_[static_cast<std::size_t>(s.lane)];
  bytes_in_use_ -= lane.bytes;
  lane.live = false;
  s.tier = s.pipeline->tier();
  s.released += s.pipeline->recovery_stats();
  s.pipeline.reset();
  log_.info("stream released",
            {{"stream", s.id},
             {"masks_delivered",
              static_cast<std::int64_t>(s.masks_delivered)}});
  return model;
}

template <typename T>
bool DeviceNode<T>::submit(StreamRec<T>& s, FrameU8 frame,
                           double arrival_seconds, std::uint64_t ticket) {
  const bool preminted = ticket != 0;
  if (!preminted) ticket = telemetry::mint_frame_ticket();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t dropped = s.queue.stats().dropped;
  const bool accepted = s.queue.push(std::move(frame), arrival_seconds, ticket);
  frames_dropped_ += s.queue.stats().dropped - dropped;
  if (accepted) {
    // Flow begin: the frame's journey starts at queue admission; every
    // later hop (upload, kernel, download) extends this ticket's chain.
    // A pre-minted ticket means the chain began upstream (decode span),
    // so admission is a step on it rather than its start.
    emit_flow(s, preminted ? 't' : 's', ticket, arrival_seconds);
  } else {
    log_.warn("frame dropped at ingress",
              {{"stream", s.id},
               {"ticket", static_cast<std::int64_t>(ticket)},
               {"policy", to_string(config_.drop_policy)}});
  }
  return accepted;
}

template <typename T>
PumpRound DeviceNode<T>::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  const telemetry::ProfSpan pump_span{telemetry::ProfTag::kPump};
  PumpRound round;
  const int n = static_cast<int>(lanes_.size());
  if (n == 0) return round;

  // The live lanes in round-robin order rotated by the fairness cursor; the
  // same order drives all three phases of this round.
  std::vector<StreamRec<T>*> order;
  for (int k = 0; k < n; ++k) {
    const Lane& lane = lanes_[static_cast<std::size_t>((cursor_ + k) % n)];
    if (lane.live) order.push_back(lane.stream);
  }

  // Phase 1 — ingest: pop at most one frame per stream and reserve the copy
  // engine for its upload. The copy engine takes requests in ready-time
  // order: every owed download that was ready by the frame's arrival goes
  // first, so how often the pump runs never delays a mask. The rest of
  // round r-1's downloads follow round r's uploads in the DMA FIFO (the
  // simulate_overlapped enqueue order).
  struct Popped {
    StreamRec<T>* s;
    QueuedFrame qf;
  };
  std::vector<Popped> popped;
  for (StreamRec<T>* s : order) {
    QueuedFrame qf;
    if (!s->queue.pop(qf)) continue;
    if (s->pipeline->gpu_pipeline() != nullptr) {
      for (StreamRec<T>* other : order)
        deliver_pending(*other, qf.arrival_seconds);
      const gpusim::FrameSchedule sched = s->pipeline->frame_schedule();
      const gpusim::SharedTimeline::Window w = timeline_.schedule_upload(
          s->lane, qf.arrival_seconds, sched.upload_seconds);
      s->sched.last_upload_end = w.end_seconds;
      ++s->sched.uploads_outstanding;
      emit_window(*s, "up", w.start_seconds, w.end_seconds);
      emit_flow(*s, 't', qf.ticket, w.start_seconds);
    }
    popped.push_back(Popped{s, std::move(qf)});
  }
  // Only a round that moves a frame rotates the start: idle rounds leave the
  // upload order of the next frames alone.
  if (!popped.empty()) cursor_ = (cursor_ + 1) % n;

  // Phase 2 — deliver: the previous rounds' remaining pending downloads.
  for (StreamRec<T>* s : order) deliver_pending(*s);

  // Phase 3 — compute: run each ingested frame through its pipeline; when
  // masks come due, reserve the kernel engine and defer the batched
  // download to a later round.
  for (Popped& p : popped) {
    StreamRec<T>& s = *p.s;
    ++s.frames_scheduled;
    const double arrival = p.qf.arrival_seconds;
    const bool was_gpu = s.pipeline->gpu_pipeline() != nullptr;

    FrameU8 fg;
    bool delivered;
    {
      // The ticket scope lets the recovery layer tag its trace instants
      // with the frame that triggered them.
      telemetry::FrameTicketScope ticket_scope(p.qf.ticket);
      delivered = s.pipeline->process(p.qf.frame, fg);
    }
    const fault::ExecutionTier tier_now = s.pipeline->tier();
    if (tier_now != s.tier) {
      // Tiers only step down, so any change is a degradation.
      round.degraded.push_back(s.id);
      log_.warn("stream degraded",
                {{"stream", s.id},
                 {"from", fault::to_string(s.tier)},
                 {"to", fault::to_string(tier_now)}});
    }
    s.tier = tier_now;

    if (!was_gpu) {
      // CPU tier: private clock, no shared-engine reservations.
      const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
      const double done =
          std::max(arrival, s.sched.cpu_clock) + sched.kernel_seconds;
      s.sched.cpu_clock = done;
      latest_completion_ = std::max(latest_completion_, done);
      if (delivered) {
        typename StreamRec<T>::PendingDownload d;
        d.ready_seconds = done;
        d.arrivals.push_back(arrival);
        d.tickets.push_back(p.qf.ticket);
        if (config_.collect_masks) d.masks.push_back(std::move(fg));
        complete_masks(s, std::move(d), done);
      }
      continue;
    }

    s.sched.in_model.push_back({arrival, p.qf.ticket});
    if (!delivered) continue;  // tiled mid-group: mask owed later

    // Group boundary (group of one for the direct variants). Prefer the full
    // group's masks; under a salvage recovery only the newest mask exists.
    std::vector<FrameU8> masks;
    const GpuMogPipeline<T>* gpu = s.pipeline->gpu_pipeline();
    if (gpu != nullptr &&
        gpu->last_group_masks().size() == s.sched.in_model.size())
      masks = gpu->last_group_masks();
    else
      masks.push_back(std::move(fg));
    finish_group(s, std::move(masks));
  }
  round.ingested = static_cast<int>(popped.size());
  return round;
}

template <typename T>
void DeviceNode<T>::finish_group(StreamRec<T>& s, std::vector<FrameU8> masks) {
  auto& in_model = s.sched.in_model;
  const std::size_t count = std::min(masks.size(), in_model.size());
  typename StreamRec<T>::PendingDownload d;
  // Masks bias newest (a salvage delivers only the latest), so attach the
  // newest `count` arrivals, oldest first.
  for (std::size_t i = in_model.size() - count; i < in_model.size(); ++i) {
    d.arrivals.push_back(in_model[i].arrival_seconds);
    d.tickets.push_back(in_model[i].ticket);
  }
  masks.resize(count);
  if (config_.collect_masks) d.masks = std::move(masks);
  in_model.clear();

  const GpuMogPipeline<T>* gpu = s.pipeline->gpu_pipeline();
  if (gpu != nullptr && s.sched.uploads_outstanding > 0) {
    const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
    const int consumed = static_cast<int>(s.sched.uploads_outstanding);
    const gpusim::SharedTimeline::Window w = timeline_.schedule_kernel(
        s.lane, s.sched.last_upload_end, sched.kernel_seconds * consumed,
        consumed);
    s.sched.uploads_outstanding = 0;
    emit_window(s, "kernel", w.start_seconds, w.end_seconds);
    for (const std::uint64_t t : d.tickets)
      emit_flow(s, 't', t, w.start_seconds);
    d.ready_seconds = w.end_seconds;
    s.sched.pending.push_back(std::move(d));
    return;
  }

  // Degraded mid-group: the lane goes quiet; complete on the private clock.
  s.sched.uploads_outstanding = 0;
  double done = s.sched.cpu_clock;
  for (const double a : d.arrivals) done = std::max(done, a);
  s.sched.cpu_clock = done;
  d.ready_seconds = done;
  complete_masks(s, std::move(d), done);
}

template <typename T>
void DeviceNode<T>::deliver_pending(StreamRec<T>& s, double ready_by) {
  if (s.sched.pending.empty()) return;
  std::vector<typename StreamRec<T>::PendingDownload> pending =
      std::move(s.sched.pending);
  s.sched.pending.clear();
  for (auto& d : pending) {
    if (d.ready_seconds > ready_by) {
      s.sched.pending.push_back(std::move(d));
      continue;
    }
    const std::size_t count = d.arrivals.size();
    double end = d.ready_seconds;
    if (s.pipeline->gpu_pipeline() != nullptr && count > 0) {
      const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
      const gpusim::SharedTimeline::Window w = timeline_.schedule_download(
          s.lane, d.ready_seconds,
          sched.download_seconds * static_cast<double>(count));
      emit_window(s, "down", w.start_seconds, w.end_seconds);
      end = w.end_seconds;
    }
    complete_masks(s, std::move(d), end);
  }
}

template <typename T>
void DeviceNode<T>::complete_masks(StreamRec<T>& s,
                                   typename StreamRec<T>::PendingDownload&& d,
                                   double end_seconds) {
  for (std::size_t i = 0; i < d.arrivals.size(); ++i) {
    s.latencies.push_back(std::max(0.0, end_seconds - d.arrivals[i]));
    if (i < d.tickets.size()) emit_flow(s, 'f', d.tickets[i], end_seconds);
    ++s.masks_delivered;
    ++masks_delivered_;
  }
  if (config_.collect_masks)
    for (FrameU8& m : d.masks) s.collected.push_back(std::move(m));
  latest_completion_ = std::max(latest_completion_, end_seconds);
}

template <typename T>
void DeviceNode<T>::flush_locked(StreamRec<T>& s) {
  deliver_pending(s);
  std::vector<FrameU8> out;
  if (s.pipeline->flush(out) > 0) {
    finish_group(s, std::move(out));
    deliver_pending(s);
  }
  s.sched.in_model.clear();
  s.sched.uploads_outstanding = 0;
}

template <typename T>
int DeviceNode<T>::num_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(lanes_.size());
}

template <typename T>
int DeviceNode<T>::open_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_locked();
}

template <typename T>
int DeviceNode<T>::open_locked() const {
  return static_cast<int>(std::count_if(lanes_.begin(), lanes_.end(),
                                        [](const Lane& l) { return l.live; }));
}

template <typename T>
StreamStats DeviceNode<T>::stream_stats(int lane) const {
  // The stream may live on another node by now: find its host under the
  // fleet lock, then read it under the host's.
  std::lock_guard<std::mutex> fleet_lock(fleet_.mu_);
  const StreamRec<T>& s = *lane_at(lane).stream;
  return fleet_.node_at(s.device).stats(s);
}

template <typename T>
fault::RecoveryStats DeviceNode<T>::stream_recovery_stats(int lane) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Lane& l = lane_at(lane);
  MOG_CHECK(l.live, "stream_recovery_stats of a stream that left or closed");
  return l.stream->pipeline->recovery_stats();
}

template <typename T>
std::vector<double> DeviceNode<T>::aggregate_latencies() const {
  std::lock_guard<std::mutex> fleet_lock(fleet_.mu_);
  return resident_latencies();
}

template <typename T>
std::vector<double> DeviceNode<T>::resident_latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> all;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const StreamRec<T>& s = *lanes_[l].stream;
    if (s.device == index_ && s.lane == static_cast<int>(l))
      all.insert(all.end(), s.latencies.begin(), s.latencies.end());
  }
  return all;
}

template <typename T>
std::size_t DeviceNode<T>::device_bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_in_use_;
}

template <typename T>
StreamStats DeviceNode<T>::stats(const StreamRec<T>& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  StreamStats st;
  st.queue = s.queue.stats();
  st.queue_depth = s.queue.size();
  st.frames_scheduled = s.frames_scheduled;
  st.masks_delivered = s.masks_delivered;
  st.tier = s.tier;
  st.recovery = s.released;
  if (s.pipeline != nullptr) st.recovery += s.pipeline->recovery_stats();
  return st;
}

template <typename T>
std::vector<double> DeviceNode<T>::latencies(const StreamRec<T>& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return s.latencies;
}

template <typename T>
std::vector<FrameU8> DeviceNode<T>::take_masks(StreamRec<T>& s) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(s.collected);
}

template <typename T>
MogModel<T> DeviceNode<T>::model(const StreamRec<T>& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return s.pipeline->model();
}

template <typename T>
typename DeviceNode<T>::Totals DeviceNode<T>::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Totals{masks_delivered_, frames_dropped_,
                std::max(timeline_.makespan_seconds(), latest_completion_),
                timeline_.dma_busy_seconds(), timeline_.kernel_busy_seconds()};
}

template <typename T>
const typename DeviceNode<T>::Lane& DeviceNode<T>::lane_at(int lane) const {
  MOG_CHECK(lane >= 0 && lane < static_cast<int>(lanes_.size()),
            "unknown lane");
  return lanes_[static_cast<std::size_t>(lane)];
}

template <typename T>
void DeviceNode<T>::emit_window(const StreamRec<T>& s, const char* kind,
                                double start_seconds, double end_seconds) {
  telemetry::TraceRecorder* tr = telemetry::tracer();
  if (tr == nullptr) return;
  tr->complete(kind, "serve", telemetry::TraceRecorder::kServeTrackBase + s.id,
               to_us(start_seconds), to_us(end_seconds - start_seconds),
               {{"stream", static_cast<double>(s.id)}});
}

template <typename T>
void DeviceNode<T>::emit_flow(const StreamRec<T>& s, char phase,
                              std::uint64_t ticket, double seconds) {
  if (ticket == 0) return;
  telemetry::TraceRecorder* tr = telemetry::tracer();
  if (tr == nullptr) return;
  const int tid = telemetry::TraceRecorder::kServeTrackBase + s.id;
  if (phase == 's')
    tr->flow_begin("frame", "serve.flow", ticket, tid, to_us(seconds));
  else if (phase == 't')
    tr->flow_step("frame", "serve.flow", ticket, tid, to_us(seconds));
  else
    tr->flow_end("frame", "serve.flow", ticket, tid, to_us(seconds));
}

template class DeviceNode<float>;
template class DeviceNode<double>;

}  // namespace mog::cluster
