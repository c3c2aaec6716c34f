#include "mog/serve/stream_server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mog/common/strutil.hpp"
#include "mog/telemetry/frame_ticket.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::serve {

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
StreamServer<T>::StreamServer(const ServeConfig& config, int device)
    : config_(config), device_(device) {
  config_.validate();
}

template <typename T>
StreamServer<T>::~StreamServer() {
  stop();
}

template <typename T>
int StreamServer<T>::open_stream(
    const GpuConfig& gpu_config,
    std::shared_ptr<fault::FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  int open_count = 0;
  for (const auto& s : streams_) open_count += s->open ? 1 : 0;
  if (open_count >= config_.max_streams)
    throw AdmissionError{strprintf(
        "stream refused: %d streams already open (max_streams = %d)",
        open_count, config_.max_streams)};

  auto pipeline = std::make_unique<fault::ResilientPipeline<T>>(
      gpu_config, config_.resilience, std::move(injector));
  const gpusim::Device& device = pipeline->gpu_pipeline()->device();
  const std::size_t bytes = device.memory().bytes_allocated();
  const std::size_t budget = config_.device_memory_budget_bytes != 0
                                 ? config_.device_memory_budget_bytes
                                 : device.memory().capacity();
  if (bytes_in_use_ + bytes > budget)
    throw AdmissionError{strprintf(
        "stream refused: needs %s device memory, %s of %s budget in use",
        human_bytes(static_cast<double>(bytes)).c_str(),
        human_bytes(static_cast<double>(bytes_in_use_)).c_str(),
        human_bytes(static_cast<double>(budget)).c_str())};

  auto s = std::make_unique<Stream>();
  s->last_tier = pipeline->tier();
  s->pipeline = std::move(pipeline);
  s->queue = std::make_unique<BoundedFrameQueue>(config_.queue_depth,
                                                 config_.drop_policy);
  s->gpu_config = gpu_config;
  const int buffers =
      gpu_config.tiled ? 2 * gpu_config.tiled_config.frame_group : 2;
  s->lane = timeline_.add_stream(buffers);
  s->device_bytes = bytes;
  bytes_in_use_ += bytes;
  streams_.push_back(std::move(s));
  const int id = static_cast<int>(streams_.size()) - 1;
  log_.info("stream opened",
            {{"stream", id},
             {"buffers", buffers},
             {"device_bytes", static_cast<std::int64_t>(bytes)}});
  return id;
}

template <typename T>
void StreamServer<T>::close_stream(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = stream_at(id);
  MOG_CHECK(s.open, "stream already closed");
  flush_locked(id);
  bytes_in_use_ -= s.device_bytes;
  s.device_bytes = 0;
  s.last_tier = s.pipeline->tier();
  s.last_recovery = s.pipeline->recovery_stats();
  s.pipeline.reset();
  s.open = false;
  log_.info("stream closed",
            {{"stream", id},
             {"masks_delivered",
              static_cast<std::int64_t>(s.masks_delivered)}});
}

template <typename T>
bool StreamServer<T>::submit(int id, FrameU8 frame, double arrival_seconds,
                             std::uint64_t ticket) {
  bool accepted = false;
  const bool preminted = ticket != 0;
  if (!preminted) ticket = telemetry::mint_frame_ticket();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Stream& s = stream_at(id);
    MOG_CHECK(s.open, "submit to a closed stream");
    accepted = s.queue->push(std::move(frame), arrival_seconds, ticket);
    if (accepted) {
      // Flow begin: the frame's journey starts at queue admission; every
      // later hop (upload, kernel, download) extends this ticket's chain.
      // A pre-minted ticket means the chain began upstream (decode span),
      // so admission is a step on it rather than its start.
      emit_flow(preminted ? 't' : 's', ticket, id, arrival_seconds);
    } else {
      log_.warn("frame dropped at ingress",
                {{"stream", id},
                 {"ticket", static_cast<std::int64_t>(ticket)},
                 {"policy", to_string(config_.drop_policy)}});
    }
  }
  cv_.notify_all();
  return accepted;
}

template <typename T>
std::vector<QueuedFrame> StreamServer<T>::steal_queue(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = stream_at(id);
  MOG_CHECK(s.open, "steal_queue on a closed stream");
  std::vector<QueuedFrame> out;
  QueuedFrame qf;
  while (s.queue->pop(qf)) out.push_back(std::move(qf));
  return out;
}

template <typename T>
bool StreamServer<T>::resubmit(int id, QueuedFrame qf) {
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Stream& s = stream_at(id);
    MOG_CHECK(s.open, "resubmit to a closed stream");
    accepted =
        s.queue->push(std::move(qf.frame), qf.arrival_seconds, qf.ticket);
    if (!accepted)
      log_.warn("migrated frame dropped at ingress",
                {{"stream", id},
                 {"ticket", static_cast<std::int64_t>(qf.ticket)},
                 {"policy", to_string(config_.drop_policy)}});
  }
  cv_.notify_all();
  return accepted;
}

template <typename T>
MogModel<T> StreamServer<T>::stream_model(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Stream& s = stream_at(id);
  MOG_CHECK(s.pipeline != nullptr, "stream_model on a closed stream");
  return s.pipeline->model();
}

template <typename T>
void StreamServer<T>::restore_stream_model(int id, const MogModel<T>& m) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = stream_at(id);
  MOG_CHECK(s.pipeline != nullptr, "restore_stream_model on a closed stream");
  s.pipeline->adopt_model(m);
}

template <typename T>
fault::RecoveryStats StreamServer<T>::stream_recovery_stats(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Stream& s = stream_at(id);
  MOG_CHECK(s.pipeline != nullptr,
            "stream_recovery_stats on a closed stream");
  return s.pipeline->recovery_stats();
}

template <typename T>
std::vector<double> StreamServer<T>::latency_samples(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_at(id).latencies;
}

template <typename T>
std::vector<double> StreamServer<T>::aggregate_latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> all;
  for (const auto& s : streams_)
    all.insert(all.end(), s->latencies.begin(), s->latencies.end());
  return all;
}

template <typename T>
int StreamServer<T>::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  return pump_locked();
}

template <typename T>
int StreamServer<T>::pump_locked() {
  const telemetry::ProfSpan pump_span{telemetry::ProfTag::kPump};
  const int n = static_cast<int>(streams_.size());
  if (n == 0) return 0;

  // Round-robin order rotated by the fairness cursor; the same order drives
  // all three phases of this round.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) order.push_back((cursor_ + k) % n);
  cursor_ = (cursor_ + 1) % n;

  // Phase 1 — ingest: pop at most one frame per stream and reserve the copy
  // engine for its upload. Round r's uploads go ahead of round r-1's
  // downloads in the DMA FIFO (the simulate_overlapped enqueue order).
  struct Popped {
    int id;
    QueuedFrame qf;
  };
  std::vector<Popped> popped;
  for (const int id : order) {
    Stream& s = *streams_[static_cast<std::size_t>(id)];
    if (!s.open) continue;
    QueuedFrame qf;
    if (!s.queue->pop(qf)) continue;
    if (s.pipeline->gpu_pipeline() != nullptr) {
      const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
      const gpusim::SharedTimeline::Window w = timeline_.schedule_upload(
          s.lane, qf.arrival_seconds, sched.upload_seconds);
      s.last_upload_end = w.end_seconds;
      s.dma_seconds += w.end_seconds - w.start_seconds;
      ++s.uploads_outstanding;
      emit_window(id, "up", w.start_seconds, w.end_seconds);
      emit_flow('t', qf.ticket, id, w.start_seconds);
    }
    popped.push_back(Popped{id, std::move(qf)});
  }

  // Phase 2 — deliver: the previous round's pending downloads.
  for (const int id : order)
    deliver_pending(*streams_[static_cast<std::size_t>(id)], id);

  // Phase 3 — compute: run each ingested frame through its pipeline; when
  // masks come due, reserve the kernel engine and defer the batched
  // download to the next round.
  for (Popped& p : popped) {
    Stream& s = *streams_[static_cast<std::size_t>(p.id)];
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
    if (tier_now != s.last_tier)
      log_.warn("stream degraded",
                {{"stream", p.id},
                 {"from", fault::to_string(s.last_tier)},
                 {"to", fault::to_string(tier_now)}});
    s.last_tier = tier_now;

    if (!was_gpu) {
      // CPU tier: private clock, no shared-engine reservations.
      const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
      const double done =
          std::max(arrival, s.cpu_clock) + sched.kernel_seconds;
      s.cpu_clock = done;
      if (delivered) {
        PendingDownload d;
        d.ready_seconds = done;
        d.arrivals.push_back(arrival);
        d.tickets.push_back(p.qf.ticket);
        if (config_.collect_masks) d.masks.push_back(std::move(fg));
        complete_masks(s, p.id, std::move(d), done);
      }
      continue;
    }

    s.in_model.push_back(InFlightFrame{arrival, p.qf.ticket});
    if (!delivered) continue;  // tiled mid-group: mask owed later

    // Group boundary (group of one for the direct variants). Prefer the full
    // group's masks; under a salvage recovery only the newest mask exists.
    std::vector<FrameU8> masks;
    const GpuMogPipeline<T>* gpu = s.pipeline->gpu_pipeline();
    if (gpu != nullptr && gpu->last_group_masks().size() == s.in_model.size())
      masks = gpu->last_group_masks();
    else
      masks.push_back(std::move(fg));
    finish_group(s, p.id, std::move(masks));
  }
  return static_cast<int>(popped.size());
}

template <typename T>
void StreamServer<T>::finish_group(Stream& s, int id,
                                   std::vector<FrameU8> masks) {
  const std::size_t count = std::min(masks.size(), s.in_model.size());
  PendingDownload d;
  // Masks bias newest (a salvage delivers only the latest), so attach the
  // newest `count` arrivals, oldest first.
  for (std::size_t i = s.in_model.size() - count; i < s.in_model.size(); ++i) {
    d.arrivals.push_back(s.in_model[i].arrival_seconds);
    d.tickets.push_back(s.in_model[i].ticket);
  }
  masks.resize(count);
  if (config_.collect_masks) d.masks = std::move(masks);
  s.in_model.clear();

  const GpuMogPipeline<T>* gpu = s.pipeline->gpu_pipeline();
  if (gpu != nullptr && s.uploads_outstanding > 0) {
    const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
    const int consumed = static_cast<int>(s.uploads_outstanding);
    const gpusim::SharedTimeline::Window w = timeline_.schedule_kernel(
        s.lane, s.last_upload_end, sched.kernel_seconds * consumed, consumed);
    s.kernel_seconds += w.end_seconds - w.start_seconds;
    s.uploads_outstanding = 0;
    emit_window(id, "kernel", w.start_seconds, w.end_seconds);
    for (const std::uint64_t t : d.tickets)
      emit_flow('t', t, id, w.start_seconds);
    d.ready_seconds = w.end_seconds;
    s.pending.push_back(std::move(d));
    return;
  }

  // Degraded mid-group: the lane goes quiet; complete on the private clock.
  s.uploads_outstanding = 0;
  double done = s.cpu_clock;
  for (const double a : d.arrivals) done = std::max(done, a);
  s.cpu_clock = done;
  d.ready_seconds = done;
  complete_masks(s, id, std::move(d), done);
}

template <typename T>
void StreamServer<T>::deliver_pending(Stream& s, int id) {
  if (s.pending.empty()) return;
  std::vector<PendingDownload> pending = std::move(s.pending);
  s.pending.clear();
  for (PendingDownload& d : pending) {
    const std::size_t count = d.arrivals.size();
    double end = d.ready_seconds;
    const GpuMogPipeline<T>* gpu =
        s.pipeline != nullptr ? s.pipeline->gpu_pipeline() : nullptr;
    if (gpu != nullptr && count > 0) {
      const gpusim::FrameSchedule sched = s.pipeline->frame_schedule();
      const gpusim::SharedTimeline::Window w = timeline_.schedule_download(
          s.lane, d.ready_seconds,
          sched.download_seconds * static_cast<double>(count));
      s.dma_seconds += w.end_seconds - w.start_seconds;
      emit_window(id, "down", w.start_seconds, w.end_seconds);
      end = w.end_seconds;
    }
    complete_masks(s, id, std::move(d), end);
  }
}

template <typename T>
void StreamServer<T>::complete_masks(Stream& s, int id, PendingDownload&& d,
                                     double end_seconds) {
  for (std::size_t i = 0; i < d.arrivals.size(); ++i) {
    s.latencies.push_back(std::max(0.0, end_seconds - d.arrivals[i]));
    if (i < d.tickets.size()) emit_flow('f', d.tickets[i], id, end_seconds);
    ++s.masks_delivered;
  }
  if (config_.collect_masks)
    for (FrameU8& m : d.masks) s.collected.push_back(std::move(m));
  s.last_completion = std::max(s.last_completion, end_seconds);
}

template <typename T>
int StreamServer<T>::flush_stream(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_locked(id);
}

template <typename T>
int StreamServer<T>::flush_locked(int id) {
  Stream& s = stream_at(id);
  MOG_CHECK(s.open, "flush of a closed stream");
  deliver_pending(s, id);
  std::vector<FrameU8> out;
  const int n = s.pipeline->flush(out);
  if (n > 0) {
    finish_group(s, id, std::move(out));
    deliver_pending(s, id);
  }
  s.in_model.clear();
  s.uploads_outstanding = 0;
  return n;
}

template <typename T>
void StreamServer<T>::drain() {
  while (pump() > 0) {
  }
}

template <typename T>
void StreamServer<T>::start() {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(!running_, "scheduler thread already running");
  log_.info("scheduler thread starting");
  stop_requested_ = false;
  running_ = true;
  worker_ = std::thread([this] {
    telemetry::prof_set_thread_name(strprintf("dev%d.pump", device_).c_str());
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_requested_) {
      if (pump_locked() > 0) continue;
      const telemetry::ProfSpan wait_span{telemetry::ProfTag::kQueueWait};
      cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  });
}

template <typename T>
void StreamServer<T>::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

template <typename T>
std::vector<FrameU8> StreamServer<T>::take_masks(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(stream_at(id).collected);
}

template <typename T>
int StreamServer<T>::num_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(streams_.size());
}

template <typename T>
int StreamServer<T>::open_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  int open_count = 0;
  for (const auto& s : streams_) open_count += s->open ? 1 : 0;
  return open_count;
}

template <typename T>
StreamStats StreamServer<T>::stream_stats(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Stream& s = stream_at(id);
  StreamStats st;
  st.queue = s.queue->stats();
  st.queue_depth = s.queue->size();
  st.frames_scheduled = s.frames_scheduled;
  st.masks_delivered = s.masks_delivered;
  st.dma_seconds = s.dma_seconds;
  st.kernel_seconds = s.kernel_seconds;
  st.tier = s.pipeline != nullptr ? s.pipeline->tier() : s.last_tier;
  st.recovery = s.pipeline != nullptr ? s.pipeline->recovery_stats()
                                      : s.last_recovery;
  return st;
}

template <typename T>
std::uint64_t StreamServer<T>::masks_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->masks_delivered;
  return total;
}

template <typename T>
std::uint64_t StreamServer<T>::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->queue->stats().dropped;
  return total;
}

template <typename T>
double StreamServer<T>::makespan_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double span = timeline_.makespan_seconds();
  for (const auto& s : streams_) {
    span = std::max(span, s->cpu_clock);
    span = std::max(span, s->last_completion);
  }
  return span;
}

template <typename T>
std::size_t StreamServer<T>::device_bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_in_use_;
}

template <typename T>
typename StreamServer<T>::Stream& StreamServer<T>::stream_at(int id) {
  MOG_CHECK(id >= 0 && id < static_cast<int>(streams_.size()),
            "unknown stream id");
  return *streams_[static_cast<std::size_t>(id)];
}

template <typename T>
const typename StreamServer<T>::Stream& StreamServer<T>::stream_at(
    int id) const {
  MOG_CHECK(id >= 0 && id < static_cast<int>(streams_.size()),
            "unknown stream id");
  return *streams_[static_cast<std::size_t>(id)];
}

template <typename T>
void StreamServer<T>::emit_window(int id, const char* kind,
                                  double start_seconds, double end_seconds) {
  telemetry::TraceRecorder* tr = telemetry::tracer();
  if (tr == nullptr) return;
  tr->complete(kind, "serve", telemetry::TraceRecorder::kServeTrackBase + id,
               to_us(start_seconds), to_us(end_seconds - start_seconds),
               {{"stream", static_cast<double>(id)}});
}

template <typename T>
void StreamServer<T>::emit_flow(char phase, std::uint64_t ticket, int id,
                                double seconds) {
  if (ticket == 0) return;
  telemetry::TraceRecorder* tr = telemetry::tracer();
  if (tr == nullptr) return;
  const int tid = telemetry::TraceRecorder::kServeTrackBase + id;
  if (phase == 's')
    tr->flow_begin("frame", "serve.flow", ticket, tid, to_us(seconds));
  else if (phase == 't')
    tr->flow_step("frame", "serve.flow", ticket, tid, to_us(seconds));
  else
    tr->flow_end("frame", "serve.flow", ticket, tid, to_us(seconds));
}

template class StreamServer<float>;
template class StreamServer<double>;

}  // namespace mog::serve
