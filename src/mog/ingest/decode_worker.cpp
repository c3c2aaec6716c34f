#include "mog/ingest/decode_worker.hpp"

#include <chrono>

#include "mog/common/strutil.hpp"
#include "mog/ingest/ingest_error.hpp"
#include "mog/telemetry/frame_ticket.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::ingest {

DecodeWorker::DecodeWorker(std::unique_ptr<FrameReader> reader,
                           SubmitFn submit, DecodeWorkerConfig config)
    : reader_(std::move(reader)), submit_(std::move(submit)),
      config_(config) {
  MOG_CHECK(reader_ != nullptr, "DecodeWorker needs a FrameReader");
  MOG_CHECK(submit_ != nullptr, "DecodeWorker needs a submit function");
  MOG_CHECK(config_.fps > 0, "DecodeWorker fps must be positive");
}

DecodeWorker::~DecodeWorker() { stop(); }

void DecodeWorker::start() {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(!started_, "DecodeWorker already started");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void DecodeWorker::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  join();
}

void DecodeWorker::join() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = std::move(thread_);
  }
  if (t.joinable()) t.join();
}

bool DecodeWorker::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

DecodeStats DecodeWorker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool DecodeWorker::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !error_.empty();
}

std::string DecodeWorker::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void DecodeWorker::run() {
  using clock = std::chrono::steady_clock;
  telemetry::prof_set_thread_name(
      strprintf("decode%d", config_.stream_id).c_str());
  std::uint64_t n = 0;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) break;
      if (config_.max_frames > 0 && n >= config_.max_frames) break;
    }

    FrameU8 frame;
    bool got = false;
    const auto t0 = clock::now();
    // Mint the ticket before decoding: the decode span is the first hop of
    // the frame's flow chain, ahead of queue admission.
    const std::uint64_t ticket = telemetry::mint_frame_ticket();
    try {
      const telemetry::ProfSpan decode_span{telemetry::ProfTag::kDecode};
      got = reader_->next(frame);
    } catch (const IngestError& e) {
      std::lock_guard<std::mutex> lock(mu_);
      error_ = e.what();
      log_.error("decode failed; stopping stream at frame boundary",
                 {{"stream", config_.stream_id},
                  {"frames_delivered",
                   static_cast<std::int64_t>(stats_.frames_decoded)},
                  {"error", e.what()}});
      break;
    }
    const double dt =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (!got) break;  // clean end of stream

    if (telemetry::TraceRecorder* tr = telemetry::tracer()) {
      const std::int64_t end_us = tr->now_us();
      const std::int64_t dur_us =
          static_cast<std::int64_t>(1e6 * dt);
      tr->complete("decode", "ingest",
                   telemetry::TraceRecorder::kWallTrack, end_us - dur_us,
                   dur_us,
                   {{"stream", static_cast<double>(config_.stream_id)},
                    {"ticket", static_cast<double>(ticket)}});
      tr->flow_begin("frame", "serve.flow", ticket,
                     telemetry::TraceRecorder::kWallTrack, end_us);
    }

    const double arrival = static_cast<double>(n) / config_.fps;
    const bool accepted = submit_(std::move(frame), arrival, ticket);
    ++n;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_decoded;
    if (!accepted) ++stats_.frames_rejected;
    stats_.bytes_consumed = reader_->bytes_consumed();
    stats_.decode_seconds += dt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_consumed = reader_->bytes_consumed();
  done_ = true;
}

}  // namespace mog::ingest
