// Per-stream decode worker: the bridge from encoded bytes to the serving
// layer's bounded ingress queues.
//
// Each camera stream gets one DecodeWorker owning a FrameReader (Y4M or
// MJPEG over a ByteSource). The worker thread pulls and decodes frames *off
// the scheduler's pump thread*, mints the frame's trace ticket at decode
// start, emits a wall-clock "decode" span carrying that ticket as the first
// hop of the frame's flow chain, and submits the decoded frame through the
// caller-supplied SubmitFn — in practice DeviceFleet::submit, the serving
// API, with the pre-minted ticket, which lands the frame in the stream's
// BoundedFrameQueue for its current device to pump. Everything downstream —
// backpressure, admission control, CPU degradation, fleet failover — applies
// unchanged, because by the queue the frame is indistinguishable from a
// synthetic one.
//
// Error policy mirrors the parsers: a typed IngestError stops the worker at
// the frame boundary — every frame submitted before the error is complete,
// and no partial frame is ever delivered downstream. The error is kept for
// the owner (error()/failed()) and logged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "mog/common/image.hpp"
#include "mog/ingest/frame_reader.hpp"
#include "mog/telemetry/log.hpp"

namespace mog::ingest {

/// Delivery seam into the serving layer. Must be thread-safe (it is called
/// from the worker thread); returns false when the queue's drop policy
/// refused the frame.
using SubmitFn =
    std::function<bool(FrameU8 frame, double arrival_seconds,
                       std::uint64_t ticket)>;

struct DecodeWorkerConfig {
  double fps = 30.0;          ///< modeled camera cadence (arrival stamps)
  std::uint64_t max_frames = 0;  ///< stop after N frames; 0 = whole stream
  int stream_id = 0;          ///< serving-layer stream id (telemetry label)
};

struct DecodeStats {
  std::uint64_t frames_decoded = 0;   ///< complete frames handed to SubmitFn
  std::uint64_t frames_rejected = 0;  ///< refused by the queue's drop policy
  std::uint64_t bytes_consumed = 0;   ///< compressed bytes pulled
  double decode_seconds = 0;          ///< wall-clock time inside the decoder

  bool operator==(const DecodeStats&) const = default;
};

class DecodeWorker {
 public:
  DecodeWorker(std::unique_ptr<FrameReader> reader, SubmitFn submit,
               DecodeWorkerConfig config = {});
  ~DecodeWorker();  ///< stops and joins

  DecodeWorker(const DecodeWorker&) = delete;
  DecodeWorker& operator=(const DecodeWorker&) = delete;

  /// Spawn the worker thread. May be called once.
  void start();

  /// Ask the worker to stop at the next frame boundary, then join it.
  void stop();

  /// Block until the stream is exhausted (or failed) and the thread exited.
  void join();

  /// True once the thread has exited (join() will not block).
  bool done() const;

  DecodeStats stats() const;

  bool failed() const;
  std::string error() const;  ///< empty when !failed()

 private:
  void run();

  std::unique_ptr<FrameReader> reader_;
  SubmitFn submit_;
  DecodeWorkerConfig config_;
  telemetry::ScopedLogger log_{"ingest"};

  mutable std::mutex mu_;
  std::thread thread_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool done_ = false;
  DecodeStats stats_;
  std::string error_;
};

}  // namespace mog::ingest
