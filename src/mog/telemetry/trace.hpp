// Low-overhead scoped tracing with Chrome-trace (chrome://tracing /
// Perfetto) JSON export.
//
// Two tracks share one timeline:
//   tid kWallTrack    — wall-clock spans measured around real simulator work
//                       (upload / kernel / download / recovery actions);
//   tid kModeledTrack — the *modeled* GPU timeline the paper reasons about,
//                       emitted by the pipeline with explicit timestamps so
//                       overlap windows (Fig. 5b) are visible as such.
//
// Recording is bounded: once `capacity()` events are held, further events
// are counted in dropped() instead of stored, so a long soak run cannot
// grow without limit. All methods are cheap no-ops on a null recorder via
// the free helpers in telemetry.hpp. A recorder is thread-safe: decode
// workers, device pumps and a /metrics scrape record into and read one
// recorder concurrently, so every write and read takes its mutex, and
// events() hands out a copy.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';  ///< 'X' complete, 'i' instant,
                     ///< 's'/'t'/'f' flow begin/step/end
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  ///< complete events only
  int tid = 0;
  std::uint64_t flow_id = 0;  ///< flow events only (frame ticket)
  std::vector<std::pair<std::string, double>> args;
};

class TraceRecorder {
 public:
  static constexpr int kWallTrack = 0;
  static constexpr int kModeledTrack = 1;
  static constexpr int kModeledOverlapTrack = 2;
  /// Serving layer: stream k's modeled device ops render on track
  /// kServeTrackBase + k, one row per camera stream.
  static constexpr int kServeTrackBase = 8;

  explicit TraceRecorder(std::size_t capacity = 1 << 20)
      : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds since this recorder was constructed.
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// RAII wall-clock span on kWallTrack; emits on destruction.
  class Span {
   public:
    Span(TraceRecorder* rec, std::string name, std::string cat)
        : rec_(rec), name_(std::move(name)), cat_(std::move(cat)),
          start_us_(rec != nullptr ? rec->now_us() : 0) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept
        : rec_(other.rec_), name_(std::move(other.name_)),
          cat_(std::move(other.cat_)), start_us_(other.start_us_),
          args_(std::move(other.args_)) {
      other.rec_ = nullptr;
    }
    Span& operator=(Span&&) = delete;

    Span& arg(std::string key, double value) {
      if (rec_ != nullptr) args_.emplace_back(std::move(key), value);
      return *this;
    }

    ~Span() {
      if (rec_ == nullptr) return;
      rec_->complete(name_, cat_, TraceRecorder::kWallTrack, start_us_,
                     rec_->now_us() - start_us_, std::move(args_));
    }

   private:
    TraceRecorder* rec_;
    std::string name_, cat_;
    std::int64_t start_us_;
    std::vector<std::pair<std::string, double>> args_;
  };

  /// Complete event with explicit timestamps (modeled-timeline emission).
  void complete(std::string name, std::string cat, int tid, std::int64_t ts_us,
                std::int64_t dur_us,
                std::vector<std::pair<std::string, double>> args = {}) {
    push({std::move(name), std::move(cat), 'X', ts_us, dur_us, tid, 0,
          std::move(args)});
  }

  void instant(std::string name, std::string cat = "event",
               std::vector<std::pair<std::string, double>> args = {}) {
    push({std::move(name), std::move(cat), 'i', now_us(), 0, kWallTrack, 0,
          std::move(args)});
  }

  /// Chrome-trace flow events: a begin ('s') / step ('t') / end ('f') chain
  /// sharing one id renders as connected arrows across tracks. The serving
  /// layer keys these on the frame ticket so a single frame's journey —
  /// queue admission, upload, kernel, download, recovery — reads as one
  /// arrow chain through the per-stream tracks. Timestamps are explicit
  /// because the modeled timeline does not run on the wall clock.
  void flow_begin(std::string name, std::string cat, std::uint64_t id, int tid,
                  std::int64_t ts_us) {
    push({std::move(name), std::move(cat), 's', ts_us, 0, tid, id, {}});
  }
  void flow_step(std::string name, std::string cat, std::uint64_t id, int tid,
                 std::int64_t ts_us) {
    push({std::move(name), std::move(cat), 't', ts_us, 0, tid, id, {}});
  }
  void flow_end(std::string name, std::string cat, std::uint64_t id, int tid,
                std::int64_t ts_us) {
    push({std::move(name), std::move(cat), 'f', ts_us, 0, tid, id, {}});
  }

  /// A copy of the recorded events, in recording order.
  std::vector<TraceEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }
  std::size_t capacity() const { return capacity_; }
  std::size_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Chrome trace "JSON object format": {"traceEvents": [...], ...}.
  Json to_json() const;

  void write(const std::string& path) const { write_json_file(path, to_json()); }

 private:
  void push(TraceEvent ev) {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(std::move(ev));
  }

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace mog::telemetry
