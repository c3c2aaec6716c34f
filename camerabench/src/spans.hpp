// In-memory span recorder for the traced run. Spans sit around the
// benchmark's own calls into the system (next, submit, pump, take_masks,
// fail_device, the replay's process); nothing inside the system is touched.
// Each span records a name, start, end, parent and frame id; the parent is
// whatever span is open on the same thread. Spans are written out when the
// run ends. A disabled recorder costs one branch per call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace camerabench {

using Clock = std::chrono::steady_clock;

/// Seconds since `epoch` on the steady clock.
inline double seconds_since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on that thread
  std::int64_t frame = -1;   ///< frame index within its stream, -1 = none
  int stream = -1;
  double start_s = 0;  ///< seconds since the recorder's epoch
  double end_s = 0;
  double seconds() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Switch recording on or off; only while no span is open.
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// RAII span; inert when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t frame = -1,
          int stream = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;
    SpanRecord span_;
    std::uint64_t saved_parent_ = 0;
  };

  std::size_t size() const;

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const char* name) const;

  /// Self time of every span called `name`: its duration minus the part
  /// covered by its direct children.
  std::vector<double> self_times(const char* name) const;

  /// Chrome-trace JSON ("X" events; args carry id, parent, frame, stream).
  void write(const std::string& path) const;

 private:
  void push(const SpanRecord& s);

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace camerabench
