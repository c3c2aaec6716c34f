// Structured, leveled JSON-lines logging for the live observability plane.
//
// Design mirrors the telemetry sinks: library code logs unconditionally
// through cheap scoped handles, but nothing is written until a sink is
// attached to the (process-wide) default logger — a sink-less log call
// returns after one cheap check. Each record renders as one JSON object per line
// ({"ts_us":..., "level":"warn", "component":"serve", "msg":..., ...fields}),
// so `grep component=serve` workflows become `jq 'select(.component=="serve")'`
// without losing plain-text readability.
//
// Repeat suppression is deterministic (count-based, not wall-clock-based, so
// tests can assert it): per (component, message) key the first
// `RateLimitPolicy::max_burst` records pass, after which only every
// `every`-th passes, carrying the number suppressed since the last emission
// in the record's `suppressed` field. Errors are never suppressed.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* to_string(LogLevel level);

/// One structured log record, as handed to every sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
  std::vector<std::pair<std::string, Json>> fields;
  std::int64_t ts_us = 0;         ///< microseconds since logger construction
  std::uint64_t suppressed = 0;   ///< repeats dropped since the last emission
};

/// Render one record as a single JSON line (no trailing newline).
std::string format_jsonl(const LogRecord& record);

class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// JSON lines to stderr (the examples' default).
class StderrSink : public LogSink {
 public:
  void write(const LogRecord& record) override;
};

/// Last-N records in memory (tests, /statusz tails).
class RingBufferSink : public LogSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 256) : capacity_(capacity) {}
  void write(const LogRecord& record) override;

  std::vector<LogRecord> snapshot() const;
  std::size_t size() const;
  std::uint64_t total_written() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<LogRecord> records_;
  std::uint64_t total_ = 0;
};

struct RateLimitPolicy {
  std::uint64_t max_burst = 8;  ///< identical records that always pass
  std::uint64_t every = 64;     ///< afterwards pass 1 in `every`
};

class Logger {
 public:
  explicit Logger(LogLevel threshold = LogLevel::kInfo)
      : threshold_(threshold) {}

  /// Sinks are unowned (the installer keeps them alive, like the telemetry
  /// recorder); fan-out preserves attachment order.
  void add_sink(LogSink* sink);
  void remove_sink(LogSink* sink);
  bool has_sinks() const;

  void set_threshold(LogLevel threshold);
  LogLevel threshold() const;
  void set_rate_limit(const RateLimitPolicy& policy);

  void log(LogLevel level, std::string_view component, std::string_view message,
           std::vector<std::pair<std::string, Json>> fields = {});

  std::uint64_t records_emitted() const;
  std::uint64_t records_suppressed() const;

 private:
  struct RepeatState {
    std::uint64_t seen = 0;
    std::uint64_t suppressed_since_emit = 0;
  };

  mutable std::mutex mu_;
  std::vector<LogSink*> sinks_;
  LogLevel threshold_;
  RateLimitPolicy rate_limit_;
  std::vector<std::pair<std::string, RepeatState>> repeats_;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_total_ = 0;
  std::int64_t epoch_us_ = -1;  ///< stamped lazily on the first record
};

/// The process-wide logger every subsystem writes to. Sink-less (silent)
/// until an example, test, or embedding application attaches sinks.
Logger& default_logger();

/// Cheap per-component handle: `ScopedLogger log{"serve"}; log.warn(...)`.
class ScopedLogger {
 public:
  explicit ScopedLogger(std::string component, Logger* logger = nullptr)
      : component_(std::move(component)), logger_(logger) {}

  void debug(std::string_view message,
             std::vector<std::pair<std::string, Json>> fields = {}) const {
    log(LogLevel::kDebug, message, std::move(fields));
  }
  void info(std::string_view message,
            std::vector<std::pair<std::string, Json>> fields = {}) const {
    log(LogLevel::kInfo, message, std::move(fields));
  }
  void warn(std::string_view message,
            std::vector<std::pair<std::string, Json>> fields = {}) const {
    log(LogLevel::kWarn, message, std::move(fields));
  }
  void error(std::string_view message,
             std::vector<std::pair<std::string, Json>> fields = {}) const {
    log(LogLevel::kError, message, std::move(fields));
  }

  const std::string& component() const { return component_; }

 private:
  void log(LogLevel level, std::string_view message,
           std::vector<std::pair<std::string, Json>> fields) const {
    Logger& target = logger_ != nullptr ? *logger_ : default_logger();
    target.log(level, component_, message, std::move(fields));
  }

  std::string component_;
  Logger* logger_;
};

}  // namespace mog::telemetry
