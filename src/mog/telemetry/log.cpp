#include "mog/telemetry/log.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "mog/common/error.hpp"

namespace mog::telemetry {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

std::string format_jsonl(const LogRecord& record) {
  Json line = Json::object();
  line.set("ts_us", static_cast<double>(record.ts_us));
  line.set("level", to_string(record.level));
  line.set("component", record.component);
  line.set("msg", record.message);
  for (const auto& [key, value] : record.fields) line.set(key, value);
  if (record.suppressed > 0)
    line.set("suppressed", static_cast<double>(record.suppressed));
  return line.dump();
}

void StderrSink::write(const LogRecord& record) {
  std::fprintf(stderr, "%s\n", format_jsonl(record).c_str());
}

void RingBufferSink::write(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (records_.size() >= capacity_) records_.pop_front();
  records_.push_back(record);
}

std::vector<LogRecord> RingBufferSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

std::size_t RingBufferSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::uint64_t RingBufferSink::total_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void Logger::add_sink(LogSink* sink) {
  MOG_CHECK(sink != nullptr, "cannot attach a null log sink");
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void Logger::remove_sink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

bool Logger::has_sinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !sinks_.empty();
}

void Logger::set_threshold(LogLevel threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_ = threshold;
}

LogLevel Logger::threshold() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_;
}

void Logger::set_rate_limit(const RateLimitPolicy& policy) {
  MOG_CHECK(policy.max_burst >= 1, "rate limit needs max_burst >= 1");
  MOG_CHECK(policy.every >= 1, "rate limit needs every >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  rate_limit_ = policy;
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message,
                 std::vector<std::pair<std::string, Json>> fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sinks_.empty() || level < threshold_) return;

  if (epoch_us_ < 0) epoch_us_ = steady_now_us();

  std::uint64_t carried = 0;
  if (level < LogLevel::kError) {
    // Deterministic repeat suppression keyed on (component, message). The
    // key ignores fields on purpose: a retry loop varies its attempt number
    // but is still the same repeating event.
    std::string key;
    key.reserve(component.size() + 1 + message.size());
    key.append(component).push_back('\0');
    key.append(message);
    RepeatState* state = nullptr;
    for (auto& [k, s] : repeats_)
      if (k == key) {
        state = &s;
        break;
      }
    if (state == nullptr) state = &repeats_.emplace_back(key, RepeatState{}).second;
    ++state->seen;
    if (state->seen > rate_limit_.max_burst &&
        (state->seen - rate_limit_.max_burst) % rate_limit_.every != 0) {
      ++state->suppressed_since_emit;
      ++suppressed_total_;
      return;
    }
    carried = state->suppressed_since_emit;
    state->suppressed_since_emit = 0;
  }

  LogRecord record;
  record.level = level;
  record.component.assign(component);
  record.message.assign(message);
  record.fields = std::move(fields);
  record.ts_us = steady_now_us() - epoch_us_;
  record.suppressed = carried;
  ++emitted_;
  for (LogSink* sink : sinks_) sink->write(record);
}

std::uint64_t Logger::records_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::uint64_t Logger::records_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_total_;
}

Logger& default_logger() {
  static Logger logger{LogLevel::kInfo};
  return logger;
}

}  // namespace mog::telemetry
