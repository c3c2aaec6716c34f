#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "mog/common/error.hpp"

namespace camerabench {

namespace {
thread_local std::uint64_t t_open_span = 0;
}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           std::int64_t frame, int stream) {
  if (!rec.enabled_) return;
  rec_ = &rec;
  {
    std::lock_guard<std::mutex> lock(rec.mu_);
    span_.id = rec.next_id_++;
  }
  span_.name = name;
  span_.parent = t_open_span;
  span_.frame = frame;
  span_.stream = stream;
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  span_.start_s = seconds_since(rec.epoch_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  span_.end_s = seconds_since(rec_->epoch_);
  t_open_span = saved_parent_;
  rec_->push(span_);
}

void SpanRecorder::push(const SpanRecord& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> SpanRecorder::durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  return out;
}

std::vector<double> SpanRecorder::self_times(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans_)
    if (s.parent != 0) child_time[s.parent] += s.seconds();
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    const auto it = child_time.find(s.id);
    out.push_back(s.seconds() - (it == child_time.end() ? 0.0 : it->second));
  }
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  MOG_CHECK(f != nullptr, "cannot write span trace: " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"frame\":%lld,\"stream\":%d}}%s\n",
                 s.name, s.stream + 1, 1e6 * s.start_s, 1e6 * s.seconds(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.frame), s.stream,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  MOG_CHECK(std::fclose(f) == 0, "cannot finish span trace: " + path);
}

}  // namespace camerabench
