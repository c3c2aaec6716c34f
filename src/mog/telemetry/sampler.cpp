#include "mog/telemetry/sampler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "mog/common/error.hpp"

namespace mog::telemetry {

namespace {

/// Aggregation key: thread name + '\x1f' + raw tag bytes root-first. Built
/// on the sampler thread only; decoded into FlameStack at take() time.
std::string sample_key(const ProfSlot& slot, std::uint32_t depth) {
  std::string key;
  key.reserve(ProfSlot::kNameBytes + 1 + depth);
  for (int i = 0; i < ProfSlot::kNameBytes; ++i) {
    const char c = slot.name[i].load(std::memory_order_relaxed);
    if (c == '\0') break;
    key.push_back(c);
  }
  if (key.empty()) key = "thread";
  key.push_back('\x1f');
  for (std::uint32_t d = 0; d < depth; ++d)
    key.push_back(
        static_cast<char>(slot.tags[d].load(std::memory_order_relaxed)));
  return key;
}

FlameStack decode_key(const std::string& key, std::uint64_t count) {
  FlameStack stack;
  stack.count = count;
  const std::size_t sep = key.find('\x1f');
  stack.thread = key.substr(0, sep);
  for (std::size_t i = sep + 1; i < key.size(); ++i) {
    const auto raw = static_cast<std::uint8_t>(key[i]);
    const ProfTag tag = raw < static_cast<std::uint8_t>(ProfTag::kCount)
                            ? static_cast<ProfTag>(raw)
                            : ProfTag::kCount;
    stack.frames.emplace_back(to_string(tag));
  }
  return stack;
}

}  // namespace

Sampler::~Sampler() { stop(); }

Sampler& Sampler::global() {
  static Sampler sampler;
  return sampler;
}

bool Sampler::start(int hz) {
  MOG_CHECK(hz >= 1 && hz <= 20000, "sampler hz out of range [1, 20000]");
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return false;
  // The global enable flag is the process-wide arbiter: winning this CAS is
  // what makes this instance *the* running sampler, so a second instance
  // (e.g. a test-local Sampler racing Sampler::global()) gets false here,
  // exactly like a same-instance double start.
  detail::ProfRegistry& reg = detail::g_prof_registry;
  bool expected = false;
  if (!reg.enabled.compare_exchange_strong(expected, true,
                                           std::memory_order_relaxed))
    return false;
  hz_ = hz;
  profile_ = FlameProfile{};
  profile_.hz = hz;
  stop_flag_.store(false, std::memory_order_relaxed);
  started_at_ = std::chrono::steady_clock::now();
  // Reset per-slot truncation tallies so the profile reports this window
  // only. Racy against concurrent pushes by design: a push lost to the
  // reset undercounts `truncated` by one, never corrupts a stack.
  const int high_water = reg.high_water.load(std::memory_order_acquire);
  for (int i = 0; i < high_water; ++i)
    reg.slots[i].truncated.store(0, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
  running_ = true;
  return true;
}

void Sampler::stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    // New spans stop publishing immediately; in-flight spans still pop
    // their depth correctly (the pop does not consult the enable flag).
    detail::g_prof_registry.enabled.store(false, std::memory_order_relaxed);
    stop_flag_.store(true, std::memory_order_relaxed);
    worker = std::move(thread_);
  }
  worker.join();  // loop() folds its aggregate into profile_ on exit
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool Sampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

FlameProfile Sampler::take() {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(!running_, "Sampler::take() while running; stop() first");
  return std::exchange(profile_, FlameProfile{});
}

bool Sampler::try_capture(double seconds, int hz, FlameProfile& out) {
  MOG_CHECK(seconds > 0 && seconds <= 60,
            "sampler capture window out of range (0, 60] seconds");
  if (!start(hz)) return false;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop();
  out = take();
  return true;
}

void Sampler::loop() {
  const auto period = std::chrono::nanoseconds(1'000'000'000LL / hz_);
  auto next = std::chrono::steady_clock::now();
  std::map<std::string, std::uint64_t> agg;
  std::uint64_t ticks = 0, samples = 0, idle = 0;
  detail::ProfRegistry& reg = detail::g_prof_registry;

  while (!stop_flag_.load(std::memory_order_relaxed)) {
    next += period;
    std::this_thread::sleep_until(next);
    ++ticks;
    const int high_water = reg.high_water.load(std::memory_order_acquire);
    for (int i = 0; i < high_water; ++i) {
      ProfSlot& slot = reg.slots[i];
      if (slot.state.load(std::memory_order_relaxed) != 1) continue;
      const std::uint32_t depth =
          std::min(slot.depth.load(std::memory_order_relaxed), kProfMaxDepth);
      if (depth == 0)
        ++idle;
      else
        ++samples;
      ++agg[sample_key(slot, depth)];
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  profile_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  profile_.ticks = ticks;
  profile_.samples = samples;
  profile_.idle = idle;
  const int high_water = reg.high_water.load(std::memory_order_acquire);
  for (int i = 0; i < high_water; ++i)
    profile_.truncated +=
        reg.slots[i].truncated.load(std::memory_order_relaxed);
  profile_.stacks.reserve(agg.size());
  for (const auto& [key, count] : agg)
    profile_.stacks.push_back(decode_key(key, count));
  std::sort(profile_.stacks.begin(), profile_.stacks.end(),
            [](const FlameStack& a, const FlameStack& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.frames < b.frames;
            });
}

}  // namespace mog::telemetry
