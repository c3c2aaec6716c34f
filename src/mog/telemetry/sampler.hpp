// Low-overhead host sampling profiler: where does the *wall clock* go?
//
// The counter plane (CounterRegistry, mogprof) attributes
// *modeled* GPU time. This file attributes *host* time: each hot thread
// (block-executor worker, serve pump, decode worker) publishes a small
// fixed-depth stack of phase tags through relaxed atomics, and a sampler
// thread walks the published stacks at a configurable rate, aggregating
// (thread, tag-path) -> sample counts. Exporters in flame.hpp turn the
// aggregate into collapsed-stack text (flamegraph.pl), speedscope JSON,
// and a terminal top-N table (mogprof --flame).
//
// Design rules (DESIGN.md §13):
//  * Sampling, not tracing: a tag push/pop is 2-3 relaxed stores, paid only
//    while a sampler runs; there is no per-event buffer to fill, so the
//    overhead is bounded by tag-site frequency, not by workload size.
//  * Disabled cost is one relaxed load + predictable branch per tag site
//    (prof_enabled below) — no locks, no TLS guards, no allocation.
//  * The profiler only ever *reads* simulation state; counters, masks and
//    goldens are bit-identical with the sampler on or off.
//  * Torn reads are acceptable: the sampler may observe a stack mid-update
//    and misattribute that single sample. At 997 hz against millions of tag
//    events per second the error is statistical noise.
//
// The hot-path primitives are header-only on purpose: gpusim's interpreter
// places tags (warp dispatch, Coalescer::access, stats merge) but must
// not link mog_telemetry — everything a tag site touches is an inline global.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mog::telemetry {

// ---------------------------------------------------------------------------
// Tag vocabulary
// ---------------------------------------------------------------------------

/// Fixed set of profiled phases. A fixed enum (not interned strings) keeps
/// the push a single byte store and the sampler's decode trivial.
enum class ProfTag : std::uint8_t {
  kIdle = 0,         ///< reserved: rendered for empty published stacks
  kKernelLaunch,     ///< Device::run_blocks (launching thread, whole launch)
  kWarpDispatch,     ///< BlockCtx::parallel — interpreting a block's warps
  kCoalescerAccess,  ///< Coalescer::access — one warp memory instruction
  kChargeFlush,      ///< per-warp issue-charge fold into KernelStats
  kStatsMerge,       ///< per-worker stats fold + block-order DRAM row fix-up
  kQueueWait,        ///< executor worker / serve pump waiting for work
  kPump,             ///< serve scheduling round (ingest/deliver/compute)
  kUpload,           ///< host->device frame upload
  kDownload,         ///< device->host mask download
  kPostproc,         ///< mask post-processing launches (device or host)
  kDecode,           ///< ingest decode (Y4M/JPEG) of one frame
  kCount
};

inline const char* to_string(ProfTag tag) {
  switch (tag) {
    case ProfTag::kIdle: return "(idle)";
    case ProfTag::kKernelLaunch: return "kernel_launch";
    case ProfTag::kWarpDispatch: return "warp_dispatch";
    case ProfTag::kCoalescerAccess: return "coalescer_access";
    case ProfTag::kChargeFlush: return "charge_flush";
    case ProfTag::kStatsMerge: return "stats_merge";
    case ProfTag::kQueueWait: return "queue_wait";
    case ProfTag::kPump: return "pump";
    case ProfTag::kUpload: return "upload";
    case ProfTag::kDownload: return "download";
    case ProfTag::kPostproc: return "postproc";
    case ProfTag::kDecode: return "decode";
    case ProfTag::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Published tag stacks (hot path)
// ---------------------------------------------------------------------------

/// Published stack depth. Deeper nesting still *counts* pushes (so pops
/// balance) but the tags beyond this depth are dropped and recorded in
/// ProfSlot::truncated — see the overflow test in test_obs.cpp.
inline constexpr std::uint32_t kProfMaxDepth = 16;

/// Concurrently profiled threads. A thread beyond the pool simply goes
/// unprofiled (ProfSpan no-ops); nothing breaks.
inline constexpr int kProfMaxThreads = 512;

/// One thread's published state. All fields are relaxed atomics: the owner
/// thread writes, the sampler thread reads, and a torn observation costs one
/// misattributed sample.
struct ProfSlot {
  static constexpr int kNameBytes = 24;
  std::atomic<std::uint32_t> state{0};  ///< 0 free, 1 claimed
  std::atomic<std::uint32_t> depth{0};  ///< pushes minus pops (may exceed max)
  std::atomic<std::uint8_t> tags[kProfMaxDepth] = {};
  std::atomic<std::uint64_t> truncated{0};  ///< pushes beyond kProfMaxDepth
  std::atomic<char> name[kNameBytes] = {};  ///< NUL-padded thread label
};

namespace detail {

struct ProfRegistry {
  std::atomic<bool> enabled{false};
  std::atomic<int> high_water{0};  ///< slots ever claimed (scan bound)
  ProfSlot slots[kProfMaxThreads];
};

inline constinit ProfRegistry g_prof_registry{};

/// The per-site disabled-cost gate: one relaxed load.
inline bool prof_enabled() {
  return g_prof_registry.enabled.load(std::memory_order_relaxed);
}

/// Raw cached slot pointer; constinit so hot-path access is a plain TLS
/// load with no dynamic-init guard.
inline thread_local constinit ProfSlot* tl_prof_slot = nullptr;
inline thread_local constinit bool tl_prof_slot_denied = false;

/// Frees the slot when the owning thread exits (separate from tl_prof_slot
/// so only the cold claim path touches a TLS object with a destructor).
struct ProfSlotLease {
  ProfSlot* slot = nullptr;
  ~ProfSlotLease() {
    if (slot == nullptr) return;
    slot->depth.store(0, std::memory_order_relaxed);
    slot->state.store(0, std::memory_order_release);
  }
};

inline void prof_store_name(ProfSlot& slot, const char* name) {
  int i = 0;
  for (; name[i] != '\0' && i < ProfSlot::kNameBytes - 1; ++i)
    slot.name[i].store(name[i], std::memory_order_relaxed);
  for (; i < ProfSlot::kNameBytes; ++i)
    slot.name[i].store('\0', std::memory_order_relaxed);
}

/// Cold path: claim a slot for this thread (nullptr when the pool is full;
/// the failure is cached so a saturated pool costs nothing afterwards).
inline ProfSlot* prof_claim_slot() {
  if (tl_prof_slot_denied) return nullptr;
  ProfRegistry& reg = g_prof_registry;
  for (int i = 0; i < kProfMaxThreads; ++i) {
    std::uint32_t expect = 0;
    if (!reg.slots[i].state.compare_exchange_strong(
            expect, 1, std::memory_order_acq_rel, std::memory_order_relaxed))
      continue;
    ProfSlot& slot = reg.slots[i];
    slot.depth.store(0, std::memory_order_relaxed);
    slot.truncated.store(0, std::memory_order_relaxed);
    prof_store_name(slot, "thread");
    int hw = reg.high_water.load(std::memory_order_relaxed);
    while (hw < i + 1 && !reg.high_water.compare_exchange_weak(
                             hw, i + 1, std::memory_order_release,
                             std::memory_order_relaxed)) {
    }
    // Function-local, so only code that claims a slot carries the lease's
    // thread_local init function (the per-level kernel code never does).
    thread_local ProfSlotLease lease;
    tl_prof_slot = &slot;
    lease.slot = &slot;
    return &slot;
  }
  tl_prof_slot_denied = true;
  return nullptr;
}

inline ProfSlot* prof_slot() {
  ProfSlot* slot = tl_prof_slot;
  return slot != nullptr ? slot : prof_claim_slot();
}

}  // namespace detail

/// Label the calling thread in profiles ("exec3", "dev0.pump", "decode1").
/// Claims the thread's slot eagerly so the name is in place before the
/// first sample; call once near thread start. Unnamed threads appear as
/// "thread". Truncated to 23 bytes.
inline void prof_set_thread_name(const char* name) {
  if (ProfSlot* slot = detail::prof_slot()) detail::prof_store_name(*slot, name);
}

/// RAII phase tag. Place at a hot phase boundary; while a sampler runs, the
/// tag is visible on this thread's published stack for the span's lifetime.
/// When no sampler runs the constructor is one relaxed load + branch and the
/// destructor a no-op.
class ProfSpan {
 public:
  explicit ProfSpan(ProfTag tag) {
    if (!detail::prof_enabled()) return;
    ProfSlot* slot = detail::prof_slot();
    if (slot == nullptr) return;
    const std::uint32_t d = slot->depth.load(std::memory_order_relaxed);
    if (d < kProfMaxDepth)
      slot->tags[d].store(static_cast<std::uint8_t>(tag),
                          std::memory_order_relaxed);
    else
      slot->truncated.fetch_add(1, std::memory_order_relaxed);
    slot->depth.store(d + 1, std::memory_order_relaxed);
    slot_ = slot;
  }
  ~ProfSpan() {
    if (slot_ == nullptr) return;
    slot_->depth.store(slot_->depth.load(std::memory_order_relaxed) - 1,
                       std::memory_order_relaxed);
  }

  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  ProfSlot* slot_ = nullptr;  ///< non-null only if the ctor pushed
};

// ---------------------------------------------------------------------------
// Aggregated profiles + the sampler thread
// ---------------------------------------------------------------------------

/// One aggregated call stack. `frames` are tag names root-first; empty
/// frames mean the thread was idle (published stack empty) when sampled.
struct FlameStack {
  std::string thread;
  std::vector<std::string> frames;
  std::uint64_t count = 0;
};

struct FlameProfile {
  int hz = 0;
  double seconds = 0;          ///< wall time the sampler ran
  std::uint64_t ticks = 0;     ///< sampling ticks taken
  std::uint64_t samples = 0;   ///< non-idle stack observations
  std::uint64_t idle = 0;      ///< thread-ticks with an empty stack
  std::uint64_t truncated = 0; ///< tag pushes beyond kProfMaxDepth
  /// Deterministic order: count descending, then thread/frames ascending.
  std::vector<FlameStack> stacks;

  bool empty() const { return stacks.empty(); }
};

/// The sampler thread. One per process is the intended use (the published
/// slots are process-global), via global(); tests may build their own.
/// start/stop are thread-safe; only one instance may run at a time because
/// running is signalled through the global enable flag.
class Sampler {
 public:
  Sampler() = default;
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  static Sampler& global();

  /// Launch the sampling thread at `hz` samples/second (range-checked to
  /// [1, 20000]). Returns false when a sampler is already running — this
  /// instance or any other; the global enable flag arbitrates — without
  /// disturbing the running capture.
  bool start(int hz);

  /// Stop and join the sampling thread, folding its aggregate into the
  /// profile returned by take(). Idempotent.
  void stop();

  bool running() const;

  /// The aggregate of the last start()/stop() window. Call after stop();
  /// clears the stored profile. Throws while running.
  FlameProfile take();

  /// Convenience: start, sample for `seconds` (in (0, 60]), stop, take.
  /// Returns false (and leaves `out` untouched) when a capture is already
  /// in flight — the /profilez 503 path.
  bool try_capture(double seconds, int hz, FlameProfile& out);

 private:
  void loop();

  mutable std::mutex mu_;
  std::thread thread_;
  std::atomic<bool> stop_flag_{false};
  bool running_ = false;
  int hz_ = 0;
  std::chrono::steady_clock::time_point started_at_{};
  FlameProfile profile_;
};

}  // namespace mog::telemetry
