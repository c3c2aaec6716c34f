// Profiler counters collected during simulated kernel execution.
//
// Metric definitions deliberately match the Nvidia Visual Profiler metrics
// the paper reports:
//   memory access efficiency = bytes requested / bytes transferred
//   branch efficiency        = non-divergent branches / executed branches
//   SM occupancy             = resident threads per SM / max threads per SM
#pragma once

#include <algorithm>
#include <cstdint>

#include "mog/common/error.hpp"

namespace mog::gpusim {

struct KernelStats {
  // --- global memory -----------------------------------------------------
  std::uint64_t load_instructions = 0;    ///< warp-level load instructions
  std::uint64_t store_instructions = 0;
  std::uint64_t load_transactions = 0;    ///< 128 B segments fetched
  std::uint64_t store_transactions = 0;   ///< 32 B segments written
  std::uint64_t rmw_transactions = 0;     ///< ECC read-modify-write reads
  std::uint64_t bytes_requested_load = 0;
  std::uint64_t bytes_requested_store = 0;
  std::uint64_t bytes_transferred_load = 0;
  std::uint64_t bytes_transferred_store = 0;
  std::uint64_t dram_page_switches = 0;   ///< row-locality events

  // --- branches -----------------------------------------------------------
  std::uint64_t branches_executed = 0;
  std::uint64_t branches_divergent = 0;

  // --- compute ------------------------------------------------------------
  std::uint64_t issue_cycles = 0;         ///< warp-instruction issue cycles
  std::uint64_t warp_instructions = 0;

  // --- shared memory ------------------------------------------------------
  std::uint64_t shared_accesses = 0;      ///< warp-level shared ld/st
  std::uint64_t shared_cycles = 0;        ///< incl. bank-conflict replays
  std::uint64_t shared_bytes_per_block = 0;

  // --- launch shape / resources -------------------------------------------
  int regs_per_thread = 0;                ///< peak across warps (+ABI)
  int threads_per_block = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t num_warps = 0;

  // --- derived -------------------------------------------------------------
  std::uint64_t total_transactions() const {
    return load_transactions + store_transactions + rmw_transactions;
  }
  std::uint64_t bytes_transferred() const {
    return bytes_transferred_load + bytes_transferred_store;
  }
  std::uint64_t bytes_requested() const {
    return bytes_requested_load + bytes_requested_store;
  }
  double memory_access_efficiency() const {
    const auto t = bytes_transferred();
    if (t == 0) return 1.0;
    // L1 hits can push requested bytes past transferred bytes; the profiler
    // metric saturates at 100%.
    return std::min(1.0, static_cast<double>(bytes_requested()) /
                             static_cast<double>(t));
  }
  double branch_efficiency() const {
    return branches_executed == 0
               ? 1.0
               : 1.0 - static_cast<double>(branches_divergent) /
                           static_cast<double>(branches_executed);
  }

  /// Accumulate another launch's counters (launch shape fields must match;
  /// regs take the max so a warm-up launch cannot under-report). Mixing
  /// launches of different block shapes is an error in every build type —
  /// the per-launch resource fields (and the occupancy derived from them)
  /// would silently describe neither launch.
  KernelStats& operator+=(const KernelStats& other);

  /// Counter-wise difference against an earlier snapshot of the same
  /// accumulator: `after.counters_since(before)` is what ran in between.
  /// Resource fields (regs, threads_per_block, shared bytes) are per-launch
  /// properties, not counters — they pass through from `*this`. Used by the
  /// per-block stats seam (Device snapshots the worker accumulator around
  /// each block).
  KernelStats counters_since(const KernelStats& before) const;

  /// Per-launch average after accumulating n launches (resource fields are
  /// already per-launch and pass through unchanged). n must be positive:
  /// averaging over zero launches is a caller bookkeeping bug, not a
  /// quantity with a meaningful value.
  KernelStats averaged_over(std::uint64_t n) const;
};

/// One additive counter of KernelStats: its name and its member.
struct KernelCounter {
  const char* name;
  std::uint64_t KernelStats::*field;
};

/// The additive counters of KernelStats — every field that sums across
/// launches. Accumulation, differencing, averaging, rescaling and profile
/// reconstruction all walk this table; the resource fields
/// (shared_bytes_per_block, regs_per_thread, threads_per_block) are
/// per-launch properties, handled explicitly where they matter.
inline constexpr KernelCounter kKernelCounters[] = {
    {"load_instructions", &KernelStats::load_instructions},
    {"store_instructions", &KernelStats::store_instructions},
    {"load_transactions", &KernelStats::load_transactions},
    {"store_transactions", &KernelStats::store_transactions},
    {"rmw_transactions", &KernelStats::rmw_transactions},
    {"bytes_requested_load", &KernelStats::bytes_requested_load},
    {"bytes_requested_store", &KernelStats::bytes_requested_store},
    {"bytes_transferred_load", &KernelStats::bytes_transferred_load},
    {"bytes_transferred_store", &KernelStats::bytes_transferred_store},
    {"dram_page_switches", &KernelStats::dram_page_switches},
    {"branches_executed", &KernelStats::branches_executed},
    {"branches_divergent", &KernelStats::branches_divergent},
    {"issue_cycles", &KernelStats::issue_cycles},
    {"warp_instructions", &KernelStats::warp_instructions},
    {"shared_accesses", &KernelStats::shared_accesses},
    {"shared_cycles", &KernelStats::shared_cycles},
    {"num_blocks", &KernelStats::num_blocks},
    {"num_warps", &KernelStats::num_warps},
};

// The 18 counters above plus the three resource fields (a std::uint64_t and
// two ints) are all of KernelStats: a field added without a table entry
// changes the size and does not build.
static_assert(sizeof(KernelStats) == 160,
              "every additive KernelStats field needs a kKernelCounters entry");

inline KernelStats& KernelStats::operator+=(const KernelStats& other) {
  MOG_CHECK(threads_per_block == 0 || other.threads_per_block == 0 ||
                threads_per_block == other.threads_per_block,
            "accumulating KernelStats across mismatched launch shapes "
            "(threads_per_block differs)");
  for (const KernelCounter& c : kKernelCounters)
    this->*c.field += other.*c.field;
  shared_bytes_per_block =
      std::max(shared_bytes_per_block, other.shared_bytes_per_block);
  regs_per_thread = std::max(regs_per_thread, other.regs_per_thread);
  if (other.threads_per_block != 0) threads_per_block = other.threads_per_block;
  return *this;
}

inline KernelStats KernelStats::counters_since(
    const KernelStats& before) const {
  KernelStats d = *this;
  for (const KernelCounter& c : kKernelCounters) d.*c.field -= before.*c.field;
  return d;
}

inline KernelStats KernelStats::averaged_over(std::uint64_t n) const {
  MOG_CHECK(n > 0, "cannot average KernelStats over zero launches");
  KernelStats s = *this;
  if (n == 1) return s;
  for (const KernelCounter& c : kKernelCounters) s.*c.field /= n;
  return s;
}

/// Enumerate every exported metric of a launch as (name, value, extensive).
/// Extensive metrics scale with the amount of work (counters); intensive
/// ones are per-launch properties (resources, efficiencies). This is the
/// single source of metric names shared by the telemetry rollups and the
/// bench reports — adding a field here makes it appear in both.
template <typename Fn>
void visit_metrics(const KernelStats& s, Fn&& fn) {
  fn("load_instructions", static_cast<double>(s.load_instructions), true);
  fn("store_instructions", static_cast<double>(s.store_instructions), true);
  fn("load_transactions", static_cast<double>(s.load_transactions), true);
  fn("store_transactions", static_cast<double>(s.store_transactions), true);
  fn("rmw_transactions", static_cast<double>(s.rmw_transactions), true);
  fn("bytes_transferred_load", static_cast<double>(s.bytes_transferred_load),
     true);
  fn("bytes_transferred_store", static_cast<double>(s.bytes_transferred_store),
     true);
  fn("dram_page_switches", static_cast<double>(s.dram_page_switches), true);
  fn("branches_executed", static_cast<double>(s.branches_executed), true);
  fn("branches_divergent", static_cast<double>(s.branches_divergent), true);
  fn("issue_cycles", static_cast<double>(s.issue_cycles), true);
  fn("warp_instructions", static_cast<double>(s.warp_instructions), true);
  fn("shared_accesses", static_cast<double>(s.shared_accesses), true);
  fn("shared_cycles", static_cast<double>(s.shared_cycles), true);
  fn("shared_replay_cycles",
     static_cast<double>(s.shared_cycles >= s.shared_accesses
                             ? s.shared_cycles - s.shared_accesses
                             : 0),
     true);
  fn("num_blocks", static_cast<double>(s.num_blocks), true);
  fn("num_warps", static_cast<double>(s.num_warps), true);
  fn("regs_per_thread", static_cast<double>(s.regs_per_thread), false);
  fn("threads_per_block", static_cast<double>(s.threads_per_block), false);
  fn("shared_bytes_per_block", static_cast<double>(s.shared_bytes_per_block),
     false);
  fn("memory_access_efficiency", s.memory_access_efficiency(), false);
  fn("branch_efficiency", s.branch_efficiency(), false);
  fn("divergence_ratio", 1.0 - s.branch_efficiency(), false);
}

/// Per-block execution record for spatial attribution (telemetry::HeatmapSink).
/// `delta` holds the counters this block contributed, except DRAM page
/// switches, which are 0 at every thread count: open rows persist across
/// blocks, so a switch belongs to the launch's block order, not to a block.
struct BlockStats {
  std::int64_t block_id = 0;
  std::int64_t first_thread = 0;  ///< block_id * threads_per_block
  int threads = 0;                ///< threads in this block (last may be short)
  KernelStats delta;
};

/// Counter export hook: installed on a Device, it observes the finalized
/// KernelStats of every launch (telemetry::CounterRegistry implements this).
///
/// Sinks that also want per-block spatial data override wants_block_stats()
/// — the Device checks it once per launch and otherwise pays nothing — and
/// on_block_stats(), which MAY BE CALLED CONCURRENTLY from executor workers
/// (each block id exactly once per launch, in no particular order); the
/// override must synchronize itself. on_kernel_launch remains the single
/// serial end-of-launch call either way.
class StatsSink {
 public:
  virtual ~StatsSink() = default;
  virtual void on_kernel_launch(const KernelStats& stats) = 0;
  virtual bool wants_block_stats() const { return false; }
  virtual void on_block_stats(const BlockStats& /*block*/) {}
};

}  // namespace mog::gpusim
