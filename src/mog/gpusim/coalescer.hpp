// Global-memory coalescing model (Fermi-style).
//
// Per warp memory instruction, the active lanes' byte addresses are folded
// into memory segments:
//   * loads  — 128 B segments (L1 cache-line granularity). A small LRU
//     segment cache stands in for the per-warp slice of the 16 KB L1: with
//     ~48 resident warps contending for 128 lines, each warp effectively
//     keeps only a handful of lines alive between its own instructions —
//     exactly the eviction behaviour the paper describes for the AoS layout
//     ("the cache line holding the data will be evicted while all threads in
//     a group read their m").
//   * stores — 32 B segments, no caching (Fermi L1 is write-evict).
//
// The analyzer also tracks DRAM row locality: each transaction landing on a
// different 4 KB page than its predecessor counts a page switch, which the
// timing model charges a small activation penalty. Streaming access patterns
// pay almost nothing; the tiled kernel's frame-group gathers pay per frame.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "mog/gpusim/device_spec.hpp"
#include "mog/gpusim/stats.hpp"

namespace mog::gpusim {

/// Open-row LRU of the DRAM model: GDDR5 keeps one row open per bank across
/// many banks and channels; 32 concurrently-open rows means streaming
/// patterns (a handful of array streams) pay almost nothing while wide
/// gathers across many regions (e.g. large tiled frame groups) pay
/// activations. Row state deliberately persists across warps *and* blocks:
/// a launch counts what one LRU would count over its transactions in block
/// order.
///
/// A launch's runs of contiguous blocks each start their own empty LRU, and
/// follow() stitches them together in block order (see Device::launch). Of a
/// run's accesses, only the misses it takes while its LRU is still filling
/// (at most 32, recorded as first_misses()) can be hits given the blocks
/// before it; every later hit or miss is the same in one LRU.
class DramRowLru {
 public:
  /// Returns true when `page` is already open; opens it (LRU) otherwise.
  /// Inline: every launch consults it once per DRAM transaction.
  bool access(std::uint64_t page) {
    for (int i = 0; i < open_count_; ++i) {
      if (open_rows_[i] == page) {
        for (int j = i; j > 0; --j) open_rows_[j] = open_rows_[j - 1];
        open_rows_[0] = page;
        return true;
      }
    }
    // While the LRU fills nothing is evicted, so this is the page's first
    // touch here: rows left open before this LRU started might have held it.
    if (open_count_ < kOpenRows) first_misses_[open_count_++] = page;
    for (int j = open_count_ - 1; j > 0; --j)
      open_rows_[j] = open_rows_[j - 1];
    open_rows_[0] = page;
    return false;
  }

  /// Open rows, most recently used first.
  std::span<const std::uint64_t> open_rows() const {
    return {open_rows_, static_cast<std::size_t>(open_count_)};
  }
  /// The misses taken while the LRU filled from empty, in order; there are
  /// as many as open rows.
  std::span<const std::uint64_t> first_misses() const {
    return {first_misses_, static_cast<std::size_t>(open_count_)};
  }

  /// Continue with the accesses `run` took from an empty LRU: returns how
  /// many of its misses are hits given this LRU's rows, and leaves this LRU
  /// as one LRU over both access sequences would.
  int follow(const DramRowLru& run);

 private:
  static constexpr int kOpenRows = 32;
  std::uint64_t open_rows_[kOpenRows] = {};
  std::uint64_t first_misses_[kOpenRows] = {};
  int open_count_ = 0;
};

class SegmentCache {
 public:
  explicit SegmentCache(int capacity);

  /// Returns true on hit; inserts (LRU) on miss. Inline: consulted once per
  /// distinct load segment of every warp memory instruction.
  bool access(std::uint64_t segment_id) {
    // MRU-first linear scan; on hit, move to front.
    for (int i = 0; i < size_; ++i) {
      if (lines_[i] == segment_id) {
        for (int j = i; j > 0; --j) lines_[j] = lines_[j - 1];
        lines_[0] = segment_id;
        return true;
      }
    }
    // Miss: shift and insert at front, evicting the LRU tail.
    if (size_ < capacity_) ++size_;
    for (int j = size_ - 1; j > 0; --j) lines_[j] = lines_[j - 1];
    lines_[0] = segment_id;
    return false;
  }
  void clear();
  int capacity() const { return capacity_; }

 private:
  int capacity_;
  // Tiny capacity (≤ 16): a plain array beats any map.
  std::uint64_t lines_[16];
  int size_ = 0;
};

class Coalescer {
 public:
  Coalescer(const DeviceSpec& spec, int effective_l1_segments);

  enum class Kind { kLoad, kStore };

  /// Record one warp-level memory instruction. `addrs` are the active
  /// lanes' element byte addresses; `bytes_per_lane` the access width.
  void access(Kind kind, std::span<const std::uint64_t> addrs,
              unsigned bytes_per_lane, KernelStats& stats);

  /// Reset per-warp state (segment cache) at warp start.
  void begin_warp();

  /// Restore construction state (cold caches, no open DRAM rows) so a
  /// persistent per-worker Coalescer can be reused across launches without
  /// reallocating — equivalent to destroying and rebuilding it.
  void reset();

  /// Hand over the open-row LRU the DRAM-bound transactions since the last
  /// take_rows() or reset() built, leaving an empty one. Device::run_blocks
  /// takes it at the end of each block run for the block-order fix-up.
  DramRowLru take_rows() { return std::exchange(rows_, DramRowLru{}); }

 private:
  int load_segment_bytes_;
  int store_segment_bytes_;
  int page_bytes_;
  // Segment/page sizes are powers of two on every real device, so the
  // address→segment and segment→page maps are shifts; -1 falls back to
  // division for a hypothetical non-power-of-two spec. Hardware 64-bit
  // division dominated Coalescer::access before this (dozens per warp
  // memory instruction).
  int load_seg_shift_;
  int store_seg_shift_;
  int page_shift_;
  SegmentCache l1_;
  DramRowLru rows_;
};

}  // namespace mog::gpusim
