#include "mog/gpusim/coalescer.hpp"

#include <algorithm>
#include <bit>

#include "mog/common/error.hpp"
#include "mog/gpusim/timing_constants.hpp"
#include "mog/telemetry/sampler.hpp"

namespace mog::gpusim {

namespace {

/// Bitmask with the low `bytes` bits set; `bytes` must be ≤ 64 (checked at
/// Coalescer construction for the store-segment width, the only consumer).
inline std::uint64_t byte_mask(std::uint64_t bytes) {
  return bytes >= 64 ? ~0ull : (1ull << bytes) - 1;
}

}  // namespace

SegmentCache::SegmentCache(int capacity) : capacity_(capacity) {
  MOG_CHECK(capacity >= 1 && capacity <= 16,
            "segment cache capacity must be in [1, 16]");
  clear();
}

void SegmentCache::clear() {
  size_ = 0;
  std::fill(std::begin(lines_), std::end(lines_), ~0ull);
}

namespace {

/// log2 of `v` when it is a power of two, -1 otherwise (division fallback).
inline int shift_of(int v) {
  const auto u = static_cast<unsigned>(v);
  return std::has_single_bit(u) ? std::countr_zero(u) : -1;
}

}  // namespace

Coalescer::Coalescer(const DeviceSpec& spec, int effective_l1_segments)
    : load_segment_bytes_(spec.load_segment_bytes),
      store_segment_bytes_(spec.store_segment_bytes),
      page_bytes_(spec.dram_page_bytes),
      load_seg_shift_(shift_of(spec.load_segment_bytes)),
      store_seg_shift_(shift_of(spec.store_segment_bytes)),
      page_shift_(shift_of(spec.dram_page_bytes)),
      l1_(effective_l1_segments) {
  MOG_CHECK(spec.store_segment_bytes <= 64,
            "store coverage bitmask requires store segments of at most "
            "64 bytes");
  // access() sizes its segment list for lanes of at most 8 bytes touching at
  // most two segments each, which holds only for segments of 8 bytes or more.
  MOG_CHECK(spec.load_segment_bytes >= 8 && spec.store_segment_bytes >= 8,
            "load and store segments must be at least 8 bytes");
}

void Coalescer::begin_warp() {
  l1_.clear();
  // Open DRAM rows deliberately persist: row locality spans warps.
}

void Coalescer::reset() {
  l1_.clear();
  rows_ = DramRowLru{};
  page_trace_ = nullptr;
}

void Coalescer::access(Kind kind, std::span<const std::uint64_t> addrs,
                       unsigned bytes_per_lane, KernelStats& stats) {
  if (addrs.empty()) return;
  const telemetry::ProfSpan prof_span{telemetry::ProfTag::kCoalescerAccess};
  const bool is_load = kind == Kind::kLoad;
  const unsigned seg_bytes = static_cast<unsigned>(
      is_load ? load_segment_bytes_ : store_segment_bytes_);
  const int seg_shift = is_load ? load_seg_shift_ : store_seg_shift_;
  const auto seg_of = [seg_bytes, seg_shift](std::uint64_t a) {
    return seg_shift >= 0 ? a >> seg_shift : a / seg_bytes;
  };

  // Collect the distinct segments the active lanes touch, with per-segment
  // byte coverage. An element may straddle a segment boundary (unaligned
  // AoS doubles), so both endpoints are folded in. 32 lanes × ≤2 segments
  // keeps this a small local array. Coverage is a byte bitmask so lanes
  // writing overlapping or duplicate addresses count each byte once —
  // summing per-lane extents would let 32 lanes storing the same word claim
  // 128 bytes of a 32-byte segment and mask the ECC read-modify-write
  // charge below. Only stores consume coverage; loads skip the bookkeeping.
  //
  std::uint64_t segs[2 * kWarpSize];
  std::uint64_t covered[2 * kWarpSize];
  int n = 0;
  const auto cover = [&](int j, std::uint64_t a, std::uint64_t s) {
    const std::uint64_t lo = std::max(a, s * seg_bytes) - s * seg_bytes;
    const std::uint64_t hi =
        std::min(a + bytes_per_lane, (s + 1) * seg_bytes) - s * seg_bytes;
    covered[j] |= byte_mask(hi - lo) << lo;
  };
  // Warp memory instructions overwhelmingly issue non-decreasing lane
  // addresses (SoA streams and uniform-stride AoS gathers alike), making
  // the segment sequence non-decreasing too — then comparing against the
  // last-recorded segment is a complete dedupe. Detect that cheaply and
  // keep the general path (arbitrary scatter) on a small open-addressed
  // index table instead of a per-lane linear scan (O(n²) across the warp).
  // The SoA layout (Step B) goes further: nearly every access is a
  // unit-stride run, lane i at a0 + i * bytes_per_lane, whose footprint is
  // the one byte interval [a0, end). Its segments, coverage and replay lines
  // follow in closed form, with no per-lane walk.
  bool monotone = true;
  bool unit_stride = bytes_per_lane != 0;
  for (std::size_t i = 1; i < addrs.size(); ++i) {
    monotone &= addrs[i] >= addrs[i - 1];
    unit_stride &= addrs[i] - addrs[i - 1] == bytes_per_lane;
  }

  const std::uint64_t requested =
      static_cast<std::uint64_t>(addrs.size()) * bytes_per_lane;
  std::uint64_t transactions = 0;
  std::uint64_t rmw_reads = 0;
  // DRAM page of the last transaction this instruction recorded (~0 is no
  // page: addresses are far below 2^64 bytes).
  std::uint64_t last_page = ~0ull;
  // One segment in visit order: the L1 LRU for loads, the ECC
  // read-modify-write test for stores (`partial`: not every byte of the
  // segment is written), then the DRAM row model.
  const auto emit = [&](std::uint64_t s, bool partial) {
    if (is_load && l1_.access(s)) return;  // L1 hit: no traffic
    ++transactions;
    // ECC read-modify-write: the C2075 runs with ECC on, so a store that
    // covers only part of a segment forces the memory system to read the
    // segment, merge, and write it back — the hidden cost of masked,
    // scattered stores that the predicated variants avoid.
    if (!is_load && partial) ++rmw_reads;
    const std::uint64_t seg_base = s * seg_bytes;
    const std::uint64_t page = page_shift_ >= 0
                                   ? seg_base >> page_shift_
                                   : seg_base / page_bytes_;
    // The page just recorded is the open-row LRU's MRU entry: seeing it
    // again is a hit that leaves the LRU as it was, so neither the inline
    // LRU nor the block-order trace replay needs it (a 256-byte store would
    // otherwise record its one page eight times).
    if (page == last_page) return;
    last_page = page;
    if (page_trace_ != nullptr)
      page_trace_->push_back(page);
    else if (!rows_.access(page))
      ++stats.dram_page_switches;
  };

  // Distinct 128-byte L1 lines touched, for the LSU instruction-replay
  // charge below. On the monotone path they are counted as boundary
  // crossings in the same pass as the segments; the scatter path dedupes
  // with a sorted-insertion pass afterwards.
  int replay_lines = 0;
  if (unit_stride) {
    const std::uint64_t a0 = addrs[0];
    const std::uint64_t end = a0 + requested;
    replay_lines = static_cast<int>((end - 1) / 128 - a0 / 128 + 1);
    const std::uint64_t last = seg_of(end - 1);
    for (std::uint64_t s = seg_of(a0); s <= last; ++s)
      emit(s, a0 > s * seg_bytes || end < (s + 1) * seg_bytes);
  } else if (monotone) {
    std::uint64_t prev_line = 0;
    for (const std::uint64_t a : addrs) {
      const std::uint64_t first = seg_of(a);
      const std::uint64_t last = seg_of(a + bytes_per_lane - 1);
      for (std::uint64_t s = first; s <= last; ++s) {
        if (n == 0 || segs[n - 1] != s) {
          segs[n] = s;
          covered[n] = 0;
          ++n;
        }
        if (!is_load) cover(n - 1, a, s);
      }
      // prev_line is the highest line counted so far; with non-decreasing
      // addresses any line ≤ prev_line was already touched by an earlier
      // element (whose interval reached prev_line), so "new" is exactly
      // "> prev_line" — including line_last when consecutive elements
      // straddle the same boundary.
      const std::uint64_t line_first = a / 128;
      const std::uint64_t line_last = (a + bytes_per_lane - 1) / 128;
      if (replay_lines == 0 || line_first > prev_line) {
        ++replay_lines;
        prev_line = line_first;
      }
      if (line_last > prev_line) {
        ++replay_lines;
        prev_line = line_last;
      }
    }
  } else {
    // slot[] maps a segment hash to its position in segs[]+1. n ≤ 64
    // against 128 slots keeps probes short, and segs[] still records
    // first-touch order — the L1 lookup below is an LRU, so segment visit
    // order is semantically load-bearing.
    std::uint8_t slot[128] = {};
    for (const std::uint64_t a : addrs) {
      const std::uint64_t first = seg_of(a);
      const std::uint64_t last = seg_of(a + bytes_per_lane - 1);
      for (std::uint64_t s = first; s <= last; ++s) {
        int j;
        if (n > 0 && segs[n - 1] == s) {
          j = n - 1;
        } else {
          std::uint64_t h = s & 127u;
          while (slot[h] != 0 && segs[slot[h] - 1] != s) h = (h + 1) & 127u;
          if (slot[h] == 0) {
            segs[n] = s;
            covered[n] = 0;
            slot[h] = static_cast<std::uint8_t>(n + 1);
            j = n++;
          } else {
            j = slot[h] - 1;
          }
        }
        if (!is_load) cover(j, a, s);
      }
    }
    // Replay-line dedupe for the scatter path: only the count of distinct
    // lines matters, so a sorted-insertion pass replaces the historical
    // sort+unique.
    std::uint64_t lines[2 * kWarpSize];
    int m = 0;
    const auto add_line = [&lines, &m](std::uint64_t v) {
      int k = m;
      while (k > 0 && lines[k - 1] > v) --k;
      if (k > 0 && lines[k - 1] == v) return;  // duplicate line
      for (int t = m; t > k; --t) lines[t] = lines[t - 1];
      lines[k] = v;
      ++m;
    };
    for (const std::uint64_t a : addrs) {
      add_line(a / 128);
      const std::uint64_t last = (a + bytes_per_lane - 1) / 128;
      if (last != a / 128) add_line(last);
    }
    replay_lines = m;
  }
  for (int i = 0; i < n; ++i)
    emit(segs[i], covered[i] != byte_mask(seg_bytes));

  // Instruction replay: the LSU re-issues the instruction once per 128-byte
  // L1 line beyond the first, regardless of access kind (store segments are
  // 32 B for traffic purposes, but replay granularity is the line).
  if (replay_lines > 1) {
    stats.issue_cycles +=
        static_cast<std::uint64_t>(replay_lines - 1) * kCyclesLsuReplay;
  }

  if (is_load) {
    ++stats.load_instructions;
    stats.load_transactions += transactions;
    stats.bytes_requested_load += requested;
    stats.bytes_transferred_load += transactions * seg_bytes;
  } else {
    ++stats.store_instructions;
    stats.store_transactions += transactions;
    stats.rmw_transactions += rmw_reads;
    stats.bytes_requested_store += requested;
    stats.bytes_transferred_store +=
        (transactions + rmw_reads) * seg_bytes;
  }
}

}  // namespace mog::gpusim
