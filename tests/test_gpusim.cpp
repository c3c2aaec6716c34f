// Tests for the GPU simulator: device memory, coalescing analysis (known
// address patterns → exact transaction counts), divergence accounting,
// masked commits, register tracking, shared-memory bank conflicts, the
// occupancy calculator (checked against CUDA occupancy rules for cc2.0),
// the timing model, and the transfer schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mog/gpusim/kernel_launch.hpp"
#include "mog/gpusim/occupancy.hpp"
#include "mog/gpusim/timing_model.hpp"
#include "mog/gpusim/transfer_model.hpp"
#include "mog/pipeline/experiment.hpp"

namespace mog::gpusim {
namespace {

// ---------------------------------------------------------------------------
// DeviceMemory
// ---------------------------------------------------------------------------

TEST(DeviceMemory, AllocatesAlignedDisjointRegions) {
  DeviceMemory mem{1 << 20};
  const auto a = mem.alloc<double>(100);
  const auto b = mem.alloc<double>(100);
  EXPECT_EQ(a.dev_addr % 256, 0u);
  EXPECT_EQ(b.dev_addr % 256, 0u);
  EXPECT_GE(b.dev_addr, a.dev_addr + 100 * sizeof(double));
  EXPECT_NE(a.data, b.data);
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  DeviceMemory mem{1024};
  EXPECT_THROW(mem.alloc<double>(1000), Error);
}

TEST(DeviceMemory, CopyRoundTrip) {
  DeviceMemory mem{1 << 16};
  auto span = mem.alloc<int>(16);
  std::vector<int> src(16);
  std::iota(src.begin(), src.end(), 0);
  EXPECT_EQ(copy_to_device(span, src.data(), 16), 16 * sizeof(int));
  std::vector<int> dst(16, -1);
  EXPECT_EQ(copy_from_device(dst.data(), span, 16), 16 * sizeof(int));
  EXPECT_EQ(src, dst);
}

TEST(DeviceMemory, SubspanAddressing) {
  DeviceMemory mem{1 << 16};
  const auto span = mem.alloc<double>(64);
  const auto sub = span.subspan(8, 16);
  EXPECT_EQ(sub.dev_addr, span.dev_addr + 8 * sizeof(double));
  EXPECT_EQ(sub.count, 16u);
  EXPECT_THROW(span.subspan(60, 8), Error);
}

// ---------------------------------------------------------------------------
// Coalescer
// ---------------------------------------------------------------------------

KernelStats run_access(Coalescer::Kind kind,
                       const std::vector<std::uint64_t>& addrs,
                       unsigned bytes_per_lane) {
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats stats;
  c.access(kind, addrs, bytes_per_lane, stats);
  return stats;
}

TEST(Coalescer, FullyCoalescedDoubleLoadIsTwoSegments) {
  // 32 consecutive doubles starting at a 128 B boundary: exactly two 128 B
  // load transactions, 100% efficiency.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 8 * i);
  const KernelStats s = run_access(Coalescer::Kind::kLoad, addrs, 8);
  EXPECT_EQ(s.load_transactions, 2u);
  EXPECT_EQ(s.bytes_requested_load, 256u);
  EXPECT_EQ(s.bytes_transferred_load, 256u);
  EXPECT_DOUBLE_EQ(s.memory_access_efficiency(), 1.0);
}

TEST(Coalescer, StridedAoSLoadWastesBandwidth) {
  // The paper's Fig. 4a: 72-byte stride (3 components x 3 params x 8 B)
  // spans 2304 B = 18 segments of 128 B for 256 useful bytes ≈ 11%.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 72 * i);
  const KernelStats s = run_access(Coalescer::Kind::kLoad, addrs, 8);
  EXPECT_EQ(s.load_transactions, 18u);
  EXPECT_NEAR(s.memory_access_efficiency(), 256.0 / (18 * 128), 1e-12);
}

TEST(Coalescer, CoalescedStoreUses32ByteSegments) {
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x20000 + 8 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 8);
  EXPECT_EQ(s.store_transactions, 8u);  // 256 B / 32 B
  EXPECT_EQ(s.rmw_transactions, 0u);    // fully covered: no ECC RMW
  EXPECT_DOUBLE_EQ(s.memory_access_efficiency(), 1.0);
}

TEST(Coalescer, PartialStoreTriggersEccReadModifyWrite) {
  // Every second lane stores: each 32 B segment is half-covered, so every
  // store transaction drags an RMW read along.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 16; ++i) addrs.push_back(0x20000 + 16 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 8);
  EXPECT_EQ(s.store_transactions, 8u);
  EXPECT_EQ(s.rmw_transactions, 8u);
  // transferred = 8 writes + 8 RMW reads, requested = 128 B.
  EXPECT_NEAR(s.memory_access_efficiency(), 128.0 / (16 * 32), 1e-12);
}

TEST(Coalescer, DuplicateLaneStoresCountCoverageOnce) {
  // 32 lanes all storing the same 4-byte word: one 32 B store segment with
  // only 4 of 32 bytes covered → the ECC read-modify-write must fire.
  // Summed per-lane extents would claim 128 bytes of coverage and mask it.
  std::vector<std::uint64_t> addrs(32, 0x20000);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 4);
  EXPECT_EQ(s.store_transactions, 1u);
  EXPECT_EQ(s.rmw_transactions, 1u);
}

TEST(Coalescer, OverlappingStoreExtentsDedupeByteCoverage) {
  // Lanes 0..15 write overlapping 4-byte spans at stride 2 covering bytes
  // [0, 34): segment 0 is fully covered (no RMW), segment 1 only holds two
  // bytes (RMW). The summed-extent bug saw 64 bytes on segment 0 either way,
  // but also masked genuinely partial patterns like segment 1's.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 16; ++i) addrs.push_back(0x20000 + 2 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 4);
  EXPECT_EQ(s.store_transactions, 2u);
  EXPECT_EQ(s.rmw_transactions, 1u);
}

TEST(Coalescer, L1WindowServesImmediateReuse) {
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats s;
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 8 * i);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  EXPECT_EQ(s.load_transactions, 2u);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);  // same lines again
  EXPECT_EQ(s.load_transactions, 2u) << "second access must hit L1";
}

TEST(Coalescer, L1WindowThrashesOnWideFootprints) {
  // An 18-segment AoS access evicts everything (capacity 4): re-reading the
  // same addresses misses again — the paper's AoS eviction behaviour.
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats s;
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 72 * i);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  EXPECT_EQ(s.load_transactions, 36u);
}

TEST(Coalescer, InactiveWarpEmitsNothing) {
  const KernelStats s = run_access(Coalescer::Kind::kLoad, {}, 8);
  EXPECT_EQ(s.load_transactions, 0u);
  EXPECT_EQ(s.load_instructions, 0u);
}

TEST(Coalescer, LsuReplayCountsDistinctLinesOnce) {
  // Two ascending unaligned 8-byte accesses both straddling the same 128 B
  // line boundary: lines {0, 1} are touched, so the replay charge is one
  // re-issue — the monotone fast path must not recount the shared line_last
  // per element.
  const KernelStats s =
      run_access(Coalescer::Kind::kLoad, {0x10000 + 124, 0x10000 + 126}, 8);
  const KernelStats one =
      run_access(Coalescer::Kind::kLoad, {0x10000 + 124}, 8);
  EXPECT_EQ(s.issue_cycles - one.issue_cycles, 0u)
      << "second straddler touches no new line: no extra replay";
}

TEST(Coalescer, LsuReplayMatchesBetweenMonotoneAndScatterOrder) {
  // The same address multiset must charge the same replay cycles whether the
  // lanes issue it ascending (monotone fast path) or permuted (scatter
  // path): distinct-line count is order-independent.
  std::vector<std::uint64_t> asc;
  for (int i = 0; i < 32; ++i) asc.push_back(0x30000 + 124 + 2 * i);
  std::vector<std::uint64_t> perm = asc;
  std::swap(perm[0], perm[31]);
  std::swap(perm[5], perm[17]);
  const KernelStats a = run_access(Coalescer::Kind::kLoad, asc, 8);
  const KernelStats b = run_access(Coalescer::Kind::kLoad, perm, 8);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
}

TEST(Coalescer, RejectsSegmentsUnderEightBytes) {
  // An unaligned 8-byte lane spans three 4-byte segments, overflowing the
  // two-segments-per-lane bound access() sizes its segment list by.
  DeviceSpec spec;
  spec.store_segment_bytes = 4;
  EXPECT_THROW((Coalescer{spec, kEffectiveL1SegmentsPerWarp}), Error);
  spec = DeviceSpec{};
  spec.load_segment_bytes = 4;
  EXPECT_THROW((Coalescer{spec, kEffectiveL1SegmentsPerWarp}), Error);
  spec.load_segment_bytes = 8;
  spec.store_segment_bytes = 8;
  EXPECT_NO_THROW((Coalescer{spec, kEffectiveL1SegmentsPerWarp}));
}

/// Oracle for the unit-stride closed form: the coalescer's per-lane
/// monotone walk, segment by segment, passing every DRAM-bound page
/// (repeats included) through the open-row LRU.
class LaneWalkReference {
 public:
  void begin_warp() { l1_.clear(); }

  void access(Coalescer::Kind kind, const std::vector<std::uint64_t>& addrs,
              unsigned bytes_per_lane, KernelStats& stats) {
    const DeviceSpec spec;
    const bool is_load = kind == Coalescer::Kind::kLoad;
    const std::uint64_t seg_bytes = static_cast<std::uint64_t>(
        is_load ? spec.load_segment_bytes : spec.store_segment_bytes);
    const auto page_bytes = static_cast<std::uint64_t>(spec.dram_page_bytes);
    std::vector<std::uint64_t> segs;
    std::vector<std::uint64_t> covered;
    int replay_lines = 0;
    std::uint64_t prev_line = 0;
    for (const std::uint64_t a : addrs) {
      for (std::uint64_t s = a / seg_bytes;
           s <= (a + bytes_per_lane - 1) / seg_bytes; ++s) {
        if (segs.empty() || segs.back() != s) {
          segs.push_back(s);
          covered.push_back(0);
        }
        if (is_load) continue;  // coverage is a 32-bit mask for stores only
        const std::uint64_t lo = std::max(a, s * seg_bytes) - s * seg_bytes;
        const std::uint64_t hi =
            std::min(a + bytes_per_lane, (s + 1) * seg_bytes) - s * seg_bytes;
        covered.back() |= ((1ull << (hi - lo)) - 1) << lo;  // hi - lo ≤ 8
      }
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
    const std::uint64_t full = is_load ? 0 : (1ull << seg_bytes) - 1;
    std::uint64_t transactions = 0;
    std::uint64_t rmw_reads = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (is_load && l1_.access(segs[i])) continue;
      ++transactions;
      if (!is_load && covered[i] != full) ++rmw_reads;
      const std::uint64_t page = segs[i] * seg_bytes / page_bytes;
      if (!rows_.access(page)) ++stats.dram_page_switches;
    }
    if (replay_lines > 1)
      stats.issue_cycles +=
          static_cast<std::uint64_t>(replay_lines - 1) * kCyclesLsuReplay;
    const std::uint64_t requested = addrs.size() * bytes_per_lane;
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
      stats.bytes_transferred_store += (transactions + rmw_reads) * seg_bytes;
    }
  }

 private:
  SegmentCache l1_{kEffectiveL1SegmentsPerWarp};
  DramRowLru rows_;
};

/// Every exported counter plus the raw requested bytes, as "name=value"
/// lines, so a mismatch prints the differing field.
std::string stats_text(const KernelStats& s) {
  std::ostringstream out;
  visit_metrics(s, [&out](const char* name, double v, bool) {
    out << name << '=' << v << '\n';
  });
  out << "bytes_requested_load=" << s.bytes_requested_load << '\n'
      << "bytes_requested_store=" << s.bytes_requested_store << '\n';
  return out.str();
}

TEST(Coalescer, UnitStrideClosedFormMatchesLaneWalk) {
  // Seeded random unit-stride runs (1-32 lanes of 1/2/4/8 bytes, loads and
  // stores) whose bases sit at random offsets around 32-, 128- and
  // 4096-byte boundaries, so runs straddle store segments, load segments /
  // replay lines and DRAM pages. The L1 window and open rows carry across
  // accesses; every counter must match the per-lane walk after every access.
  constexpr unsigned kLaneBytes[] = {1, 2, 4, 8};
  constexpr std::uint64_t kBoundaries[] = {32, 128, 4096};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng{seed};
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    DeviceSpec spec;
    Coalescer fast{spec, kEffectiveL1SegmentsPerWarp};
    LaneWalkReference ref;
    fast.begin_warp();
    ref.begin_warp();
    KernelStats fast_stats;
    KernelStats ref_stats;
    for (int c = 0; c < 64; ++c) {
      if (pick(8) == 0) {
        fast.begin_warp();
        ref.begin_warp();
      }
      const auto kind =
          pick(2) == 0 ? Coalescer::Kind::kLoad : Coalescer::Kind::kStore;
      const unsigned bytes = kLaneBytes[pick(4)];
      const std::uint64_t lanes = 1 + pick(32);
      const std::uint64_t boundary = kBoundaries[pick(3)];
      // A run ending at, crossing or starting at a boundary, somewhere in
      // 64 pages: more pages than the 32 open rows.
      const std::uint64_t boundary_at =
          0x100000 + boundary * (1 + pick(64 * 4096 / boundary));
      const std::uint64_t base = boundary_at - pick(lanes * bytes + 1);
      std::vector<std::uint64_t> addrs;
      for (std::uint64_t i = 0; i < lanes; ++i)
        addrs.push_back(base + i * bytes);
      fast.access(kind, addrs, bytes, fast_stats);
      ref.access(kind, addrs, bytes, ref_stats);
      ASSERT_EQ(stats_text(fast_stats), stats_text(ref_stats))
          << "seed " << seed << " case " << c << ": "
          << (kind == Coalescer::Kind::kLoad ? "load" : "store") << " of "
          << lanes << " x " << bytes << " B at 0x" << std::hex << base;
    }
  }
}

TEST(DramRowLru, RunsFollowedInOrderMatchOneLru) {
  // Seeded page sequences of three shapes (uniform over up to 100 pages,
  // streams that stay on a page or step to the next with an occasional
  // jump, and repeats within a few pages), each cut at random points into
  // runs that start from an empty LRU, as a launch's block runs do. Following the runs in order must give
  // what one LRU over the whole sequence gives: the same misses, open rows
  // and first misses.
  for (std::uint64_t seed = 1; seed <= 20000; ++seed) {
    std::mt19937_64 rng{seed};
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    const std::uint64_t shape = seed % 3;
    const std::uint64_t pages = 1 + pick(shape == 2 ? 8 : 100);
    std::vector<std::uint64_t> seq(pick(300));
    std::uint64_t page = pick(pages);
    for (std::uint64_t& p : seq) {
      if (shape == 0)
        page = pick(pages);
      else if (shape == 1)
        page = pick(8) == 0 ? pick(4 * pages) : page + pick(2);
      else
        page = 1000 + pick(pages);
      p = page;
    }

    DramRowLru whole;
    int whole_misses = 0;
    for (const std::uint64_t p : seq) whole_misses += whole.access(p) ? 0 : 1;

    DramRowLru carried;
    int misses = 0;
    std::size_t begin = 0;
    while (begin < seq.size()) {
      const std::size_t end = std::min(seq.size(), begin + 1 + pick(80));
      DramRowLru run;
      for (std::size_t i = begin; i < end; ++i)
        misses += run.access(seq[i]) ? 0 : 1;
      misses -= carried.follow(run);
      begin = end;
    }
    ASSERT_EQ(misses, whole_misses) << "seed " << seed;
    ASSERT_TRUE(std::ranges::equal(carried.open_rows(), whole.open_rows()))
        << "seed " << seed;
    ASSERT_TRUE(
        std::ranges::equal(carried.first_misses(), whole.first_misses()))
        << "seed " << seed;
  }
}

TEST(SegmentCache, LruEviction) {
  SegmentCache cache{2};
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
  EXPECT_TRUE(cache.access(1));   // still resident, now MRU
  EXPECT_FALSE(cache.access(3));  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
}

// ---------------------------------------------------------------------------
// Warp execution
// ---------------------------------------------------------------------------

/// Harness: run `fn(WarpCtx&)` as a single full warp and return the stats.
template <typename Fn>
KernelStats run_warp(Fn&& fn, int lanes = 32) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = lanes;
  cfg.threads_per_block = 32;
  return dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { fn(w); });
  });
}

TEST(Warp, ElementwiseArithmetic) {
  run_warp([](WarpCtx&) {
    Vec<double> a = Vec<double>::iota(0.0);
    Vec<double> b(2.0);
    const Vec<double> sum = a + b;
    const Vec<double> prod = a * b;
    EXPECT_DOUBLE_EQ(sum[5], 7.0);
    EXPECT_DOUBLE_EQ(prod[5], 10.0);
    EXPECT_DOUBLE_EQ(vabs(a - Vec<double>(31.0))[0], 31.0);
    EXPECT_DOUBLE_EQ(vsqrt(Vec<double>(16.0))[3], 4.0);
    EXPECT_DOUBLE_EQ(vfma(a, b, b)[4], 10.0);
    EXPECT_DOUBLE_EQ(vmax(a, Vec<double>(10.0))[3], 10.0);
    EXPECT_DOUBLE_EQ(vmin(a, Vec<double>(10.0))[3], 3.0);
  });
}

TEST(Warp, PredicatesAndSelect) {
  run_warp([](WarpCtx&) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    const Pred low = vlt(lane, 16);
    EXPECT_TRUE(low.lane(3));
    EXPECT_FALSE(low.lane(20));
    const Vec<int32_t> sel = select(low, Vec<int32_t>(1), Vec<int32_t>(0));
    EXPECT_EQ(sel[3], 1);
    EXPECT_EQ(sel[20], 0);
    EXPECT_TRUE((low & ~low).bits == 0u);
    EXPECT_TRUE((low | ~low).bits == 0xffffffffu);
  });
}

TEST(Warp, DivergentBranchExecutesBothPathsUnderMask) {
  KernelStats s = run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    Vec<int32_t> out(0);
    int then_runs = 0, else_runs = 0;
    w.if_then_else(
        vlt(lane, 8),
        [&] {
          ++then_runs;
          w.set(out, Vec<int32_t>(1));
        },
        [&] {
          ++else_runs;
          w.set(out, Vec<int32_t>(2));
        });
    EXPECT_EQ(then_runs, 1);
    EXPECT_EQ(else_runs, 1);
    EXPECT_EQ(out[3], 1);   // then-path lanes
    EXPECT_EQ(out[20], 2);  // else-path lanes
  });
  EXPECT_EQ(s.branches_executed, 1u);
  EXPECT_EQ(s.branches_divergent, 1u);
}

TEST(Warp, UniformBranchIsNotDivergent) {
  KernelStats s = run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    int runs = 0;
    w.if_then(vlt(lane, 64), [&] { ++runs; });  // all lanes taken
    w.if_then(vlt(lane, -1), [&] { ++runs; });  // no lane taken
    EXPECT_EQ(runs, 1);
  });
  EXPECT_EQ(s.branches_executed, 2u);
  EXPECT_EQ(s.branches_divergent, 0u);
}

TEST(Warp, NestedMasksCompose) {
  run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    Vec<int32_t> out(0);
    w.if_then(vlt(lane, 16), [&] {
      w.if_then(vge(lane, 8), [&] { w.set(out, Vec<int32_t>(7)); });
    });
    EXPECT_EQ(out[4], 0);
    EXPECT_EQ(out[12], 7);
    EXPECT_EQ(out[20], 0);
  });
}

TEST(Warp, MaskRestoredAfterBranch) {
  run_warp([](WarpCtx& w) {
    const std::uint32_t before = w.active_mask();
    w.if_then(vlt(Vec<int32_t>::iota(0), 4), [] {});
    EXPECT_EQ(w.active_mask(), before);
  });
}

TEST(Warp, WhileAnyDropsLanesOut) {
  KernelStats s = run_warp([](WarpCtx& w) {
    Vec<int32_t> remaining = Vec<int32_t>::iota(0);  // lane i loops i times
    Vec<int32_t> count(0);
    w.while_any([&] { return vgt(remaining, 0); },
                [&] {
                  w.set(count, count + Vec<int32_t>(1));
                  w.set(remaining, remaining - Vec<int32_t>(1));
                });
    EXPECT_EQ(count[0], 0);
    EXPECT_EQ(count[5], 5);
    EXPECT_EQ(count[31], 31);
    EXPECT_EQ(w.active_count(), 32);  // mask restored
  });
  // 32 loop-condition evaluations; every one except the final all-false
  // evaluation drops some-but-not-all lanes, i.e. diverges.
  EXPECT_EQ(s.branches_executed, 32u);
  EXPECT_EQ(s.branches_divergent, 31u);
}

TEST(Warp, RaggedLastWarpMasksHighLanes) {
  KernelStats s = run_warp(
      [](WarpCtx& w) {
        EXPECT_EQ(w.active_count(), 10);
        EXPECT_EQ(w.active_mask(), (1u << 10) - 1);
      },
      /*lanes=*/10);
  EXPECT_EQ(s.num_warps, 1u);
}

TEST(Warp, GlobalIdsFollowBlockDecomposition) {
  // Serial executor: the test records warp bases into a host vector and
  // asserts their order, which is only defined for single-threaded launches.
  DeviceSpec spec;
  spec.executor_threads = 1;
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 256;
  cfg.threads_per_block = 64;
  std::vector<std::int64_t> bases;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { bases.push_back(w.global_base()); });
  });
  EXPECT_EQ(bases, (std::vector<std::int64_t>{0, 32, 64, 96, 128, 160, 192,
                                              224}));
}

TEST(Warp, LoadStoreRoundTripAndCounters) {
  Device dev;
  auto buf = dev.memory().alloc<double>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = i;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  const KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      Vec<double> v = w.load<double>(buf, idx);
      EXPECT_DOUBLE_EQ(v[7], 7.0);
      w.store(buf, idx, v + Vec<double>(1.0));
    });
  });
  EXPECT_DOUBLE_EQ(buf.data[7], 8.0);
  EXPECT_EQ(s.load_instructions, 1u);
  EXPECT_EQ(s.store_instructions, 1u);
  EXPECT_EQ(s.load_transactions, 2u);
  EXPECT_EQ(s.store_transactions, 8u);
}

TEST(Warp, MaskedStoreOnlyTouchesActiveLanes) {
  Device dev;
  auto buf = dev.memory().alloc<int>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = -1;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      w.if_then(vlt(Vec<int32_t>::iota(0), 4),
                [&] { w.store(buf, idx, Vec<int32_t>(9)); });
    });
  });
  EXPECT_EQ(buf.data[0], 9);
  EXPECT_EQ(buf.data[3], 9);
  EXPECT_EQ(buf.data[4], -1);
}

TEST(Warp, OutOfBoundsAccessIsCaught) {
  Device dev;
  auto buf = dev.memory().alloc<int>(16);
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  EXPECT_THROW(dev.launch(cfg,
                          [&](BlockCtx& blk) {
                            blk.parallel([&](WarpCtx& w) {
                              w.load<int>(buf, w.global_ids());
                            });
                          }),
               Error);
}

TEST(Warp, IotaAndCast) {
  run_warp([](WarpCtx&) {
    const Vec<int32_t> stepped = Vec<int32_t>::iota(10, 3);
    EXPECT_EQ(stepped[0], 10);
    EXPECT_EQ(stepped[4], 22);
    const Vec<double> as_double = vcast<double>(stepped);
    EXPECT_DOUBLE_EQ(as_double[4], 22.0);
    const Vec<int32_t> truncated = vcast<int32_t>(Vec<double>(3.9));
    EXPECT_EQ(truncated[7], 3);
  });
}

TEST(Warp, FloatArithmeticChargesLessThanDouble) {
  const KernelStats f32 = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f), b(2.0f);
    for (int i = 0; i < 10; ++i) a = a * b + b;
  });
  const KernelStats f64 = run_warp([](WarpCtx&) {
    Vec<double> a(1.0), b(2.0);
    for (int i = 0; i < 10; ++i) a = a * b + b;
  });
  EXPECT_LT(f32.issue_cycles, f64.issue_cycles);
}

TEST(Warp, DivisionAndSqrtAreExpensive) {
  const KernelStats cheap = run_warp([](WarpCtx&) {
    Vec<double> a(5.0), b(2.0);
    (void)(a * b);
  });
  const KernelStats costly = run_warp([](WarpCtx&) {
    Vec<double> a(5.0), b(2.0);
    (void)(a / b);
    (void)vsqrt(a);
  });
  EXPECT_GT(costly.issue_cycles, 10 * cheap.issue_cycles);
}

TEST(Warp, DivisionByZeroLanesStayFinite) {
  run_warp([](WarpCtx&) {
    Vec<double> num(4.0), den(0.0);
    const Vec<double> q = num / den;
    EXPECT_DOUBLE_EQ(q[0], 0.0);  // guarded, not inf/NaN
    EXPECT_DOUBLE_EQ((4.0 / Vec<double>(2.0))[3], 2.0);
  });
}

TEST(Warp, LaneMaxReduction) {
  run_warp([](WarpCtx& w) {
    const Vec<int32_t> v = Vec<int32_t>::iota(0);
    EXPECT_EQ(w.lane_max(v), 31);
    w.if_then(vlt(v, 5), [&] { EXPECT_EQ(w.lane_max(v), 4); });
    w.if_then(vlt(v, -1), [&] { FAIL() << "no lanes active"; });
  });
}

TEST(Warp, PartialWarpLoadLeavesInactiveLanesZero) {
  Device dev;
  auto buf = dev.memory().alloc<double>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = 7.0;
  LaunchConfig cfg;
  cfg.num_threads = 8;  // only 8 lanes active
  cfg.threads_per_block = 32;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<double> v = w.load<double>(buf, w.global_ids());
      EXPECT_DOUBLE_EQ(v[3], 7.0);
      EXPECT_DOUBLE_EQ(v[20], 0.0);
    });
  });
}

TEST(Stats, AveragedOverDividesExtensiveCounters) {
  KernelStats s;
  s.issue_cycles = 100;
  s.load_transactions = 40;
  s.regs_per_thread = 33;
  s.num_warps = 10;
  const KernelStats avg = s.averaged_over(10);
  EXPECT_EQ(avg.issue_cycles, 10u);
  EXPECT_EQ(avg.load_transactions, 4u);
  EXPECT_EQ(avg.num_warps, 1u);
  EXPECT_EQ(avg.regs_per_thread, 33);  // intensive: unchanged
}

TEST(Stats, AccumulateTakesMaxOfResources) {
  KernelStats a, b;
  a.regs_per_thread = 30;
  a.shared_bytes_per_block = 1024;
  b.regs_per_thread = 35;
  b.shared_bytes_per_block = 512;
  a += b;
  EXPECT_EQ(a.regs_per_thread, 35);
  EXPECT_EQ(a.shared_bytes_per_block, 1024u);
}

TEST(Stats, CounterTableDrivesEveryAdditiveOperation) {
  // Distinct members and names: with the size static_assert next to the
  // table, the table is exactly the additive fields of KernelStats.
  for (std::size_t i = 0; i < std::size(kKernelCounters); ++i)
    for (std::size_t j = i + 1; j < std::size(kKernelCounters); ++j) {
      EXPECT_NE(kKernelCounters[i].field, kKernelCounters[j].field);
      EXPECT_STRNE(kKernelCounters[i].name, kKernelCounters[j].name);
    }

  for (int seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    const auto fill = [&rng](KernelStats& s) {
      for (const KernelCounter& c : kKernelCounters)
        s.*c.field = rng() >> 24;  // headroom for sums and rescaling
      s.shared_bytes_per_block = rng() % 49152;
      s.regs_per_thread = static_cast<int>(rng() % 64);
      s.threads_per_block = 128;
    };
    KernelStats a, b;
    fill(a);
    fill(b);
    const auto same_resources = [](const KernelStats& x, const KernelStats& y) {
      return x.shared_bytes_per_block == y.shared_bytes_per_block &&
             x.regs_per_thread == y.regs_per_thread &&
             x.threads_per_block == y.threads_per_block;
    };

    // a += b, then counters_since(old a) gives b back; resources take the
    // max and pass through the difference.
    const KernelStats before = a;
    a += b;
    const KernelStats d = a.counters_since(before);
    for (const KernelCounter& c : kKernelCounters)
      EXPECT_EQ(d.*c.field, b.*c.field) << c.name << ", seed " << seed;
    const std::uint64_t max_shared =
        std::max(before.shared_bytes_per_block, b.shared_bytes_per_block);
    EXPECT_EQ(a.shared_bytes_per_block, max_shared);
    EXPECT_EQ(a.regs_per_thread,
              std::max(before.regs_per_thread, b.regs_per_thread));
    EXPECT_TRUE(same_resources(d, a)) << "seed " << seed;

    // averaged_over(n) of an n-fold sum is the original.
    const std::uint64_t n = 1 + rng() % 16;
    KernelStats sum;
    for (std::uint64_t i = 0; i < n; ++i) sum += b;
    const KernelStats avg = sum.averaged_over(n);
    for (const KernelCounter& c : kKernelCounters)
      EXPECT_EQ(avg.*c.field, b.*c.field) << c.name << ", seed " << seed;
    EXPECT_TRUE(same_resources(avg, b)) << "seed " << seed;

    // scale_stats rounds each counter to nearest; resources untouched.
    const double ratio = 0.25 + static_cast<double>(rng() % 1000) / 100.0;
    const KernelStats scaled = scale_stats(b, ratio);
    for (const KernelCounter& c : kKernelCounters) {
      const double v = static_cast<double>(b.*c.field) * ratio;
      EXPECT_EQ(scaled.*c.field, static_cast<std::uint64_t>(std::llround(v)))
          << c.name << ", seed " << seed;
    }
    EXPECT_TRUE(same_resources(scaled, b)) << "seed " << seed;
  }
}

TEST(Occupancy, EmbeddedSpecUsesKeplerLimits) {
  const DeviceSpec spec = embedded_device_spec();
  EXPECT_EQ(spec.max_warps_per_sm, 64);
  // 32 regs, 128 tpb on Kepler: the 16-block limit binds first.
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 16);
  EXPECT_EQ(occ.warps_per_sm, 64);
  EXPECT_NEAR(occ.theoretical, 1.0, 1e-12);
}

TEST(Warp, RegisterTrackingSeesLiveVecs) {
  KernelStats few = run_warp([](WarpCtx&) {
    Vec<double> a(1.0), b(2.0);
    (void)(a + b);
  });
  KernelStats many = run_warp([](WarpCtx&) {
    std::vector<Vec<double>> arrs(8, Vec<double>(1.0));
    Vec<double> acc(0.0);
    for (auto& a : arrs) acc = acc + a;
  });
  EXPECT_GT(many.regs_per_thread, few.regs_per_thread);
}

TEST(Warp, VecConstructedOutsideKernelCannotUnderflowRegTracker) {
  // A Vec constructed while no kernel runs (exec_env() == nullptr) is never
  // register-tracked; destroying it while a later kernel runs on the same
  // thread must not release words it never allocated. Before the tracked_
  // flag, the release drove live_words negative, so the kernel's own Vecs
  // climbed back through zero and regs_per_thread under-reported.
  auto kernel_body = [](WarpCtx&) {
    std::vector<Vec<double>> arrs(4, Vec<double>(1.0));
    Vec<double> acc(0.0);
    for (auto& a : arrs) acc = acc + a;
  };
  const KernelStats clean = run_warp(kernel_body);

  auto outside = std::make_unique<Vec<double>>(5.0);  // untracked
  DeviceSpec spec;
  spec.executor_threads = 1;  // blocks run on this thread
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  const KernelStats poisoned = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      outside.reset();  // destroyed mid-warp, while exec_env() is installed
      kernel_body(w);
    });
  });
  EXPECT_EQ(poisoned.regs_per_thread, clean.regs_per_thread);
}

TEST(Warp, VcastChargesDestinationWidth) {
  // vcast cycle cost must follow the destination type: float→double runs on
  // the half-rate DP pipe, float→int on the int pipe (it used to flat-charge
  // kCyclesSpArith regardless).
  const KernelStats base = run_warp([](WarpCtx&) { Vec<float> a(1.0f); });
  const KernelStats to_dp = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f);
    (void)vcast<double>(a);
  });
  const KernelStats to_int = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f);
    (void)vcast<std::int32_t>(a);
  });
  EXPECT_EQ(to_dp.issue_cycles - base.issue_cycles,
            static_cast<std::uint64_t>(kCyclesDpArith));
  EXPECT_EQ(to_int.issue_cycles - base.issue_cycles,
            static_cast<std::uint64_t>(kCyclesIntArith));
  EXPECT_EQ(to_dp.warp_instructions - base.warp_instructions, 1u);
}

TEST(Warp, SharedMemoryRoundTripAndConflicts) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<float>(64);
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      w.shared_store(sh, idx, Vec<float>(3.5f));
      const Vec<float> v = w.shared_load(sh, idx);
      EXPECT_FLOAT_EQ(v[13], 3.5f);
    });
  });
  EXPECT_EQ(s.shared_bytes_per_block, 64 * sizeof(float));
  EXPECT_EQ(s.shared_accesses, 2u);
  // Conflict-free: stride-1 float across 32 banks.
  EXPECT_EQ(s.shared_cycles, 2u * kCyclesSharedF32);
}

TEST(Warp, SharedMemoryBankConflictsCharged) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<float>(32 * 32);
    blk.parallel([&](WarpCtx& w) {
      // Stride-32 float: every lane hits bank 0 → 32-way conflict.
      const Vec<Addr> idx = Vec<Addr>::iota(0, 32);
      w.shared_load(sh, idx);
    });
  });
  EXPECT_EQ(s.shared_cycles, 32u * kCyclesSharedF32);
}

TEST(Warp, SharedOverCapacityThrows) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  EXPECT_THROW(
      dev.launch(cfg,
                 [&](BlockCtx& blk) { blk.shared_alloc<double>(7000); }),
      Error);
}

TEST(Launch, ValidatesConfig) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
  cfg.num_threads = 128;
  cfg.threads_per_block = 48;  // not a warp multiple
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
  cfg.threads_per_block = 2048;  // beyond device limit
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
}

// ---------------------------------------------------------------------------
// Occupancy (cross-checked against the CUDA occupancy calculator, cc2.0)
// ---------------------------------------------------------------------------

TEST(Occupancy, UnconstrainedKernelHitsBlockLimit) {
  DeviceSpec spec;
  // 128 threads/block, 16 regs, no shared: 8-block limit → 32 warps of 48.
  const Occupancy occ = compute_occupancy(spec, 16, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 8);
  EXPECT_EQ(occ.warps_per_sm, 32);
  EXPECT_NEAR(occ.theoretical, 32.0 / 48.0, 1e-12);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kBlocks);
}

TEST(Occupancy, RegisterLimit) {
  DeviceSpec spec;
  // 36 regs → 1152 regs/warp → 28 resident warps → 7 blocks of 4 warps.
  const Occupancy occ = compute_occupancy(spec, 36, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 7);
  EXPECT_EQ(occ.warps_per_sm, 28);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kRegisters);
  EXPECT_NEAR(occ.achieved, (28.0 / 48.0) * kAchievedOccupancyFactor, 1e-12);
}

TEST(Occupancy, SharedMemoryLimit) {
  DeviceSpec spec;
  // 46080 B/block (the tiled kernel at K=3, double): one block per SM.
  const Occupancy occ = compute_occupancy(spec, 20, 640, 46080);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_EQ(occ.warps_per_sm, 20);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kSharedMem);
}

TEST(Occupancy, WarpLimitForLargeBlocks) {
  DeviceSpec spec;
  // 1024 threads/block = 32 warps: only one block fits the 48-warp SM.
  const Occupancy occ = compute_occupancy(spec, 16, 1024, 0);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_EQ(occ.warps_per_sm, 32);
}

TEST(Occupancy, MonotoneInRegisters) {
  DeviceSpec spec;
  double prev = 1.0;
  for (int regs = 20; regs <= 63; regs += 4) {
    const Occupancy occ = compute_occupancy(spec, regs, 128, 0);
    EXPECT_LE(occ.theoretical, prev + 1e-12);
    prev = occ.theoretical;
  }
}

TEST(Occupancy, RejectsBadInputs) {
  DeviceSpec spec;
  EXPECT_THROW(compute_occupancy(spec, 0, 128, 0), Error);
  EXPECT_THROW(compute_occupancy(spec, 32, 4096, 0), Error);
}

// ---------------------------------------------------------------------------
// Timing model
// ---------------------------------------------------------------------------

KernelStats synthetic_stats() {
  KernelStats s;
  s.issue_cycles = 10'000'000;
  s.load_transactions = 100'000;
  s.store_transactions = 100'000;
  s.bytes_transferred_load = 100'000 * 128;
  s.bytes_transferred_store = 100'000 * 32;
  s.bytes_requested_load = s.bytes_transferred_load;
  s.bytes_requested_store = s.bytes_transferred_store;
  s.regs_per_thread = 32;
  s.threads_per_block = 128;
  return s;
}

TEST(TimingModel, MoreComputeTakesLonger) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats a = synthetic_stats();
  KernelStats b = a;
  b.issue_cycles *= 2;
  EXPECT_GT(kernel_time(b, occ, spec).total_seconds,
            kernel_time(a, occ, spec).total_seconds);
}

TEST(TimingModel, HigherOccupancyHidesLatency) {
  DeviceSpec spec;
  const KernelStats s = synthetic_stats();
  const Occupancy low = compute_occupancy(spec, 60, 128, 0);
  const Occupancy high = compute_occupancy(spec, 20, 128, 0);
  ASSERT_LT(low.achieved, high.achieved);
  EXPECT_GT(kernel_time(s, low, spec).exposed_latency_seconds,
            kernel_time(s, high, spec).exposed_latency_seconds);
  EXPECT_GT(kernel_time(s, low, spec).total_seconds,
            kernel_time(s, high, spec).total_seconds);
}

TEST(TimingModel, BandwidthFloorBindsTrafficHeavyKernels) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats s = synthetic_stats();
  s.bytes_transferred_load = 4ull << 30;  // 4 GB of traffic
  const KernelTiming t = kernel_time(s, occ, spec);
  EXPECT_STREQ(t.bound_by, "bandwidth");
  EXPECT_NEAR(t.total_seconds,
              t.bandwidth_floor_seconds + t.launch_overhead_seconds, 1e-9);
}

TEST(TimingModel, LaunchOverheadAlwaysPresent) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats s;  // empty kernel
  s.regs_per_thread = 32;
  s.threads_per_block = 128;
  EXPECT_GE(kernel_time(s, occ, spec).total_seconds, kKernelLaunchSeconds);
}

// ---------------------------------------------------------------------------
// Transfer model / schedules (Fig. 5)
// ---------------------------------------------------------------------------

TEST(TransferModel, BandwidthPlusSetup) {
  DeviceSpec spec;
  const double t = transfer_seconds(spec, 1 << 20);
  EXPECT_NEAR(t,
              spec.dma_setup_seconds +
                  (1 << 20) / (spec.pcie_effective_gbps * 1e9),
              1e-12);
  EXPECT_DOUBLE_EQ(transfer_seconds(spec, 0), 0.0);
}

TEST(TransferSchedules, OverlapNeverSlower) {
  FrameSchedule f;
  f.upload_seconds = 2e-3;
  f.kernel_seconds = 5e-3;
  f.download_seconds = 2e-3;
  for (std::uint64_t n : {1ull, 2ull, 10ull, 450ull}) {
    EXPECT_LE(overlapped_pipeline_seconds(f, n),
              sequential_pipeline_seconds(f, n) + 1e-12);
  }
}

TEST(TransferSchedules, OverlapHidesTransfersWhenKernelDominates) {
  // The paper's Fig. 5b: steady-state per-frame cost is max(kernel, up+down).
  FrameSchedule f;
  f.upload_seconds = 2e-3;
  f.kernel_seconds = 5e-3;
  f.download_seconds = 2e-3;
  const std::uint64_t n = 1000;
  const double total = overlapped_pipeline_seconds(f, n);
  EXPECT_NEAR(total / static_cast<double>(n), f.kernel_seconds, 1e-4);
}

TEST(TransferSchedules, TransferBoundWhenKernelIsShort) {
  FrameSchedule f;
  f.upload_seconds = 4e-3;
  f.kernel_seconds = 1e-3;
  f.download_seconds = 4e-3;
  const double total = overlapped_pipeline_seconds(f, 1000);
  EXPECT_NEAR(total / 1000.0, 8e-3, 1e-4);
}

TEST(TransferSchedules, SequentialIsSumOfParts) {
  FrameSchedule f;
  f.upload_seconds = 1e-3;
  f.kernel_seconds = 2e-3;
  f.download_seconds = 3e-3;
  EXPECT_DOUBLE_EQ(sequential_pipeline_seconds(f, 10), 60e-3);
  EXPECT_DOUBLE_EQ(overlapped_pipeline_seconds(f, 0), 0.0);
}

TEST(TransferSchedules, PipelineSecondsComposesFrameGroups) {
  FrameSchedule f;
  f.upload_seconds = 1.9e-3;
  f.kernel_seconds = 5.2e-3;
  f.download_seconds = 1.9e-3;
  // A group of one is the plain closed form, bit for bit.
  EXPECT_EQ(pipeline_seconds(f, 450, true),
            overlapped_pipeline_seconds(f, 450));
  EXPECT_EQ(pipeline_seconds(f, 450, false),
            sequential_pipeline_seconds(f, 450));
  // A group of 8 is ceil(450 / 8) = 57 launches of 8 frames' worth each.
  FrameSchedule g8;
  g8.upload_seconds = f.upload_seconds * 8;
  g8.kernel_seconds = f.kernel_seconds * 8;
  g8.download_seconds = f.download_seconds * 8;
  EXPECT_EQ(pipeline_seconds(f, 450, true, 8),
            overlapped_pipeline_seconds(g8, 57));
  EXPECT_EQ(pipeline_seconds(f, 0, true, 8), 0.0);
  EXPECT_THROW(pipeline_seconds(f, 450, true, 0), Error);
}

}  // namespace
}  // namespace mog::gpusim
