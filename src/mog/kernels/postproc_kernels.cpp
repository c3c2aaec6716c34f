#include "mog/kernels/level_kernels.hpp"

#include <array>
#include <cstdint>

namespace mog::kernels::MOG_ISA_NS {

namespace {

using gpusim::Addr;
using gpusim::Pred;
using gpusim::SharedSpan;
using gpusim::Vec;
using gpusim::WarpCtx;

constexpr int kTileW = 32;  ///< fused tile width (one warp per tile row)

/// Combine window counters into the stage's 0/1 decision. `tot` counts the
/// in-frame cells of the (possibly border-shrunk) 3x3 window, `fg` the
/// in-frame foreground cells — see the header for why these two counters
/// reproduce the host border semantics of all three ops exactly.
Vec<std::int32_t> stage_value(MaskStageOp op, const Vec<std::int32_t>& fg,
                              const Vec<std::int32_t>& tot) {
  const Vec<std::int32_t> one(1), zero(0);
  switch (op) {
    case MaskStageOp::kMedian3:  // strict majority, ties -> background
      return select(vgt(fg + fg, tot), one, zero);
    case MaskStageOp::kDilate1:  // any foreground, out-of-frame = background
      return select(vgt(fg, std::int32_t{0}), one, zero);
    case MaskStageOp::kErode1:  // all foreground, out-of-frame = foreground
      return select(veq(fg, tot), one, zero);
  }
  MOG_CHECK(false, "unknown MaskStageOp");
  return zero;
}

// ---------------------------------------------------------------------------
// Unfused single-stage stencil (the pre-fusion baseline)
// ---------------------------------------------------------------------------

struct StageArgs {
  gpusim::DevSpan<std::uint8_t> in;
  gpusim::DevSpan<std::uint8_t> out;
  Addr width = 0;
  Addr height = 0;
  MaskStageOp op = MaskStageOp::kMedian3;
  Addr n = 0;  ///< width * height
};

/// out[x, y] = op(3x3 window of in at (x, y)): nine masked gathers, one
/// store, everything through global memory. A full A..F-style chain pays
/// this once per stage plus a launch boundary in between — the cost fusion
/// removes.
void mask_stage_warp(WarpCtx& ctx, const StageArgs& a) {
  const Vec<Addr> gid = ctx.global_ids();
  const Pred live = vlt(gid, a.n);
  ctx.if_then(live, [&] {
    const Vec<Addr> y = gid / a.width;
    const Vec<Addr> x = gid - y * a.width;
    Vec<std::int32_t> fg(0), tot(0);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const Vec<Addr> fx = x + static_cast<Addr>(dx);
        const Vec<Addr> fy = y + static_cast<Addr>(dy);
        const Pred inb = vge(fx, Addr{0}) & vlt(fx, a.width) &
                         vge(fy, Addr{0}) & vlt(fy, a.height);
        Vec<std::int32_t> v(0);
        ctx.if_then(inb, [&] {
          ctx.set(v, ctx.load<std::int32_t>(a.in, fy * a.width + fx));
        });
        const Vec<std::int32_t> one(1), zero(0);
        tot = tot + select(inb, one, zero);
        fg = fg + select(inb & vgt(v, std::int32_t{0}), one, zero);
      }
    }
    const Vec<std::int32_t> v = stage_value(a.op, fg, tot);
    ctx.store(a.out, gid,
              select(vgt(v, std::int32_t{0}), Vec<std::int32_t>(255),
                     Vec<std::int32_t>(0)));
  });
}

// ---------------------------------------------------------------------------
// Fused chain (optimization step G)
// ---------------------------------------------------------------------------

struct FusedArgs {
  gpusim::DevSpan<std::uint8_t> raw;
  gpusim::DevSpan<std::uint8_t> cleaned;
  Addr width = 0;
  Addr height = 0;
  int tile_h = 0;   ///< kTileW x tile_h pixels per block
  int tiles_x = 0;  ///< blocks per tile row
  std::array<MaskStageOp, 3> ops{};
  int num_ops = 0;  ///< 1..3; stage s consumes halo ring (num_ops - s)
};

/// One block's fused postproc: stage a (tile + halo) window of the raw mask
/// into shared memory, then evaluate every stage in shared memory with a
/// halo ring that shrinks by one per stage; only the final stage touches
/// global memory again. Values in the stage arrays are 0/1 foreground
/// codes; cells whose frame coordinate is out of frame hold an arbitrary
/// value (zero from staging) and are never consumed — every window sum
/// recomputes cell validity from frame coordinates, which is what makes the
/// border semantics exact rather than approximated by halo padding.
void fused_postproc_block(gpusim::BlockCtx& blk, const FusedArgs& a) {
  const int tpb = blk.threads_per_block();
  const int R = a.num_ops;  // total halo radius of the chain
  const Addr bx = blk.block_id() % a.tiles_x;
  const Addr by = blk.block_id() / a.tiles_x;
  const Addr x0 = bx * kTileW;       // frame coords of tile origin
  const Addr y0 = by * a.tile_h;

  // Stage arrays: arr[s] holds the input of op s, with halo ring (R - s).
  std::array<SharedSpan<std::int32_t>, 3> arr;
  std::array<int, 3> ext{}, aw{};
  for (int s = 0; s < a.num_ops; ++s) {
    ext[static_cast<std::size_t>(s)] = R - s;
    aw[static_cast<std::size_t>(s)] = kTileW + 2 * (R - s);
    const int ah = a.tile_h + 2 * (R - s);
    arr[static_cast<std::size_t>(s)] = blk.shared_alloc<std::int32_t>(
        static_cast<std::size_t>(aw[static_cast<std::size_t>(s)]) *
        static_cast<std::size_t>(ah));
  }

  /// fg/tot over the 3x3 window of tile-coordinate cell (cx, cy), read from
  /// stage array `s` (whose ring is one wider than the cells being
  /// computed). In-frame validity of each window cell comes from its frame
  /// coordinate, never from padding.
  const auto window_counts = [&](WarpCtx& ctx, int s, const Vec<Addr>& cx,
                                 const Vec<Addr>& cy, Vec<std::int32_t>& fg,
                                 Vec<std::int32_t>& tot) {
    const Addr e = ext[static_cast<std::size_t>(s)];
    const Addr sw = aw[static_cast<std::size_t>(s)];
    const Vec<std::int32_t> one(1), zero(0);
    fg = zero;
    tot = zero;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const Vec<Addr> wx = cx + static_cast<Addr>(dx);
        const Vec<Addr> wy = cy + static_cast<Addr>(dy);
        const Pred inb = vge(wx + x0, Addr{0}) & vlt(wx + x0, a.width) &
                         vge(wy + y0, Addr{0}) & vlt(wy + y0, a.height);
        const Vec<std::int32_t> v = ctx.shared_load(
            arr[static_cast<std::size_t>(s)], (wy + e) * sw + (wx + e));
        tot = tot + select(inb, one, zero);
        fg = fg + select(inb, v, zero);
      }
    }
  };

  // Phase 0: stage raw mask -> arr[0] as 0/1 codes. The halo window is
  // larger than the tile, so each thread stages ceil(window / tpb) cells.
  blk.parallel([&](WarpCtx& ctx) {
    const Vec<Addr> lin = ctx.global_ids() - Vec<Addr>(blk.block_id() * tpb);
    const Addr cells = static_cast<Addr>(aw[0]) *
                       static_cast<Addr>(a.tile_h + 2 * R);
    const int iters =
        static_cast<int>((cells + tpb - 1) / static_cast<Addr>(tpb));
    ctx.for_range(iters, [&](int it) {
      const Vec<Addr> i = lin + static_cast<Addr>(it) * tpb;
      ctx.if_then(vlt(i, cells), [&] {
        const Vec<Addr> hy = i / static_cast<Addr>(aw[0]);
        const Vec<Addr> hx = i - hy * static_cast<Addr>(aw[0]);
        const Vec<Addr> fx = hx + (x0 - R);
        const Vec<Addr> fy = hy + (y0 - R);
        const Pred inb = vge(fx, Addr{0}) & vlt(fx, a.width) &
                         vge(fy, Addr{0}) & vlt(fy, a.height);
        Vec<std::int32_t> v(0);
        ctx.if_then(inb, [&] {
          ctx.set(v, ctx.load<std::int32_t>(a.raw, fy * a.width + fx));
        });
        ctx.shared_store(arr[0], i,
                         select(vgt(v, std::int32_t{0}), Vec<std::int32_t>(1),
                                Vec<std::int32_t>(0)));
      });
    });
  });

  // Phases 1..num_ops-1: op s-1 from arr[s-1] -> arr[s], entirely in shared
  // memory. Consecutive blk.parallel calls have an implicit __syncthreads().
  for (int s = 1; s < a.num_ops; ++s) {
    blk.parallel([&](WarpCtx& ctx) {
      const Vec<Addr> lin = ctx.global_ids() - Vec<Addr>(blk.block_id() * tpb);
      const Addr e = ext[static_cast<std::size_t>(s)];
      const Addr sw = aw[static_cast<std::size_t>(s)];
      const Addr cells = sw * static_cast<Addr>(a.tile_h + 2 * e);
      const int iters =
          static_cast<int>((cells + tpb - 1) / static_cast<Addr>(tpb));
      ctx.for_range(iters, [&](int it) {
        const Vec<Addr> i = lin + static_cast<Addr>(it) * tpb;
        ctx.if_then(vlt(i, cells), [&] {
          const Vec<Addr> ly = i / sw;
          const Vec<Addr> lx = i - ly * sw;
          Vec<std::int32_t> fg(0), tot(0);
          window_counts(ctx, s - 1, lx - e, ly - e, fg, tot);
          ctx.shared_store(
              arr[static_cast<std::size_t>(s)], i,
              stage_value(a.ops[static_cast<std::size_t>(s - 1)], fg, tot));
        });
      });
    });
  }

  // Final phase: the last op writes the cleaned 0/255 mask to global — one
  // cell per thread, the only global store of the whole chain.
  blk.parallel([&](WarpCtx& ctx) {
    const Vec<Addr> lin = ctx.global_ids() - Vec<Addr>(blk.block_id() * tpb);
    const Vec<Addr> cy = lin / Addr{kTileW};
    const Vec<Addr> cx = lin - cy * Addr{kTileW};
    const Vec<Addr> fx = cx + x0;
    const Vec<Addr> fy = cy + y0;
    // Edge tiles overhang the frame; fx/fy are never negative here.
    ctx.if_then(vlt(fx, a.width) & vlt(fy, a.height), [&] {
      Vec<std::int32_t> fg(0), tot(0);
      window_counts(ctx, a.num_ops - 1, cx, cy, fg, tot);
      const Vec<std::int32_t> v =
          stage_value(a.ops[static_cast<std::size_t>(a.num_ops - 1)], fg, tot);
      ctx.store(a.cleaned, fy * a.width + fx,
                select(vgt(v, std::int32_t{0}), Vec<std::int32_t>(255),
                       Vec<std::int32_t>(0)));
    });
  });
}

}  // namespace

gpusim::KernelStats launch_mask_stage(gpusim::Device& device,
                                      const gpusim::DevSpan<std::uint8_t>& in,
                                      const gpusim::DevSpan<std::uint8_t>& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block) {
  MOG_CHECK(width >= 1 && height >= 1, "frame dimensions must be positive");
  const std::size_t n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  MOG_CHECK(in.count == n && out.count == n,
            "mask buffers must cover the frame");
  MOG_CHECK(in.data != out.data,
            "stencil stage cannot run in place: in and out must differ");

  StageArgs args{in,
                 out,
                 static_cast<Addr>(width),
                 static_cast<Addr>(height),
                 op,
                 static_cast<Addr>(n)};

  gpusim::LaunchConfig cfg;
  cfg.num_threads = static_cast<std::int64_t>(n);
  cfg.threads_per_block = threads_per_block;
  return device.launch(cfg, [&](gpusim::BlockCtx& blk) {
    blk.parallel([&](WarpCtx& warp) { mask_stage_warp(warp, args); });
  });
}

gpusim::KernelStats launch_fused_postproc(
    gpusim::Device& device, const gpusim::DevSpan<std::uint8_t>& raw,
    const gpusim::DevSpan<std::uint8_t>& cleaned, int width, int height,
    const ValidationConfig& config, int threads_per_block) {
  config.validate_fused();
  MOG_CHECK(width >= 1 && height >= 1, "frame dimensions must be positive");
  const std::size_t n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  MOG_CHECK(raw.count == n && cleaned.count == n,
            "mask buffers must cover the frame");
  MOG_CHECK(threads_per_block >= kTileW && threads_per_block % kTileW == 0,
            "fused postproc needs threads_per_block as a multiple of 32");

  FusedArgs args;
  args.raw = raw;
  args.cleaned = cleaned;
  args.width = static_cast<Addr>(width);
  args.height = static_cast<Addr>(height);
  args.tile_h = threads_per_block / kTileW;
  args.tiles_x = (width + kTileW - 1) / kTileW;
  if (config.despeckle) args.ops[static_cast<std::size_t>(args.num_ops++)] =
      MaskStageOp::kMedian3;
  if (config.close_radius == 1) {
    args.ops[static_cast<std::size_t>(args.num_ops++)] = MaskStageOp::kDilate1;
    args.ops[static_cast<std::size_t>(args.num_ops++)] = MaskStageOp::kErode1;
  }
  MOG_CHECK(args.num_ops >= 1,
            "fused postproc launched with no stage enabled");

  const int tiles_y = (height + args.tile_h - 1) / args.tile_h;
  gpusim::LaunchConfig cfg;
  // Full blocks only: edge tiles overhang and mask in-frame per pixel.
  cfg.num_threads = static_cast<std::int64_t>(args.tiles_x) * tiles_y *
                    threads_per_block;
  cfg.threads_per_block = threads_per_block;
  return device.launch(cfg, [&](gpusim::BlockCtx& blk) {
    fused_postproc_block(blk, args);
  });
}

}  // namespace mog::kernels::MOG_ISA_NS
