#include "mog/kernels/level_kernels.hpp"

namespace mog::kernels::MOG_ISA_NS {

namespace {

using gpusim::Addr;
using gpusim::Pred;
using gpusim::SharedSpan;
using gpusim::Vec;
using gpusim::WarpCtx;

template <typename T>
struct TiledArgs {
  const DeviceMogState<T>* state;
  std::span<const gpusim::DevSpan<std::uint8_t>> frames;
  std::span<const gpusim::DevSpan<std::uint8_t>> foregrounds;
  TypedMogParams<T> p;
  int tile;
  Addr n;
};

template <typename T>
struct TileShared {
  SharedSpan<T> w, m, sd;
};

/// One frame's worth of per-warp MoG work against shared-memory parameters
/// (variant-F structure: predicated update, no sort, recomputed diff).
template <typename T>
void tiled_frame_warp(WarpCtx& ctx, const TiledArgs<T>& a,
                      const TileShared<T>& sh, int frame_idx) {
  const int K = a.p.k;
  const T alpha = a.p.alpha;
  const T oma = a.p.one_minus_alpha;
  const T min_var = a.p.min_sd * a.p.min_sd;
  const Addr tile = a.tile;

  const Vec<Addr> gid = ctx.global_ids();
  const Vec<Addr> tid = gid - Vec<Addr>(gid[0] / tile * tile);  // within tile
  const Vec<T> x = ctx.load<T>(a.frames[frame_idx], gid);

  // Pass 1: match + predicated update, parameters in shared memory.
  Pred any{};
  Vec<T> sum(T{0});
  ctx.for_range(K, [&](int k) {
    const Vec<Addr> si = tid + static_cast<Addr>(k) * tile;
    const Vec<T> wv = ctx.shared_load(sh.w, si);
    const Vec<T> mv = ctx.shared_load(sh.m, si);
    const Vec<T> sv = ctx.shared_load(sh.sd, si);

    const Vec<T> d = vabs(mv - x);
    const Pred match = vlt(d, sv * a.p.gamma1);
    any = any | match;

    const Vec<T> matchv = select(match, Vec<T>(T{1}), Vec<T>(T{0}));
    const Vec<T> w_new = vfma(matchv, Vec<T>(oma), wv * Vec<T>(alpha));
    const Vec<T> w_safe = vmax(w_new, Vec<T>(static_cast<T>(1e-12)));
    const Vec<T> tmp = oma / w_safe;
    const Vec<T> delta = x - mv;
    const Vec<T> m_upd = vfma(tmp, delta, mv);
    Vec<T> var = sv * sv;
    var = vfma(tmp, delta * delta - var, var);
    var = vmax(var, Vec<T>(min_var));
    const Vec<T> sd_upd = vsqrt(var);

    ctx.shared_store(sh.w, si, w_new);
    ctx.shared_store(sh.m, si, select(match, m_upd, mv));
    ctx.shared_store(sh.sd, si, select(match, sd_upd, sv));
    sum = sum + w_new;
  });

  // Virtual component: replace the lowest-weight one where nothing matched.
  ctx.if_then(~any, [&] {
    Vec<T> min_w = ctx.shared_load(sh.w, tid);
    Vec<std::int32_t> min_idx(0);
    ctx.for_range(K - 1, [&](int k1) {
      const Vec<Addr> si = tid + static_cast<Addr>(k1 + 1) * tile;
      const Vec<T> wv = ctx.shared_load(sh.w, si);
      const Pred less = vlt(wv, min_w);
      min_w = select(less, wv, min_w);
      min_idx = select(less, Vec<std::int32_t>(k1 + 1), min_idx);
    });
    ctx.for_range(K, [&](int k) {
      ctx.if_then(veq(min_idx, static_cast<std::int32_t>(k)), [&] {
        const Vec<Addr> si = tid + static_cast<Addr>(k) * tile;
        ctx.shared_store(sh.w, si, Vec<T>(a.p.w_init));
        ctx.shared_store(sh.m, si, x);
        ctx.shared_store(sh.sd, si, Vec<T>(a.p.sd_init));
        // The weight sum must reflect the replacement: add the delta.
        ctx.set(sum, sum - min_w + Vec<T>(a.p.w_init));
      });
    });
  });

  // Pass 2: normalize weights in shared memory + foreground decision
  // (variant-F style: recomputed diff against the updated mean).
  const Vec<T> inv = T{1} / sum;
  Pred bg{};
  ctx.for_range(K, [&](int k) {
    const Vec<Addr> si = tid + static_cast<Addr>(k) * tile;
    const Vec<T> wn = ctx.shared_load(sh.w, si) * inv;
    ctx.shared_store(sh.w, si, wn);
    const Vec<T> d = vabs(x - ctx.shared_load(sh.m, si));
    const Pred bgk =
        vge(wn, a.p.gamma2) & vlt(d, ctx.shared_load(sh.sd, si) * a.p.gamma1d);
    bg = bg | bgk;
  });

  const Vec<std::int32_t> fg_val =
      select(bg, Vec<std::int32_t>(0), Vec<std::int32_t>(255));
  ctx.store(a.foregrounds[frame_idx], gid, fg_val);
}

template <typename T>
void tiled_block(gpusim::BlockCtx& blk, const TiledArgs<T>& a) {
  const int K = a.p.k;
  const Addr tile = a.tile;
  // Shared memory is strictly block-scoped: every block stages its own tile
  // from global memory in phase 1 and writes it back in phase 3, never
  // reading another block's resident data. That is what lets the host block
  // executor run blocks concurrently, each against its worker's private
  // arena — the SharedSpans below are only valid within this block. `a` is
  // shared across concurrently-running blocks and must stay read-only.
  TileShared<T> sh;
  sh.w = blk.shared_alloc<T>(static_cast<std::size_t>(tile) * K);
  sh.m = blk.shared_alloc<T>(static_cast<std::size_t>(tile) * K);
  sh.sd = blk.shared_alloc<T>(static_cast<std::size_t>(tile) * K);

  // Phase 1: global -> shared (coalesced: consecutive lanes, consecutive
  // elements in both spaces).
  blk.parallel([&](WarpCtx& ctx) {
    const Vec<Addr> gid = ctx.global_ids();
    const Vec<Addr> tid = gid - Vec<Addr>(gid[0] / tile * tile);
    ctx.for_range(K, [&](int k) {
      const Vec<Addr> gi = gid + static_cast<Addr>(k) * a.n;
      const Vec<Addr> si = tid + static_cast<Addr>(k) * tile;
      ctx.shared_store(sh.w, si, ctx.load<T>(a.state->weights(), gi));
      ctx.shared_store(sh.m, si, ctx.load<T>(a.state->means(), gi));
      ctx.shared_store(sh.sd, si, ctx.load<T>(a.state->sds(), gi));
    });
  });

  // Phase 2: the frame group, same tile across consecutive frames (Fig. 9).
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    blk.parallel([&](WarpCtx& ctx) {
      tiled_frame_warp(ctx, a, sh, static_cast<int>(f));
    });
  }

  // Phase 3: shared -> global write-back.
  blk.parallel([&](WarpCtx& ctx) {
    const Vec<Addr> gid = ctx.global_ids();
    const Vec<Addr> tid = gid - Vec<Addr>(gid[0] / tile * tile);
    ctx.for_range(K, [&](int k) {
      const Vec<Addr> gi = gid + static_cast<Addr>(k) * a.n;
      const Vec<Addr> si = tid + static_cast<Addr>(k) * tile;
      ctx.store(a.state->weights(), gi, ctx.shared_load(sh.w, si));
      ctx.store(a.state->means(), gi, ctx.shared_load(sh.m, si));
      ctx.store(a.state->sds(), gi, ctx.shared_load(sh.sd, si));
    });
  });
}

}  // namespace

template <typename T>
gpusim::KernelStats launch_tiled_group(
    gpusim::Device& device, DeviceMogState<T>& state,
    std::span<const gpusim::DevSpan<std::uint8_t>> frames,
    std::span<const gpusim::DevSpan<std::uint8_t>> foregrounds,
    const TypedMogParams<T>& params, const TiledConfig& config) {
  config.validate();
  MOG_CHECK(state.layout() == ParamLayout::kSoA,
            "tiled kernel requires SoA state");
  MOG_CHECK(!frames.empty() && frames.size() == foregrounds.size(),
            "frame group must be non-empty and masks must match");
  MOG_CHECK(frames.size() <= static_cast<std::size_t>(config.frame_group),
            "group larger than configured frame_group");
  for (const auto& f : frames)
    MOG_CHECK(f.count == state.num_pixels(), "frame buffer size mismatch");
  for (const auto& f : foregrounds)
    MOG_CHECK(f.count == state.num_pixels(), "mask buffer size mismatch");

  TiledArgs<T> args{&state,
                    frames,
                    foregrounds,
                    params,
                    config.tile_pixels,
                    static_cast<Addr>(state.num_pixels())};

  gpusim::LaunchConfig cfg;
  cfg.num_threads = static_cast<std::int64_t>(state.num_pixels());
  cfg.threads_per_block = config.tile_pixels;
  return device.launch(cfg, [&](gpusim::BlockCtx& blk) {
    tiled_block(blk, args);
  });
}

template gpusim::KernelStats launch_tiled_group<float>(
    gpusim::Device&, DeviceMogState<float>&,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    const TypedMogParams<float>&, const TiledConfig&);
template gpusim::KernelStats launch_tiled_group<double>(
    gpusim::Device&, DeviceMogState<double>&,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    const TypedMogParams<double>&, const TiledConfig&);

}  // namespace mog::kernels::MOG_ISA_NS
