#include "mog/kernels/level_kernels.hpp"

#include <vector>

namespace mog::kernels::MOG_ISA_NS {

namespace {

using gpusim::Addr;
using gpusim::Pred;
using gpusim::Vec;
using gpusim::WarpCtx;

/// Per-warp working set for one pixel's mixture, register-resident.
template <typename T>
struct WarpLocals {
  std::vector<Vec<T>> w, m, sd, diff;
};

template <typename T>
struct KernelArgs {
  const DeviceMogState<T>* state;
  gpusim::DevSpan<std::uint8_t> frame;
  gpusim::DevSpan<std::uint8_t> foreground;
  TypedMogParams<T> p;
  OptLevel level;
  Addr n;  ///< pixels
};

template <typename T>
void load_params(WarpCtx& ctx, const KernelArgs<T>& a, const Vec<Addr>& gid,
                 WarpLocals<T>& r) {
  const int K = a.p.k;
  r.w.reserve(static_cast<std::size_t>(K));
  r.m.reserve(static_cast<std::size_t>(K));
  r.sd.reserve(static_cast<std::size_t>(K));
  if (uses_aos_layout(a.level)) {
    // AoS element index: (pixel*K + k)*3 + {0:m, 1:w, 2:sd} (Fig. 4a).
    const Vec<Addr> base = gid * static_cast<Addr>(3 * K);
    ctx.for_range(K, [&](int k) {
      r.m.push_back(
          ctx.load<T>(a.state->aos(), base + static_cast<Addr>(3 * k)));
      r.w.push_back(
          ctx.load<T>(a.state->aos(), base + static_cast<Addr>(3 * k + 1)));
      r.sd.push_back(
          ctx.load<T>(a.state->aos(), base + static_cast<Addr>(3 * k + 2)));
    });
  } else {
    // SoA: param[k*N + pixel] (Fig. 4b) — contiguous across lanes.
    ctx.for_range(K, [&](int k) {
      const Vec<Addr> idx = gid + static_cast<Addr>(k) * a.n;
      r.m.push_back(ctx.load<T>(a.state->means(), idx));
      r.w.push_back(ctx.load<T>(a.state->weights(), idx));
      r.sd.push_back(ctx.load<T>(a.state->sds(), idx));
    });
  }
}

template <typename T>
void store_component_msd(WarpCtx& ctx, const KernelArgs<T>& a,
                         const Vec<Addr>& gid, int k, const Vec<T>& m_val,
                         const Vec<T>& sd_val) {
  if (uses_aos_layout(a.level)) {
    const Vec<Addr> base = gid * static_cast<Addr>(3 * a.p.k);
    ctx.store(a.state->aos(), base + static_cast<Addr>(3 * k), m_val);
    ctx.store(a.state->aos(), base + static_cast<Addr>(3 * k + 2), sd_val);
  } else {
    const Vec<Addr> idx = gid + static_cast<Addr>(k) * a.n;
    ctx.store(a.state->means(), idx, m_val);
    ctx.store(a.state->sds(), idx, sd_val);
  }
}

template <typename T>
void store_component_w(WarpCtx& ctx, const KernelArgs<T>& a,
                       const Vec<Addr>& gid, int k, const Vec<T>& w_val) {
  if (uses_aos_layout(a.level)) {
    const Vec<Addr> base = gid * static_cast<Addr>(3 * a.p.k);
    ctx.store(a.state->aos(), base + static_cast<Addr>(3 * k + 1), w_val);
  } else {
    ctx.store(a.state->weights(), gid + static_cast<Addr>(k) * a.n, w_val);
  }
}

/// The MoG kernel body for one warp (32 pixels).
template <typename T>
void mog_warp(WarpCtx& ctx, const KernelArgs<T>& a) {
  const int K = a.p.k;
  const T alpha = a.p.alpha;
  const T oma = a.p.one_minus_alpha;
  const T min_var = a.p.min_sd * a.p.min_sd;

  const Vec<Addr> gid = ctx.global_ids();
  const Vec<T> x = ctx.load<T>(a.frame, gid);

  WarpLocals<T> r;
  load_params(ctx, a, gid, r);

  // --- match classification (Algorithm 1 lines 4-5) -----------------------
  // diff stays live as an array through A..E; F's register optimization
  // keeps only the match predicates and recomputes the difference later.
  std::vector<Pred> match(static_cast<std::size_t>(K));
  Pred any{};
  if (keeps_diff_array(a.level))
    r.diff.reserve(static_cast<std::size_t>(K));
  ctx.for_range(K, [&](int k) {
    const std::size_t ks = static_cast<std::size_t>(k);
    Vec<T> d = vabs(r.m[ks] - x);
    match[ks] = vlt(d, r.sd[ks] * a.p.gamma1);
    any = any | match[ks];
    if (keeps_diff_array(a.level)) r.diff.push_back(std::move(d));
  });

  // --- parameter update ------------------------------------------------------
  if (!uses_predication(a.level)) {
    // Branchy update (Algorithm 4): matched components take the full path
    // and write mean/sd back under the branch mask (masked, scattered
    // stores); non-matched components only decay their weight.
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      ctx.if_then_else(
          match[ks],
          [&] {
            const Vec<T> w_new = vfma(r.w[ks], Vec<T>(alpha), Vec<T>(oma));
            const Vec<T> tmp = oma / w_new;
            const Vec<T> delta = x - r.m[ks];
            const Vec<T> m_new = vfma(tmp, delta, r.m[ks]);
            Vec<T> var = r.sd[ks] * r.sd[ks];
            var = vfma(tmp, delta * delta - var, var);
            var = vmax(var, Vec<T>(min_var));
            const Vec<T> sd_new = vsqrt(var);
            ctx.set(r.w[ks], w_new);
            ctx.set(r.sd[ks], sd_new);
            store_component_msd(ctx, a, gid, k, m_new, sd_new);
          },
          [&] { ctx.set(r.w[ks], r.w[ks] * Vec<T>(alpha)); });
    });
  } else {
    // Predicated update (Algorithm 5): one execution path, every component
    // computed and written unconditionally; match blends the results. The
    // weight formula alpha*w + match*(1-alpha) covers both cases.
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      const Vec<T> matchv = select(match[ks], Vec<T>(T{1}), Vec<T>(T{0}));
      const Vec<T> w_new = vfma(matchv, Vec<T>(oma), r.w[ks] * Vec<T>(alpha));
      const Vec<T> w_safe = vmax(w_new, Vec<T>(static_cast<T>(1e-12)));
      const Vec<T> tmp = oma / w_safe;
      const Vec<T> delta = x - r.m[ks];
      const Vec<T> m_upd = vfma(tmp, delta, r.m[ks]);
      Vec<T> var = r.sd[ks] * r.sd[ks];
      var = vfma(tmp, delta * delta - var, var);
      var = vmax(var, Vec<T>(min_var));
      const Vec<T> sd_upd = vsqrt(var);

      r.w[ks] = w_new;
      const Vec<T> m_fin = select(match[ks], m_upd, r.m[ks]);
      const Vec<T> sd_fin = select(match[ks], sd_upd, r.sd[ks]);
      r.sd[ks] = sd_fin;
      if (!keeps_diff_array(a.level)) r.m[ks] = m_fin;  // F: mean stays live
      store_component_msd(ctx, a, gid, k, m_fin, sd_fin);
    });
  }

  // D and E no longer need the means (the foreground test uses the stored
  // diff); releasing them here models register liveness. The sorted
  // variants keep the whole component (mean included) live through the sort
  // — they are sorting components, not projections of them.
  if (keeps_diff_array(a.level) && !uses_sort(a.level)) {
    r.m.clear();
    r.m.shrink_to_fit();
  }

  // --- virtual component (lines 12-15): replace the lowest-weight one -------
  ctx.if_then(~any, [&] {
    Vec<T> min_w = r.w[0];
    Vec<std::int32_t> min_idx(0);
    ctx.for_range(K - 1, [&](int k1) {
      const std::size_t ks = static_cast<std::size_t>(k1 + 1);
      const Pred less = vlt(r.w[ks], min_w);
      min_w = select(less, r.w[ks], min_w);
      min_idx = select(less, Vec<std::int32_t>(k1 + 1), min_idx);
    });
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      ctx.if_then(veq(min_idx, static_cast<std::int32_t>(k)), [&] {
        ctx.set(r.w[ks], Vec<T>(a.p.w_init));
        ctx.set(r.sd[ks], Vec<T>(a.p.sd_init));
        if (keeps_diff_array(a.level))
          ctx.set(r.diff[ks], Vec<T>(T{0}));  // fresh component sits on x
        else
          ctx.set(r.m[ks], x);
        store_component_msd(ctx, a, gid, k, x, Vec<T>(a.p.sd_init));
      });
    });
  });

  // --- weight normalization + write-back --------------------------------------
  Vec<T> sum = r.w[0];
  ctx.for_range(K - 1, [&](int k1) {
    sum = sum + r.w[static_cast<std::size_t>(k1 + 1)];
  });
  const Vec<T> inv = T{1} / sum;
  ctx.for_range(K, [&](int k) {
    const std::size_t ks = static_cast<std::size_t>(k);
    r.w[ks] = r.w[ks] * inv;
    store_component_w(ctx, a, gid, k, r.w[ks]);
  });

  // --- foreground decision ------------------------------------------------------
  Pred bg{};
  if (uses_sort(a.level)) {
    // Rank + register sort (lines 16-21), then the early-exit scan
    // (lines 22-28) — the divergent pattern D eliminates.
    std::vector<Vec<T>> rank;
    rank.reserve(static_cast<std::size_t>(K));
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      rank.push_back(r.w[ks] / r.sd[ks]);
    });
    ctx.for_range(K - 1, [&](int pass) {
      ctx.for_range(K - 1 - pass, [&](int j) {
        const std::size_t js = static_cast<std::size_t>(j);
        ctx.if_then(vlt(rank[js], rank[js + 1]), [&] {
          const Vec<T> tr = rank[js];
          ctx.set(rank[js], rank[js + 1]);
          ctx.set(rank[js + 1], tr);
          const Vec<T> tw = r.w[js];
          ctx.set(r.w[js], r.w[js + 1]);
          ctx.set(r.w[js + 1], tw);
          const Vec<T> ts = r.sd[js];
          ctx.set(r.sd[js], r.sd[js + 1]);
          ctx.set(r.sd[js + 1], ts);
          const Vec<T> tm = r.m[js];
          ctx.set(r.m[js], r.m[js + 1]);
          ctx.set(r.m[js + 1], tm);
          const Vec<T> td = r.diff[js];
          ctx.set(r.diff[js], r.diff[js + 1]);
          ctx.set(r.diff[js + 1], td);
        });
      });
    });
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      ctx.if_then(~bg, [&] {  // early exit: decided lanes sit idle
        const Pred bgk = vge(r.w[ks], a.p.gamma2) &
                         vlt(r.diff[ks], r.sd[ks] * a.p.gamma1d);
        bg.bits |= bgk.bits & ctx.active_mask();
      });
    });
  } else {
    // Unconditional scan of all components (Algorithm 3) — no divergence,
    // order irrelevant.
    ctx.for_range(K, [&](int k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      const Vec<T> d = keeps_diff_array(a.level)
                           ? r.diff[ks]
                           : vabs(x - r.m[ks]);  // F: recompute (post-update)
      const Pred bgk =
          vge(r.w[ks], a.p.gamma2) & vlt(d, r.sd[ks] * a.p.gamma1d);
      bg = bg | bgk;
    });
  }

  const Vec<std::int32_t> fg_val =
      select(bg, Vec<std::int32_t>(0), Vec<std::int32_t>(255));
  ctx.store(a.foreground, gid, fg_val);
}

}  // namespace

template <typename T>
gpusim::KernelStats launch_mog_frame(
    gpusim::Device& device, DeviceMogState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, OptLevel level, int threads_per_block) {
  MOG_CHECK(frame.count == state.num_pixels() &&
                foreground.count == state.num_pixels(),
            "frame/foreground buffers must cover all pixels");
  MOG_CHECK(uses_aos_layout(level) == (state.layout() == ParamLayout::kAoS),
            "device state layout does not match the optimization level");

  KernelArgs<T> args{&state,       frame, foreground, params, level,
                     static_cast<Addr>(state.num_pixels())};

  gpusim::LaunchConfig cfg;
  cfg.num_threads = static_cast<std::int64_t>(state.num_pixels());
  cfg.threads_per_block = threads_per_block;
  return device.launch(cfg, [&](gpusim::BlockCtx& blk) {
    blk.parallel([&](WarpCtx& warp) { mog_warp(warp, args); });
  });
}

template gpusim::KernelStats launch_mog_frame<float>(
    gpusim::Device&, DeviceMogState<float>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<float>&, OptLevel, int);
template gpusim::KernelStats launch_mog_frame<double>(
    gpusim::Device&, DeviceMogState<double>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<double>&, OptLevel, int);

}  // namespace mog::kernels::MOG_ISA_NS
