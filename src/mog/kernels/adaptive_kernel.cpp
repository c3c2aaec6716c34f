#include "mog/kernels/level_kernels.hpp"

namespace mog::kernels::MOG_ISA_NS {

namespace {

using gpusim::Addr;
using gpusim::Pred;
using gpusim::Vec;
using gpusim::WarpCtx;

template <typename T>
struct AdaptiveArgs {
  const AdaptiveDeviceState<T>* state;
  gpusim::DevSpan<std::uint8_t> frame;
  gpusim::DevSpan<std::uint8_t> foreground;
  TypedMogParams<T> p;
  T prune_weight;
  Addr n;
  AdaptiveCounters* counters;
};

/// The variable-K warp body. Parameters stay memory-resident throughout —
/// per-lane slot indices (cnt differs across lanes) defeat register caching,
/// which is exactly the §II "unbalanced memory access" effect.
template <typename T>
void adaptive_warp(WarpCtx& ctx, const AdaptiveArgs<T>& a) {
  const T alpha = a.p.alpha;
  const T oma = a.p.one_minus_alpha;
  const T min_var = a.p.min_sd * a.p.min_sd;
  const auto& st = *a.state;

  const Vec<Addr> gid = ctx.global_ids();
  const Vec<T> x = ctx.load<T>(a.frame, gid);
  Vec<std::int32_t> cnt = ctx.load<std::int32_t>(st.counts(), gid);

  auto slot_idx = [&](int k) {
    return gid + static_cast<Addr>(k) * a.n;
  };
  auto lane_slot_idx = [&](const Vec<std::int32_t>& k) {
    // Per-lane slot index: gid + k*n (two instructions on real hardware).
    Vec<Addr> idx = gid;
    for (int i = 0; i < gpusim::kWarpSize; ++i)
      idx[i] = gid[i] + static_cast<Addr>(k[i]) * a.n;
    return idx;
  };

  // Lockstep bound: every lane runs to the warp-wide maximum count.
  const int warp_max = ctx.lane_max(cnt, 1);
  if (a.counters != nullptr) {
    std::uint64_t lane_iters = 0;
    for (int i = 0; i < gpusim::kWarpSize; ++i)
      if ((ctx.active_mask() >> i) & 1u)
        lane_iters += static_cast<std::uint64_t>(cnt[i]);
    a.counters->lane_iterations.fetch_add(lane_iters,
                                          std::memory_order_relaxed);
    a.counters->lockstep_iterations.fetch_add(
        static_cast<std::uint64_t>(warp_max) *
            static_cast<std::uint64_t>(ctx.active_count()),
        std::memory_order_relaxed);
  }

  // --- match / update over active slots --------------------------------------
  Pred any{};
  for (int k = 0; k < warp_max; ++k) {
    ctx.if_then(vlt(Vec<std::int32_t>(k), cnt), [&] {
      const Vec<Addr> idx = slot_idx(k);
      const Vec<T> mk = ctx.load<T>(st.means(), idx);
      const Vec<T> sk = ctx.load<T>(st.sds(), idx);
      const Vec<T> d = vabs(mk - x);
      const Pred match = vlt(d, sk * a.p.gamma1);
      any.bits |= match.bits & ctx.active_mask();
      ctx.if_then_else(
          match,
          [&] {
            const Vec<T> wk = ctx.load<T>(st.weights(), idx);
            const Vec<T> w_new = vfma(wk, Vec<T>(alpha), Vec<T>(oma));
            const Vec<T> tmp = oma / w_new;
            const Vec<T> delta = x - mk;
            const Vec<T> m_new = vfma(tmp, delta, mk);
            Vec<T> var = sk * sk;
            var = vfma(tmp, delta * delta - var, var);
            var = vmax(var, Vec<T>(min_var));
            const Vec<T> sd_new = vsqrt(var);
            ctx.store(st.weights(), idx, w_new);
            ctx.store(st.means(), idx, m_new);
            ctx.store(st.sds(), idx, sd_new);
          },
          [&] {
            const Vec<T> wk = ctx.load<T>(st.weights(), idx);
            ctx.store(st.weights(), idx, wk * Vec<T>(alpha));
          });
    });
  }

  // --- growth / replacement on no-match --------------------------------------
  ctx.if_then(~any, [&] {
    const Pred can_grow =
        vlt(cnt, static_cast<std::int32_t>(st.max_components()));
    ctx.if_then_else(
        can_grow,
        [&] {
          const Vec<Addr> idx = lane_slot_idx(cnt);
          ctx.store(st.weights(), idx, Vec<T>(a.p.w_init));
          ctx.store(st.means(), idx, x);
          ctx.store(st.sds(), idx, Vec<T>(a.p.sd_init));
          ctx.set(cnt, cnt + Vec<std::int32_t>(1));
        },
        [&] {
          // Replace the lowest-weight slot: scan active slots.
          Vec<T> min_w(static_cast<T>(1e30));
          Vec<std::int32_t> min_k(0);
          for (int k = 0; k < warp_max; ++k) {
            ctx.if_then(vlt(Vec<std::int32_t>(k), cnt), [&] {
              const Vec<T> wk = ctx.load<T>(st.weights(), slot_idx(k));
              const Pred less = vlt(wk, min_w);
              // Masked blends: only active lanes may update their minimum.
              ctx.set(min_w, select(less, wk, min_w));
              ctx.set(min_k, select(less, Vec<std::int32_t>(k), min_k));
            });
          }
          const Vec<Addr> idx = lane_slot_idx(min_k);
          ctx.store(st.weights(), idx, Vec<T>(a.p.w_init));
          ctx.store(st.means(), idx, x);
          ctx.store(st.sds(), idx, Vec<T>(a.p.sd_init));
        });
  });
  const int warp_max2 = ctx.lane_max(cnt, 1);  // growth may have raised it

  // --- normalization over active slots ----------------------------------------
  Vec<T> sum(T{0});
  for (int k = 0; k < warp_max2; ++k) {
    ctx.if_then(vlt(Vec<std::int32_t>(k), cnt), [&] {
      const Vec<T> wk = ctx.load<T>(st.weights(), slot_idx(k));
      ctx.set(sum, sum + wk);
    });
  }
  const Vec<T> inv = T{1} / sum;
  for (int k = 0; k < warp_max2; ++k) {
    ctx.if_then(vlt(Vec<std::int32_t>(k), cnt), [&] {
      const Vec<T> wk = ctx.load<T>(st.weights(), slot_idx(k));
      ctx.store(st.weights(), slot_idx(k), wk * inv);
    });
  }

  // --- prune negligible slots (swap-with-last, matching the CPU order) --------
  for (int k = warp_max2 - 1; k >= 0; --k) {
    const Pred valid = vlt(Vec<std::int32_t>(k), cnt);
    ctx.if_then(valid, [&] {
      const Vec<T> wk = ctx.load<T>(st.weights(), slot_idx(k));
      const Pred prunable =
          vlt(wk, Vec<T>(a.prune_weight)) & vgt(cnt, std::int32_t{1});
      ctx.if_then(prunable, [&] {
        const Vec<std::int32_t> last = cnt - Vec<std::int32_t>(1);
        const Vec<Addr> last_idx = lane_slot_idx(last);
        const Vec<Addr> k_idx = slot_idx(k);
        // Move the last slot into k (the pruned weight is discarded).
        ctx.store(st.weights(), k_idx, ctx.load<T>(st.weights(), last_idx));
        ctx.store(st.means(), k_idx, ctx.load<T>(st.means(), last_idx));
        ctx.store(st.sds(), k_idx, ctx.load<T>(st.sds(), last_idx));
        ctx.set(cnt, last);
      });
    });
  }

  // --- decision over active slots ----------------------------------------------
  Pred bg{};
  const int warp_max3 = ctx.lane_max(cnt, 1);
  for (int k = 0; k < warp_max3; ++k) {
    ctx.if_then(vlt(Vec<std::int32_t>(k), cnt), [&] {
      const Vec<Addr> idx = slot_idx(k);
      const Vec<T> wk = ctx.load<T>(st.weights(), idx);
      const Vec<T> mk = ctx.load<T>(st.means(), idx);
      const Vec<T> sk = ctx.load<T>(st.sds(), idx);
      const Pred bgk =
          vge(wk, a.p.gamma2) & vlt(vabs(x - mk), sk * a.p.gamma1d);
      bg.bits |= bgk.bits & ctx.active_mask();
    });
  }

  ctx.store(st.counts(), gid, cnt);
  ctx.store(a.foreground, gid,
            select(bg, Vec<std::int32_t>(0), Vec<std::int32_t>(255)));
}

}  // namespace

template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters, int threads_per_block) {
  MOG_CHECK(frame.count == state.num_pixels() &&
                foreground.count == state.num_pixels(),
            "frame/foreground buffers must cover all pixels");
  MOG_CHECK(params.k == state.max_components(),
            "params.k must equal the state's max component count");

  AdaptiveArgs<T> args{&state,
                       frame,
                       foreground,
                       params,
                       prune_weight,
                       static_cast<Addr>(state.num_pixels()),
                       counters};
  gpusim::LaunchConfig cfg;
  cfg.num_threads = static_cast<std::int64_t>(state.num_pixels());
  cfg.threads_per_block = threads_per_block;
  return device.launch(cfg, [&](gpusim::BlockCtx& blk) {
    blk.parallel([&](WarpCtx& warp) { adaptive_warp(warp, args); });
  });
}

template gpusim::KernelStats launch_adaptive_frame<float>(
    gpusim::Device&, AdaptiveDeviceState<float>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<float>&, float, AdaptiveCounters*, int);
template gpusim::KernelStats launch_adaptive_frame<double>(
    gpusim::Device&, AdaptiveDeviceState<double>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<double>&, double, AdaptiveCounters*, int);

}  // namespace mog::kernels::MOG_ISA_NS
