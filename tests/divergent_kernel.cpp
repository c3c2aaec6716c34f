#include "divergent_kernel.hpp"

namespace mog::testkernels::MOG_ISA_NS {

using gpusim::Addr;
using gpusim::BlockCtx;
using gpusim::Pred;
using gpusim::Vec;
using gpusim::WarpCtx;

// A data-dependent while_any (lanes drop out at different trip counts), a
// divergent if_then_else, int/SP/DP arithmetic, both divide pipes, sqrt,
// fma, select, all comparison flavors, vcast in both directions, vote
// (any), shuffle reduction (lane_max), and conflicted shared-memory traffic.
gpusim::KernelStats launch_divergent(gpusim::Device& device,
                                     const gpusim::DevSpan<double>& in,
                                     const gpusim::DevSpan<double>& out) {
  const auto n = static_cast<std::int64_t>(in.count);
  return device.launch(gpusim::LaunchConfig{n, 128}, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<double>(64);
    blk.parallel([&](WarpCtx& warp) {
      const Vec<Addr> gid = warp.global_ids();
      Vec<double> x = warp.load<double>(in, gid);
      Vec<std::int32_t> limit = vcast<std::int32_t>(x);
      Vec<std::int32_t> i{0};
      Vec<double> acc{0.0};
      warp.while_any([&] { return vlt(i, limit); },
                     [&] {
                       warp.set(acc, vfma(acc, Vec<double>{0.5}, vsqrt(x)));
                       warp.set(i, i + 1);
                     });
      warp.if_then_else(
          vgt(x, Vec<double>{3.0}), [&] { warp.set(acc, acc + x); },
          [&] { warp.set(acc, acc * Vec<double>{1.5}); });
      warp.if_then(veq(i, limit),
                   [&] { warp.set(acc, acc + Vec<double>{1.0}); });
      // SP pipes: cast down, sqrt + divide in float, cast back up.
      const Vec<float> f = vsqrt(vcast<float>(x) + 1.0f) / 2.0f;
      warp.set(acc, acc + vcast<double>(f));
      warp.set(acc, vmin(vabs(acc), vmax(acc, x)));
      const Pred p = vge(acc, x) | ~vle(acc, Vec<double>{4.0});
      warp.set(acc, select(p, acc - x, acc));
      // Stride-2 doubles: 4 distinct words per bank, 4-way conflict.
      const Vec<Addr> sidx = Vec<Addr>::iota(0, 2);
      warp.shared_store(sh, sidx, acc);
      const Vec<double> y = warp.shared_load(sh, sidx);
      (void)warp.any(vgt(y, Vec<double>{2.0}));
      const std::int32_t m = warp.lane_max(limit);
      warp.store(out, gid, y + Vec<double>{static_cast<double>(m)} / x);
    });
  });
}

}  // namespace mog::testkernels::MOG_ISA_NS
