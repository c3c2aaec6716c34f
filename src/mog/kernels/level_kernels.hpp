// One x86-64 level's kernel entry points (private to the kernels package).
//
// The kernel files compile once per level with MOG_ISA_NS naming the level
// (see isa.hpp); each build defines the entry points below in
// mog::kernels::MOG_ISA_NS and one LevelKernels table pointing at them.
// isa.cpp is the only reader of the tables: the public entry points in
// mog_kernels.hpp and its siblings dispatch through them.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "mog/gpusim/isa_ns.hpp"
#include "mog/kernels/adaptive_kernel.hpp"
#include "mog/kernels/mog_kernels.hpp"
#include "mog/kernels/postproc_kernels.hpp"
#include "mog/kernels/tiled_kernel.hpp"

namespace mog::kernels {

using U8Span = gpusim::DevSpan<std::uint8_t>;

template <typename T>
using MogFrameFn = gpusim::KernelStats(gpusim::Device&, DeviceMogState<T>&,
                                       const U8Span&, const U8Span&,
                                       const TypedMogParams<T>&, OptLevel,
                                       int);
template <typename T>
using TiledGroupFn = gpusim::KernelStats(gpusim::Device&, DeviceMogState<T>&,
                                         std::span<const U8Span>,
                                         std::span<const U8Span>,
                                         const TypedMogParams<T>&,
                                         const TiledConfig&);
template <typename T>
using AdaptiveFrameFn = gpusim::KernelStats(gpusim::Device&,
                                            AdaptiveDeviceState<T>&,
                                            const U8Span&, const U8Span&,
                                            const TypedMogParams<T>&, T,
                                            AdaptiveCounters*, int);
using MaskStageFn = gpusim::KernelStats(gpusim::Device&, const U8Span&,
                                        const U8Span&, int, int, MaskStageOp,
                                        int);
using FusedPostprocFn = gpusim::KernelStats(gpusim::Device&, const U8Span&,
                                            const U8Span&, int, int,
                                            const ValidationConfig&, int);

template <typename T>
struct TypedLevelKernels {
  MogFrameFn<T>* mog_frame;
  TiledGroupFn<T>* tiled_group;
  AdaptiveFrameFn<T>* adaptive_frame;
};

struct LevelKernels {
  TypedLevelKernels<float> f32;
  TypedLevelKernels<double> f64;
  MaskStageFn* mask_stage;
  FusedPostprocFn* fused_postproc;

  template <typename T>
  const TypedLevelKernels<T>& typed() const {
    if constexpr (std::is_same_v<T, float>)
      return f32;
    else
      return f64;
  }
};

namespace MOG_ISA_NS {

template <typename T>
gpusim::KernelStats launch_mog_frame(gpusim::Device& device,
                                     DeviceMogState<T>& state,
                                     const U8Span& frame,
                                     const U8Span& foreground,
                                     const TypedMogParams<T>& params,
                                     OptLevel level, int threads_per_block);

template <typename T>
gpusim::KernelStats launch_tiled_group(gpusim::Device& device,
                                       DeviceMogState<T>& state,
                                       std::span<const U8Span> frames,
                                       std::span<const U8Span> foregrounds,
                                       const TypedMogParams<T>& params,
                                       const TiledConfig& config);

template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const U8Span& frame, const U8Span& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters, int threads_per_block);

gpusim::KernelStats launch_mask_stage(gpusim::Device& device,
                                      const U8Span& in, const U8Span& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block);

gpusim::KernelStats launch_fused_postproc(gpusim::Device& device,
                                          const U8Span& raw,
                                          const U8Span& cleaned, int width,
                                          int height,
                                          const ValidationConfig& config,
                                          int threads_per_block);

extern const LevelKernels kLevelKernels;

}  // namespace MOG_ISA_NS

}  // namespace mog::kernels
