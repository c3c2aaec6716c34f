// Level choice and the public kernel entry points (compiled once, at
// baseline): each entry point forwards to one level's LevelKernels table.
#include "mog/kernels/isa.hpp"

#include "mog/common/error.hpp"
#include "mog/kernels/level_kernels.hpp"

namespace mog::kernels {

// The tables of the levels CMake built (level_kernels.hpp declares this
// translation unit's own, baseline, one).
#if MOG_HAVE_ISA_X86_64_V3
namespace isa_x86_64_v3 {
extern const LevelKernels kLevelKernels;
}
#endif
#if MOG_HAVE_ISA_X86_64_V4
namespace isa_x86_64_v4 {
extern const LevelKernels kLevelKernels;
}
#endif

namespace {

const LevelKernels* built_kernels(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kBaseline: return &isa_baseline::kLevelKernels;
#if MOG_HAVE_ISA_X86_64_V3
    case IsaLevel::kX86_64_V3: return &isa_x86_64_v3::kLevelKernels;
#endif
#if MOG_HAVE_ISA_X86_64_V4
    case IsaLevel::kX86_64_V4: return &isa_x86_64_v4::kLevelKernels;
#endif
    default: return nullptr;
  }
}

/// A level's table; never one this CPU would fault on.
const LevelKernels& level_kernels(IsaLevel isa) {
  const LevelKernels* k = built_kernels(isa);
  MOG_CHECK(k != nullptr, std::string{"kernels for "} + to_string(isa) +
                              " are not built into this binary");
  MOG_CHECK(cpu_supports(isa),
            std::string{"this CPU cannot run "} + to_string(isa) + " code");
  return *k;
}

const LevelKernels& active_kernels() {
  static const LevelKernels& k = level_kernels(active_isa());
  return k;
}

}  // namespace

const char* to_string(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kBaseline: return "baseline";
    case IsaLevel::kX86_64_V3: return "x86-64-v3";
    case IsaLevel::kX86_64_V4: return "x86-64-v4";
  }
  return "?";
}

bool isa_built(IsaLevel isa) { return built_kernels(isa) != nullptr; }

bool cpu_supports(IsaLevel isa) {
  if (isa == IsaLevel::kBaseline) return true;
#if defined(__x86_64__) && defined(__GNUC__)  // clang defines __GNUC__ too
  // A plain check, not an ifunc resolver: it runs after the sanitizer
  // runtimes are up, so TSan builds take the same path. GCC knows the level
  // names; clang gets the features each level adds that its code uses.
  __builtin_cpu_init();
  switch (isa) {
#if defined(__clang__)
    case IsaLevel::kX86_64_V3:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
    case IsaLevel::kX86_64_V4:
      return cpu_supports(IsaLevel::kX86_64_V3) &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512cd") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
#else
    case IsaLevel::kX86_64_V3: return __builtin_cpu_supports("x86-64-v3");
    case IsaLevel::kX86_64_V4: return __builtin_cpu_supports("x86-64-v4");
#endif
    default: return false;
  }
#else
  return false;
#endif
}

IsaLevel active_isa() {
  static const IsaLevel chosen = [] {
    IsaLevel best = IsaLevel::kBaseline;
    for (const IsaLevel isa : kAllIsaLevels)
      if (isa_built(isa) && cpu_supports(isa)) best = isa;
    return best;
  }();
  return chosen;
}

// --- entry points ------------------------------------------------------------

template <typename T>
gpusim::KernelStats launch_mog_frame(IsaLevel isa, gpusim::Device& device,
                                     DeviceMogState<T>& state,
                                     const U8Span& frame,
                                     const U8Span& foreground,
                                     const TypedMogParams<T>& params,
                                     OptLevel level, int threads_per_block) {
  return level_kernels(isa).typed<T>().mog_frame(
      device, state, frame, foreground, params, level, threads_per_block);
}

template <typename T>
gpusim::KernelStats launch_mog_frame(gpusim::Device& device,
                                     DeviceMogState<T>& state,
                                     const U8Span& frame,
                                     const U8Span& foreground,
                                     const TypedMogParams<T>& params,
                                     OptLevel level, int threads_per_block) {
  return active_kernels().typed<T>().mog_frame(
      device, state, frame, foreground, params, level, threads_per_block);
}

template <typename T>
gpusim::KernelStats launch_tiled_group(IsaLevel isa, gpusim::Device& device,
                                       DeviceMogState<T>& state,
                                       std::span<const U8Span> frames,
                                       std::span<const U8Span> foregrounds,
                                       const TypedMogParams<T>& params,
                                       const TiledConfig& config) {
  return level_kernels(isa).typed<T>().tiled_group(device, state, frames,
                                                   foregrounds, params, config);
}

template <typename T>
gpusim::KernelStats launch_tiled_group(gpusim::Device& device,
                                       DeviceMogState<T>& state,
                                       std::span<const U8Span> frames,
                                       std::span<const U8Span> foregrounds,
                                       const TypedMogParams<T>& params,
                                       const TiledConfig& config) {
  return active_kernels().typed<T>().tiled_group(device, state, frames,
                                                 foregrounds, params, config);
}

template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    IsaLevel isa, gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const U8Span& frame, const U8Span& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters, int threads_per_block) {
  return level_kernels(isa).typed<T>().adaptive_frame(
      device, state, frame, foreground, params, prune_weight, counters,
      threads_per_block);
}

template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const U8Span& frame, const U8Span& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters, int threads_per_block) {
  return active_kernels().typed<T>().adaptive_frame(
      device, state, frame, foreground, params, prune_weight, counters,
      threads_per_block);
}

gpusim::KernelStats launch_mask_stage(IsaLevel isa, gpusim::Device& device,
                                      const U8Span& in, const U8Span& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block) {
  return level_kernels(isa).mask_stage(device, in, out, width, height, op,
                                       threads_per_block);
}

gpusim::KernelStats launch_mask_stage(gpusim::Device& device,
                                      const U8Span& in, const U8Span& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block) {
  return active_kernels().mask_stage(device, in, out, width, height, op,
                                     threads_per_block);
}

gpusim::KernelStats launch_fused_postproc(IsaLevel isa,
                                          gpusim::Device& device,
                                          const U8Span& raw,
                                          const U8Span& cleaned, int width,
                                          int height,
                                          const ValidationConfig& config,
                                          int threads_per_block) {
  return level_kernels(isa).fused_postproc(device, raw, cleaned, width,
                                           height, config, threads_per_block);
}

gpusim::KernelStats launch_fused_postproc(gpusim::Device& device,
                                          const U8Span& raw,
                                          const U8Span& cleaned, int width,
                                          int height,
                                          const ValidationConfig& config,
                                          int threads_per_block) {
  return active_kernels().fused_postproc(device, raw, cleaned, width, height,
                                         config, threads_per_block);
}

#define MOG_INSTANTIATE_ENTRY_POINTS(T)                                      \
  template gpusim::KernelStats launch_mog_frame<T>(                          \
      IsaLevel, gpusim::Device&, DeviceMogState<T>&, const U8Span&,          \
      const U8Span&, const TypedMogParams<T>&, OptLevel, int);               \
  template gpusim::KernelStats launch_mog_frame<T>(                          \
      gpusim::Device&, DeviceMogState<T>&, const U8Span&, const U8Span&,     \
      const TypedMogParams<T>&, OptLevel, int);                              \
  template gpusim::KernelStats launch_tiled_group<T>(                        \
      IsaLevel, gpusim::Device&, DeviceMogState<T>&, std::span<const U8Span>, \
      std::span<const U8Span>, const TypedMogParams<T>&, const TiledConfig&); \
  template gpusim::KernelStats launch_tiled_group<T>(                        \
      gpusim::Device&, DeviceMogState<T>&, std::span<const U8Span>,          \
      std::span<const U8Span>, const TypedMogParams<T>&, const TiledConfig&); \
  template gpusim::KernelStats launch_adaptive_frame<T>(                     \
      IsaLevel, gpusim::Device&, AdaptiveDeviceState<T>&, const U8Span&,     \
      const U8Span&, const TypedMogParams<T>&, T, AdaptiveCounters*, int);   \
  template gpusim::KernelStats launch_adaptive_frame<T>(                     \
      gpusim::Device&, AdaptiveDeviceState<T>&, const U8Span&,               \
      const U8Span&, const TypedMogParams<T>&, T, AdaptiveCounters*, int);

MOG_INSTANTIATE_ENTRY_POINTS(float)
MOG_INSTANTIATE_ENTRY_POINTS(double)
#undef MOG_INSTANTIATE_ENTRY_POINTS

}  // namespace mog::kernels
