// The MoG device kernels, optimization levels A..F (§IV of the paper).
//
// One launch processes one frame: every thread owns one pixel. Variants
// differ along three axes (see opt_level.hpp):
//   * parameter layout        — AoS (A) vs coalesced SoA (B..F)
//   * control structure       — sorted + branchy (A..C), no-sort branchy (D),
//                               no-sort predicated (E, F)
//   * register usage          — diff[] array kept (A..E) vs recomputed (F)
//
// Faithful structural details that drive the profiler counters:
//   * the branchy variants write mean/sd inside the match branch (masked,
//     scattered stores — the source of B's 78% memory access efficiency),
//     while the predicated variants write every component unconditionally
//     (the "all data fetched is used" ~100% efficiency of E);
//   * rank + sort order the register-resident copies for the early-exit
//     foreground scan (divergent), canonical component order in memory is
//     preserved;
//   * weights are normalized and stored once per frame, after the update.
#pragma once

#include <cstdint>

#include "mog/cpu/mog_update.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/kernels/device_state.hpp"
#include "mog/kernels/isa.hpp"
#include "mog/kernels/opt_level.hpp"

namespace mog::kernels {

inline constexpr int kDefaultThreadsPerBlock = 128;  // §IV-A

/// Run the MoG kernel for one frame. `frame` and `foreground` are
/// device-resident 8-bit buffers of state.num_pixels() elements. Returns the
/// launch's profiler counters; the model update and foreground mask land in
/// device memory. Runs the kernel build of active_isa().
template <typename T>
gpusim::KernelStats launch_mog_frame(
    gpusim::Device& device, DeviceMogState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, OptLevel level,
    int threads_per_block = kDefaultThreadsPerBlock);

/// The same, run by the build for `isa`, which this binary must contain and
/// this CPU must support (throws mog::Error otherwise). Every kernel entry
/// point has this overload, so tests can hold the levels side by side.
template <typename T>
gpusim::KernelStats launch_mog_frame(
    IsaLevel isa, gpusim::Device& device, DeviceMogState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, OptLevel level,
    int threads_per_block = kDefaultThreadsPerBlock);

extern template gpusim::KernelStats launch_mog_frame<float>(
    gpusim::Device&, DeviceMogState<float>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<float>&, OptLevel, int);
extern template gpusim::KernelStats launch_mog_frame<double>(
    gpusim::Device&, DeviceMogState<double>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<double>&, OptLevel, int);

}  // namespace mog::kernels
