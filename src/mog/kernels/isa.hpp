// The x86-64 levels the device kernels are built for, and the one that runs.
//
// The simulator runs every 32-lane warp op as a host loop, so the device
// kernels (mog_kernels, tiled_kernel, postproc_kernels, adaptive_kernel)
// are compiled once per level: baseline x86-64, x86-64-v3 (AVX2 + FMA) and
// x86-64-v4 (AVX-512). Each build lives in its own namespace, together with
// the interpreter layer it instantiates (see gpusim/isa_ns.hpp). Every
// kernel entry point runs the highest level this CPU supports, chosen once
// on first use. No option selects a level: every level produces the same
// masks and counters bit for bit, so the choice moves host time only.
//
// Non-x86 hosts, and compilers that reject a level's -march flag, build the
// baseline alone.
#pragma once

namespace mog::kernels {

enum class IsaLevel { kBaseline, kX86_64_V3, kX86_64_V4 };

inline constexpr IsaLevel kAllIsaLevels[] = {
    IsaLevel::kBaseline, IsaLevel::kX86_64_V3, IsaLevel::kX86_64_V4};

/// "baseline", "x86-64-v3" or "x86-64-v4".
const char* to_string(IsaLevel isa);

/// This binary contains kernels built for `isa`.
bool isa_built(IsaLevel isa);

/// This CPU can run code built for `isa`.
bool cpu_supports(IsaLevel isa);

/// The level every kernel entry point runs: the highest built level the
/// CPU supports, chosen on the first call.
IsaLevel active_isa();

}  // namespace mog::kernels
