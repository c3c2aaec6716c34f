#include "mog/gpusim/warp.hpp"

#include <cmath>

namespace mog::gpusim {

namespace detail {

// Function multiversioning keeps the build portable while letting hosts
// with an FMA unit run the lane loop as vector vfmadd instructions (the
// "fma" clone; glibc's ifunc resolver picks it at load time). Both clones
// produce the one correctly-rounded IEEE 754 fma result per lane, so the
// choice is invisible to every counter and mask byte. TSan builds take the
// default clone only: gcc runs the ifunc resolver before the TSan runtime is
// up, and every instrumented binary would crash at start.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define MOG_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define MOG_FMA_CLONES
#endif

MOG_FMA_CLONES
void fma_lanes(const float* a, const float* b, const float* c, float* r) {
  for (int i = 0; i < kWarpSize; ++i) r[i] = std::fma(a[i], b[i], c[i]);
}

MOG_FMA_CLONES
void fma_lanes(const double* a, const double* b, const double* c, double* r) {
  for (int i = 0; i < kWarpSize; ++i) r[i] = std::fma(a[i], b[i], c[i]);
}

#undef MOG_FMA_CLONES

}  // namespace detail

WarpCtx::WarpCtx(ExecEnv& env, std::int64_t global_thread_base,
                 int active_lanes)
    : env_(env), global_base_(global_thread_base) {
  MOG_CHECK(active_lanes >= 1 && active_lanes <= kWarpSize,
            "warp must have 1..32 active lanes");
  env_.active_mask = active_lanes == kWarpSize
                         ? 0xffffffffu
                         : ((1u << active_lanes) - 1u);
}

WarpCtx::~WarpCtx() = default;

}  // namespace mog::gpusim
