// The interpreter goldens' "divergent" scenario kernel (test_interp_fastpath),
// built once per x86-64 level like the device kernels (tests/CMakeLists.txt
// uses mog_isa_objects), so the goldens hold it at every level.
#pragma once

#include "mog/gpusim/kernel_launch.hpp"

namespace mog::testkernels {

/// Declares one level's build: a kernel exercising every charge path the
/// MoG kernels do not, over `in` -> `out` (1000 doubles, ragged last block).
#define MOG_DECLARE_DIVERGENT_KERNEL(ns)                                   \
  namespace ns {                                                           \
  gpusim::KernelStats launch_divergent(gpusim::Device& device,            \
                                       const gpusim::DevSpan<double>& in, \
                                       const gpusim::DevSpan<double>& out); \
  }

MOG_DECLARE_DIVERGENT_KERNEL(isa_baseline)
#if MOG_HAVE_ISA_X86_64_V3
MOG_DECLARE_DIVERGENT_KERNEL(isa_x86_64_v3)
#endif
#if MOG_HAVE_ISA_X86_64_V4
MOG_DECLARE_DIVERGENT_KERNEL(isa_x86_64_v4)
#endif
#undef MOG_DECLARE_DIVERGENT_KERNEL

}  // namespace mog::testkernels
