// This level's entry-point table (compiled once per level, like the kernel
// files it points into).
#include "mog/kernels/level_kernels.hpp"

namespace mog::kernels::MOG_ISA_NS {

const LevelKernels kLevelKernels{
    {&launch_mog_frame<float>, &launch_tiled_group<float>,
     &launch_adaptive_frame<float>},
    {&launch_mog_frame<double>, &launch_tiled_group<double>,
     &launch_adaptive_frame<double>},
    &launch_mask_stage,
    &launch_fused_postproc,
};

}  // namespace mog::kernels::MOG_ISA_NS
