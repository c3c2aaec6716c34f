// Host <-> device transfer timing and the per-frame pipeline schedules.
//
// Fig. 5 of the paper: without overlap, each frame pays
// upload + kernel + download in sequence; with overlap (double buffering,
// Fig. 5b) the DMA engine streams frame i+1 in and foreground i-1 out while
// the kernel processes frame i, so steady-state per-frame time is
// max(kernel, upload + download).
#pragma once

#include <cstdint>

#include "mog/gpusim/device_spec.hpp"

namespace mog::gpusim {

/// Seconds for one DMA transfer of `bytes` over the host link.
double transfer_seconds(const DeviceSpec& spec, std::uint64_t bytes);

struct FrameSchedule {
  double upload_seconds = 0;
  double kernel_seconds = 0;
  double download_seconds = 0;
};

/// Total pipeline seconds for `frames` identical frames, sequential
/// (Fig. 5a): N * (up + kernel + down).
double sequential_pipeline_seconds(const FrameSchedule& f,
                                   std::uint64_t frames);

/// Total pipeline seconds with transfer/kernel overlap (Fig. 5b):
/// up + (N-1) * max(kernel, up + down) + kernel + down — the first upload
/// and last download cannot be hidden.
double overlapped_pipeline_seconds(const FrameSchedule& f,
                                   std::uint64_t frames);

/// Total pipeline seconds for `frames` frames of `per_frame`, launched in
/// groups of `frame_group` (the tiled variant; 1 otherwise): transfers stay
/// per frame and the kernel runs once per group, so each of the
/// ceil(frames / frame_group) groups costs frame_group times the per-frame
/// schedule, composed sequentially or overlapped.
double pipeline_seconds(const FrameSchedule& per_frame, std::uint64_t frames,
                        bool overlapped, int frame_group = 1);

}  // namespace mog::gpusim
