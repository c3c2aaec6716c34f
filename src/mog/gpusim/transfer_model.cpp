#include "mog/gpusim/transfer_model.hpp"

#include <algorithm>

#include "mog/common/error.hpp"

namespace mog::gpusim {

double transfer_seconds(const DeviceSpec& spec, std::uint64_t bytes) {
  if (bytes == 0) return 0.0;
  return spec.dma_setup_seconds +
         static_cast<double>(bytes) / (spec.pcie_effective_gbps * 1e9);
}

double sequential_pipeline_seconds(const FrameSchedule& f,
                                   std::uint64_t frames) {
  return static_cast<double>(frames) *
         (f.upload_seconds + f.kernel_seconds + f.download_seconds);
}

double overlapped_pipeline_seconds(const FrameSchedule& f,
                                   std::uint64_t frames) {
  if (frames == 0) return 0.0;
  const double steady =
      std::max(f.kernel_seconds, f.upload_seconds + f.download_seconds);
  return f.upload_seconds +
         static_cast<double>(frames - 1) * steady + f.kernel_seconds +
         f.download_seconds;
}

double pipeline_seconds(const FrameSchedule& per_frame, std::uint64_t frames,
                        bool overlapped, int frame_group) {
  MOG_CHECK(frame_group >= 1, "a frame group holds at least one frame");
  const double g = static_cast<double>(frame_group);
  FrameSchedule group;
  group.upload_seconds = per_frame.upload_seconds * g;
  group.kernel_seconds = per_frame.kernel_seconds * g;
  group.download_seconds = per_frame.download_seconds * g;
  const std::uint64_t n = static_cast<std::uint64_t>(frame_group);
  const std::uint64_t groups = (frames + n - 1) / n;
  return overlapped ? overlapped_pipeline_seconds(group, groups)
                    : sequential_pipeline_seconds(group, groups);
}

}  // namespace mog::gpusim
