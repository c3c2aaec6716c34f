// Quickstart: subtract the background from a synthetic surveillance
// sequence with the fully-optimized GPU pipeline (level F) and inspect the
// profiler. ~30 lines of actual API use.
//
//   $ ./examples/quickstart [output_dir]
//
// Writes frame / foreground-mask / background-estimate PGMs for the last
// frame and prints the modeled GPU performance.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "mog/core/background_subtractor.hpp"
#include "mog/video/pnm_io.hpp"
#include "mog/video/scene.hpp"

int main(int argc, char** argv) try {
  if (argc > 2 || (argc == 2 && !std::filesystem::is_directory(argv[1]))) {
    std::fprintf(stderr, "usage: quickstart [existing_output_dir]\n");
    return 2;
  }
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // A deterministic synthetic scene stands in for a camera.
  mog::SceneConfig scene_cfg;
  scene_cfg.width = 640;
  scene_cfg.height = 360;
  scene_cfg.num_objects = 3;
  const mog::SyntheticScene camera{scene_cfg};

  // Background subtractor: simulated-GPU backend, optimization level F.
  mog::BackgroundSubtractor::Config cfg;
  cfg.width = scene_cfg.width;
  cfg.height = scene_cfg.height;
  mog::BackgroundSubtractor bgs{cfg};

  mog::FrameU8 frame, mask;
  constexpr int kFrames = 40;
  for (int t = 0; t < kFrames; ++t) {
    frame = camera.frame(t);
    bgs.apply(frame, mask);
  }

  std::size_t fg_pixels = 0;
  for (std::size_t i = 0; i < mask.size(); ++i) fg_pixels += (mask[i] != 0);
  std::printf("processed %d frames at %dx%d; last mask: %.2f%% foreground\n",
              kFrames, cfg.width, cfg.height,
              100.0 * static_cast<double>(fg_pixels) /
                  static_cast<double>(mask.size()));

  mog::write_pgm(out_dir + "/quickstart_frame.pgm", frame);
  mog::write_pgm(out_dir + "/quickstart_mask.pgm", mask);
  mog::write_pgm(out_dir + "/quickstart_background.pgm", bgs.background());
  std::printf("wrote quickstart_{frame,mask,background}.pgm to %s\n",
              out_dir.c_str());

  const auto profile = bgs.profile();
  if (profile.available) {
    std::printf(
        "simulated GPU: %.2f ms/frame kernel, occupancy %.0f%%, branch "
        "efficiency %.1f%%, memory efficiency %.1f%%\n",
        1e3 * profile.kernel_timing.total_seconds,
        100.0 * profile.occupancy.achieved,
        100.0 * profile.per_frame.branch_efficiency(),
        100.0 * profile.per_frame.memory_access_efficiency());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
