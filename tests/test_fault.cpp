// Tests for the fault-injection layer: deterministic replay, scheduled
// faults, frame-level fault kinds, the device fault hooks, model health
// validation, and the CRC-protected model snapshot format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mog/common/crc32.hpp"
#include "mog/common/rng.hpp"
#include "mog/cpu/model_io.hpp"
#include "mog/cpu/serial_mog.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/fault/model_health.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using fault::FaultConfig;
using fault::FaultInjector;
using fault::FaultSite;
using fault::FrameFault;

constexpr int kW = 32, kH = 24;

FrameU8 test_frame(int t) {
  SceneConfig c;
  c.width = kW;
  c.height = kH;
  return SyntheticScene{c}.frame(t);
}

// Exercise every fault site of an injector the same way twice and return
// the log — used to assert bit-identical replay.
fault::InjectionLog drive_injector(const FaultConfig& cfg) {
  FaultInjector inj{cfg};
  std::vector<std::uint8_t> payload(64, 0x5a);
  std::vector<double> model(128, 0.5);
  for (int t = 0; t < 50; ++t) {
    FrameU8 f = test_frame(t);
    inj.apply_frame_faults(f);
    try {
      inj.before_transfer(gpusim::TransferDir::kHostToDevice, payload.size());
      inj.after_transfer(gpusim::TransferDir::kHostToDevice, payload.data(),
                         payload.size());
    } catch (const gpusim::TransferError&) {
    }
    try {
      inj.before_transfer(gpusim::TransferDir::kDeviceToHost, payload.size());
    } catch (const gpusim::TransferError&) {
    }
    try {
      inj.before_launch();
    } catch (const gpusim::LaunchError&) {
    }
    inj.corrupt_model_maybe(model.data(), model.size());
  }
  return inj.log();
}

TEST(FaultInjector, ReplayIsDeterministic) {
  FaultConfig cfg;
  cfg.seed = 77;
  cfg.frame_drop_prob = 0.05;
  cfg.frame_truncate_prob = 0.05;
  cfg.frame_corrupt_prob = 0.05;
  cfg.upload_fault_prob = 0.1;
  cfg.download_fault_prob = 0.1;
  cfg.launch_fault_prob = 0.1;
  cfg.payload_bitflip_prob = 0.2;
  cfg.model_corrupt_prob = 0.05;

  const fault::InjectionLog a = drive_injector(cfg);
  const fault::InjectionLog b = drive_injector(cfg);
  EXPECT_EQ(a, b);
  // With these rates over 50 frames, something must actually have fired.
  EXPECT_GT(a.upload_faults + a.download_faults + a.launch_faults, 0u);
  EXPECT_GT(a.frames_dropped + a.frames_truncated + a.frames_corrupted, 0u);

  FaultConfig other = cfg;
  other.seed = 78;
  EXPECT_NE(drive_injector(other), a);
}

TEST(FaultInjector, ScheduledFaultPinsExactOperation) {
  FaultConfig cfg;
  cfg.schedule.push_back({FaultSite::kLaunch, 2});
  FaultInjector inj{cfg};
  EXPECT_NO_THROW(inj.before_launch());
  EXPECT_NO_THROW(inj.before_launch());
  EXPECT_THROW(inj.before_launch(), gpusim::LaunchError);
  EXPECT_NO_THROW(inj.before_launch());
  EXPECT_EQ(inj.log().launch_faults, 1u);
  EXPECT_EQ(inj.log().launches_seen, 4u);
}

TEST(FaultInjector, FrameFaultKinds) {
  {
    FaultConfig cfg;
    cfg.frame_drop_prob = 1.0;
    FaultInjector inj{cfg};
    FrameU8 f = test_frame(0);
    EXPECT_EQ(inj.apply_frame_faults(f), FrameFault::kDropped);
    EXPECT_TRUE(f.empty());
  }
  {
    FaultConfig cfg;
    cfg.frame_truncate_prob = 1.0;
    FaultInjector inj{cfg};
    FrameU8 f = test_frame(0);
    EXPECT_EQ(inj.apply_frame_faults(f), FrameFault::kTruncated);
    EXPECT_EQ(f.width(), kW);
    EXPECT_GT(f.height(), 0);
    EXPECT_LT(f.height(), kH);
  }
  {
    FaultConfig cfg;
    cfg.frame_corrupt_prob = 1.0;
    FaultInjector inj{cfg};
    FrameU8 f = test_frame(0);
    EXPECT_EQ(inj.apply_frame_faults(f), FrameFault::kCorrupted);
    ASSERT_EQ(f.width(), kW);
    std::size_t saturated = 0;
    for (std::size_t i = 0; i < f.size(); ++i)
      saturated += (f[i] == 0 || f[i] == 255) ? 1u : 0u;
    EXPECT_GT(saturated, f.size() / 4);  // a visible burst, not a blip
  }
}

TEST(FaultInjector, UploadFaultSurfacesThroughPipeline) {
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.upload_fault_prob = 1.0;
    return cfg;
  }());
  GpuMogPipeline<double>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  GpuMogPipeline<double> pipe{cfg};
  pipe.device().set_fault_hook(injector.get());
  FrameU8 fg;
  EXPECT_THROW(pipe.process(test_frame(0), fg), gpusim::TransferError);
  // An upload fault fires before any model state changes: the pipeline is
  // clean and the same call simply succeeds once the fault clears.
  EXPECT_FALSE(pipe.in_flight());
  pipe.device().set_fault_hook(nullptr);
  EXPECT_TRUE(pipe.process(test_frame(0), fg));
  EXPECT_EQ(pipe.frames_processed(), 1u);
}

TEST(FaultInjector, DownloadFaultLeavesPipelineResumable) {
  auto injector = std::make_shared<FaultInjector>([] {
    FaultConfig cfg;
    cfg.download_fault_prob = 1.0;
    return cfg;
  }());
  GpuMogPipeline<double>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  GpuMogPipeline<double> pipe{cfg};
  pipe.device().set_fault_hook(injector.get());
  FrameU8 fg;
  EXPECT_THROW(pipe.process(test_frame(0), fg), gpusim::TransferError);
  // The model update already ran; only the mask download is owed.
  EXPECT_TRUE(pipe.in_flight());
  EXPECT_EQ(pipe.frames_processed(), 1u);
  pipe.device().set_fault_hook(nullptr);
  EXPECT_TRUE(pipe.resume(fg));
  EXPECT_FALSE(pipe.in_flight());
  EXPECT_EQ(fg.width(), kW);
  // frames_processed did not double-count the resumed frame.
  EXPECT_EQ(pipe.frames_processed(), 1u);
}

TEST(FaultInjector, PayloadBitflipChangesExactlyOneBit) {
  FaultConfig cfg;
  cfg.payload_bitflip_prob = 1.0;
  FaultInjector inj{cfg};
  std::vector<std::uint8_t> payload(256, 0x00);
  inj.after_transfer(gpusim::TransferDir::kDeviceToHost, payload.data(),
                     payload.size());
  int bits_set = 0;
  for (std::uint8_t b : payload)
    while (b) {
      bits_set += b & 1;
      b = static_cast<std::uint8_t>(b >> 1);
    }
  EXPECT_EQ(bits_set, 1);
  EXPECT_EQ(inj.log().payload_bitflips, 1u);
}

// ---------------------------------------------------------------------------
// Model health validation
// ---------------------------------------------------------------------------

TEST(ModelHealth, CleanModelIsHealthy) {
  MogParams params;
  MogModel<double> model(kW, kH, params);
  const fault::ModelHealth h = fault::validate_model(model);
  EXPECT_EQ(h.pixels_checked, model.num_pixels());
  EXPECT_EQ(h.non_finite, 0u);
  EXPECT_EQ(h.nonpositive_sd, 0u);
  EXPECT_LT(h.max_weight_drift, 1e-9);
  EXPECT_TRUE(h.healthy(fault::kDefaultWeightDriftTolerance));
}

TEST(ModelHealth, DetectsNaNBadSdAndDrift) {
  MogParams params;
  MogModel<double> model(kW, kH, params);
  model.mean(3, 0) = std::numeric_limits<double>::quiet_NaN();
  model.sd(5, 0) = 0.0;
  model.weight(7, 0) = 2.0;  // weight sum drifts to 2
  const fault::ModelHealth h = fault::validate_model(model);
  EXPECT_EQ(h.non_finite, 1u);
  EXPECT_EQ(h.nonpositive_sd, 1u);
  EXPECT_NEAR(h.max_weight_drift, 1.0, 1e-12);
  EXPECT_FALSE(h.healthy(fault::kDefaultWeightDriftTolerance));
  EXPECT_FALSE(h.summary().empty());
}

TEST(ModelHealth, StrideSubsamplesButStillCounts) {
  MogParams params;
  MogModel<double> model(kW, kH, params);
  const fault::ModelHealth h = fault::validate_model(model, 4);
  EXPECT_EQ(h.pixels_checked, (model.num_pixels() + 3) / 4);
}

TEST(ModelHealth, DeviceStateOverloadMatchesHostModel) {
  GpuMogPipeline<double>::Config cfg;
  cfg.width = kW;
  cfg.height = kH;
  GpuMogPipeline<double> pipe{cfg};
  FrameU8 fg;
  for (int t = 0; t < 4; ++t) pipe.process(test_frame(t), fg);
  const fault::ModelHealth h =
      fault::validate_model(pipe.state(), cfg.params);
  EXPECT_TRUE(h.healthy(fault::kDefaultWeightDriftTolerance));
  EXPECT_EQ(h.pixels_checked, static_cast<std::uint64_t>(kW) * kH);
}

TEST(ModelHealth, CorruptModelMaybePoisonsOneScalar) {
  FaultConfig cfg;
  cfg.model_corrupt_prob = 1.0;
  FaultInjector inj{cfg};
  std::vector<float> data(64, 1.0f);
  EXPECT_TRUE(inj.corrupt_model_maybe(data.data(), data.size()));
  int nans = 0;
  for (float v : data) nans += std::isnan(v) ? 1 : 0;
  EXPECT_EQ(nans, 1);
}

// ---------------------------------------------------------------------------
// CRC-protected model snapshots (MOGM v2)
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

MogModel<double> warmed_model() {
  MogParams params;
  SerialMog<double> mog(kW, kH, params);
  FrameU8 fg;
  for (int t = 0; t < 6; ++t) mog.apply(test_frame(t), fg);
  return mog.model();
}

TEST(ModelIoCrc, RoundTripsV2) {
  const std::string path = temp_path("mog_crc_roundtrip.mogm");
  const MogModel<double> model = warmed_model();
  save_model(path, model);
  const MogModel<double> loaded = load_model<double>(path, MogParams{});
  EXPECT_EQ(loaded.means(), model.means());
  EXPECT_EQ(loaded.weights(), model.weights());
  EXPECT_EQ(loaded.sds(), model.sds());
  std::filesystem::remove(path);
}

TEST(ModelIoCrc, RejectsCorruptedPayload) {
  const std::string path = temp_path("mog_crc_corrupt.mogm");
  save_model(path, warmed_model());
  std::vector<char> bytes = slurp(path);
  // Flip one payload byte well past the header.
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(path, bytes);
  try {
    load_model<double>(path, MogParams{});
    FAIL() << "corrupted snapshot loaded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(ModelIoCrc, StillLoadsVersion1Files) {
  const std::string path = temp_path("mog_crc_v1.mogm");
  const MogModel<double> model = warmed_model();
  save_model(path, model);
  // Rewrite as a v1 file: version field back to 1, trailing CRC removed.
  std::vector<char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 1;
  bytes[5] = bytes[6] = bytes[7] = 0;
  bytes.resize(bytes.size() - 4);
  spit(path, bytes);
  const MogModel<double> loaded = load_model<double>(path, MogParams{});
  EXPECT_EQ(loaded.means(), model.means());
  std::filesystem::remove(path);
}

TEST(ModelIoCrc, Crc32MatchesKnownVector) {
  // IEEE 802.3 check value for the ASCII string "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  Crc32 acc;
  acc.update("1234", 4);
  acc.update("56789", 5);
  EXPECT_EQ(acc.value(), 0xcbf43926u);
}

TEST(ModelIoCrc, EightByteStepsMatchTheBytewiseOracle) {
  // Random lengths 0..4 KiB from misaligned starts, fed whole and as two
  // update() calls split at a random point: every checksum must equal the
  // one-byte-per-step loop's.
  Rng rng{20261019};
  std::vector<std::uint8_t> buf(4096 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.next_u64() % 4097;
    const std::size_t start = rng.next_u64() % 8;
    const std::size_t split = len == 0 ? 0 : rng.next_u64() % (len + 1);
    const std::uint8_t* p = buf.data() + start;
    SCOPED_TRACE("len " + std::to_string(len) + " start " +
                 std::to_string(start) + " split " + std::to_string(split));
    const std::uint32_t want =
        detail::crc32_bytewise(0xffffffffu, p, len) ^ 0xffffffffu;
    EXPECT_EQ(crc32(p, len), want);
    Crc32 acc;
    acc.update(p, split);
    acc.update(p + split, len - split);
    EXPECT_EQ(acc.value(), want);
  }
}

TEST(ModelIoCrc, PinnedModelImageChecksum) {
  // A fixed MOGM v2 image: its embedded CRC and the checksum of the whole
  // image are pinned (values from the bytewise CRC), so the faster CRC
  // cannot change the format.
  MogParams params;
  params.num_components = 3;
  MogModel<double> model(16, 8, params);
  for (std::size_t i = 0; i < model.means().size(); ++i) {
    model.means()[i] = static_cast<double>(i % 251) * 0.5;
    model.sds()[i] = 4.0 + static_cast<double>(i % 7);
    model.weights()[i] = 1.0 / 3.0;
  }
  const std::vector<std::uint8_t> image = serialize_model(model);
  ASSERT_EQ(image.size(), 4u * 6 + 3u * 3 * 16 * 8 * 8 + 4);
  std::uint32_t embedded;
  std::memcpy(&embedded, image.data() + image.size() - 4, 4);
  EXPECT_EQ(embedded, 0x38a97570u);
  EXPECT_EQ(crc32(image.data(), image.size()), 0x94c1194fu);
}

}  // namespace
}  // namespace mog
