// Tests for the CPU MoG implementations: algorithmic behaviour (adaptation,
// detection, multi-modal absorption), numerical invariants, consistency
// between the serial / SIMD / parallel flavours, and the cost model anchors.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "mog/cpu/cost_model.hpp"
#include "mog/cpu/model_io.hpp"
#include "mog/cpu/mog_update.hpp"
#include "mog/cpu/parallel_mog.hpp"
#include "mog/cpu/serial_mog.hpp"
#include "mog/cpu/simd_mog.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

SceneConfig quiet_scene(int w = 48, int h = 32) {
  SceneConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.seed = 21;
  cfg.num_objects = 0;
  cfg.texture_fraction = 0.0;
  cfg.flicker_regions = false;
  cfg.waving_region = false;
  cfg.noise_sd = 1.0;
  return cfg;
}

double foreground_fraction(const FrameU8& fg) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < fg.size(); ++i) n += (fg[i] != 0);
  return static_cast<double>(n) / static_cast<double>(fg.size());
}

TEST(SerialMog, StaticSceneConvergesToBackground) {
  const SyntheticScene scene{quiet_scene()};
  SerialMog<double> mog{scene.width(), scene.height()};
  FrameU8 fg;
  for (int t = 0; t < 30; ++t) mog.apply(scene.frame(t), fg);
  EXPECT_LT(foreground_fraction(fg), 0.01);
}

TEST(SerialMog, DetectsNewObject) {
  SceneConfig cfg = quiet_scene();
  const SyntheticScene quiet{cfg};
  SerialMog<double> mog{cfg.width, cfg.height};
  FrameU8 fg;
  for (int t = 0; t < 30; ++t) mog.apply(quiet.frame(t), fg);

  // Paint a bright square into the next frame: it must light up as fg.
  FrameU8 frame = quiet.frame(30);
  for (int y = 8; y < 20; ++y)
    for (int x = 8; x < 20; ++x) frame.at(x, y) = 250;
  mog.apply(frame, fg);
  int hits = 0;
  for (int y = 8; y < 20; ++y)
    for (int x = 8; x < 20; ++x) hits += (fg.at(x, y) != 0);
  EXPECT_GT(hits, 120);  // ≥ ~85% of the 144 painted pixels
  // And the rest of the frame stays background.
  EXPECT_LT(foreground_fraction(fg), 0.2);
}

TEST(SerialMog, StationaryObjectGetsAbsorbedIntoBackground) {
  SceneConfig cfg = quiet_scene();
  const SyntheticScene quiet{cfg};
  MogParams params;
  params.alpha = 0.92;  // faster adaptation to keep the test short
  SerialMog<double> mog{cfg.width, cfg.height, params};
  FrameU8 fg;
  for (int t = 0; t < 20; ++t) mog.apply(quiet.frame(t), fg);

  auto with_box = [&](int t) {
    FrameU8 f = quiet.frame(t);
    for (int y = 8; y < 20; ++y)
      for (int x = 8; x < 20; ++x) f.at(x, y) = 250;
    return f;
  };
  mog.apply(with_box(20), fg);
  EXPECT_GT(foreground_fraction(fg), 0.05);  // initially detected
  for (int t = 21; t < 140; ++t) mog.apply(with_box(t), fg);
  EXPECT_LT(foreground_fraction(fg), 0.01);  // absorbed
}

TEST(SerialMog, MultiModalBackgroundIsLearned) {
  SceneConfig cfg = quiet_scene();
  cfg.texture_fraction = 1.0;  // every patch bimodal
  const SyntheticScene scene{cfg};
  SerialMog<double> mog{cfg.width, cfg.height};
  FrameU8 fg;
  for (int t = 0; t < 80; ++t) mog.apply(scene.frame(t), fg);
  // After learning, both modes must be accepted as background.
  double fg_late = 0;
  for (int t = 80; t < 90; ++t) {
    mog.apply(scene.frame(t), fg);
    fg_late += foreground_fraction(fg);
  }
  EXPECT_LT(fg_late / 10, 0.03);
}

TEST(SerialMog, WeightsStayNormalizedAndFinite) {
  const SyntheticScene scene{quiet_scene(32, 24)};
  SerialMog<double> mog{32, 24};
  FrameU8 fg;
  for (int t = 0; t < 25; ++t) mog.apply(scene.frame(t), fg);
  const auto& m = mog.model();
  for (std::size_t p = 0; p < m.num_pixels(); ++p) {
    double sum = 0;
    for (int k = 0; k < m.num_components(); ++k) {
      ASSERT_TRUE(std::isfinite(m.weight(p, k)));
      ASSERT_TRUE(std::isfinite(m.mean(p, k)));
      ASSERT_TRUE(std::isfinite(m.sd(p, k)));
      ASSERT_GE(m.weight(p, k), 0.0);
      ASSERT_GE(m.sd(p, k), MogParams{}.min_sd - 1e-9);
      sum += m.weight(p, k);
    }
    ASSERT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SerialMog, ComponentsSortedByRankAfterUpdate) {
  const SyntheticScene scene{quiet_scene(32, 24)};
  SerialMog<double> mog{32, 24};
  FrameU8 fg;
  for (int t = 0; t < 10; ++t) mog.apply(scene.frame(t), fg);
  const auto& m = mog.model();
  for (std::size_t p = 0; p < m.num_pixels(); p += 5) {
    for (int k = 0; k + 1 < m.num_components(); ++k)
      ASSERT_GE(m.rank(p, k), m.rank(p, k + 1) - 1e-12);
  }
}

TEST(SerialMog, BackgroundEstimateTracksScene) {
  SceneConfig cfg = quiet_scene();
  cfg.noise_sd = 1.0;
  const SyntheticScene scene{cfg};
  MogParams params;
  params.alpha = 0.9;  // learn quickly so the mean converges within the test
  SerialMog<double> mog{cfg.width, cfg.height, params};
  FrameU8 fg;
  for (int t = 0; t < 60; ++t) mog.apply(scene.frame(t), fg);
  const FrameU8 bg = to_u8(mog.background());
  const FrameU8 plate = scene.background_plate(60);
  double err = 0;
  for (std::size_t i = 0; i < bg.size(); ++i)
    err += std::abs(static_cast<double>(bg[i]) - plate[i]);
  EXPECT_LT(err / static_cast<double>(bg.size()), 3.0);
}

TEST(SerialMog, RejectsMismatchedFrame) {
  SerialMog<double> mog{32, 24};
  FrameU8 wrong(16, 16), fg;
  EXPECT_THROW(mog.apply(wrong, fg), Error);
}

TEST(MogParams, ValidationCatchesBadValues) {
  MogParams p;
  p.alpha = 1.5;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.num_components = 0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.weight_threshold = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = {};
  p.min_sd = p.initial_sd + 1;
  EXPECT_THROW(p.validate(), Error);
}

// --- consistency across implementations ------------------------------------

using LevelParams = std::tuple<int /*K*/, bool /*float*/>;

class CpuConsistency : public ::testing::TestWithParam<LevelParams> {};

TEST_P(CpuConsistency, ParallelMatchesSerialExactly) {
  const auto [k, use_float] = GetParam();
  SceneConfig cfg;
  cfg.width = 64;
  cfg.height = 40;
  cfg.seed = 33;
  const SyntheticScene scene{cfg};
  MogParams params;
  params.num_components = k;

  auto run = [&](auto serial, auto parallel) {
    FrameU8 fg_s, fg_p;
    for (int t = 0; t < 12; ++t) {
      const FrameU8 f = scene.frame(t);
      serial->apply(f, fg_s);
      parallel->apply(f, fg_p);
      ASSERT_EQ(fg_s, fg_p) << "frame " << t;
    }
  };
  if (use_float) {
    auto s = std::make_unique<SerialMog<float>>(64, 40, params);
    auto p = std::make_unique<ParallelMog<float>>(64, 40, params, 4);
    run(s.get(), p.get());
  } else {
    auto s = std::make_unique<SerialMog<double>>(64, 40, params);
    auto p = std::make_unique<ParallelMog<double>>(64, 40, params, 4);
    run(s.get(), p.get());
  }
}

TEST_P(CpuConsistency, SimdFlavourAgreesWithSerialDecisions) {
  const auto [k, use_float] = GetParam();
  if (use_float) GTEST_SKIP() << "covered by the double variant";
  SceneConfig cfg;
  cfg.width = 64;
  cfg.height = 40;
  cfg.seed = 34;
  const SyntheticScene scene{cfg};
  MogParams params;
  params.num_components = k;
  SerialMog<double> serial{64, 40, params};
  SimdMog<double> simd{64, 40, params};
  FrameU8 fg_s, fg_v;
  double total_disagreement = 0;
  for (int t = 0; t < 15; ++t) {
    const FrameU8 f = scene.frame(t);
    serial.apply(f, fg_s);
    simd.apply(f, fg_v);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < fg_s.size(); ++i)
      diff += (fg_s[i] != fg_v[i]);
    total_disagreement +=
        static_cast<double>(diff) / static_cast<double>(fg_s.size());
  }
  // The no-sort flavour reorders float ops; decisions may flip only on a
  // tiny fraction of threshold-straddling pixels.
  EXPECT_LT(total_disagreement / 15, 0.005);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuConsistency,
                         ::testing::Combine(::testing::Values(3, 5),
                                            ::testing::Bool()),
                         [](const auto& desc) {
                           return "K" +
                                  std::to_string(std::get<0>(desc.param)) +
                                  (std::get<1>(desc.param) ? "_float"
                                                           : "_double");
                         });

// --- per-pixel update kernel properties -------------------------------------

TEST(MogUpdate, MatchedUpdateMovesMeanTowardSample) {
  const TypedMogParams<double> p = TypedMogParams<double>::from(MogParams{});
  double w = 1.0, m = 100.0, sd = 8.0;
  detail::update_matched(w, m, sd, 110.0, p);
  EXPECT_GT(m, 100.0);
  EXPECT_LT(m, 110.0);
  EXPECT_GT(w, 0.99);
}

TEST(MogUpdate, SdFloorHolds) {
  const TypedMogParams<double> p = TypedMogParams<double>::from(MogParams{});
  double w = 1.0, m = 100.0, sd = 4.0;
  for (int i = 0; i < 200; ++i) detail::update_matched(w, m, sd, 100.0, p);
  EXPECT_GE(sd, p.min_sd - 1e-12);
}

TEST(MogUpdate, NosortSurvivesDegenerateZeroWeights) {
  // Regression: the predicated path divides by the updated weight; dormant
  // (zero-weight, non-matching) components must not poison the blend with
  // NaNs (0 * NaN = NaN).
  MogParams mp;
  const TypedMogParams<double> p = TypedMogParams<double>::from(mp);
  double w[3] = {1.0, 0.0, 0.0};
  double m[3] = {100.0, 0.0, 0.0};
  double sd[3] = {4.0, 4.0, 4.0};  // tight: x=200 matches nothing
  const bool fg = update_pixel_nosort(w, m, sd, 1, 200.0, p);
  EXPECT_TRUE(fg);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(std::isfinite(w[k]));
    ASSERT_TRUE(std::isfinite(m[k]));
    ASSERT_TRUE(std::isfinite(sd[k]));
  }
}

TEST(MogUpdate, VirtualComponentReplacesLowestWeight) {
  MogParams mp;
  const TypedMogParams<double> p = TypedMogParams<double>::from(mp);
  double w[3] = {0.7, 0.2, 0.1};
  double m[3] = {50.0, 120.0, 200.0};
  double sd[3] = {4.0, 4.0, 4.0};
  const bool fg = update_pixel_sorted(w, m, sd, 1, 90.0, p);
  EXPECT_TRUE(fg);  // fresh component starts below the weight threshold
  bool found = false;
  for (int k = 0; k < 3; ++k) found |= (m[k] == 90.0);
  EXPECT_TRUE(found);
}

// --- cost model ---------------------------------------------------------------

TEST(CostModel, ReproducesPaperAnchors) {
  const CpuCostModel cost;
  EXPECT_NEAR(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 1920,
                           1080, 450, 3),
              227.3, 0.1);
  EXPECT_NEAR(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 1920,
                           1080, 450, 5),
              406.6, 0.1);
  EXPECT_NEAR(cost.seconds(CpuVariant::kSerial, Precision::kFloat, 1920, 1080,
                           450, 3),
              180.0, 0.2);
  EXPECT_NEAR(cost.seconds(CpuVariant::kSimd, Precision::kDouble, 1920, 1080,
                           450, 3),
              163.0, 0.2);
  EXPECT_NEAR(cost.seconds(CpuVariant::kParallel, Precision::kDouble, 1920,
                           1080, 450, 3, 8),
              99.8, 0.2);
}

TEST(CostModel, ScalesLinearlyInPixelsAndFrames) {
  const CpuCostModel cost;
  const double full = cost.seconds(CpuVariant::kSerial, Precision::kDouble,
                                   1920, 1080, 450, 3);
  EXPECT_NEAR(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 960, 540,
                           450, 3),
              full / 4, 1e-9);
  EXPECT_NEAR(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 1920,
                           1080, 45, 3),
              full / 10, 1e-9);
}

TEST(CostModel, MoreThreadsNeverSlower) {
  const CpuCostModel cost;
  double prev = 1e18;
  for (int t : {1, 2, 4, 8, 16}) {
    const double s = cost.seconds(CpuVariant::kParallel, Precision::kDouble,
                                  1920, 1080, 450, 3, t);
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
}

// --- model persistence ---------------------------------------------------------

std::string temp_model_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ModelIo, RoundTripPreservesStateBitExactly) {
  const SyntheticScene scene{quiet_scene()};
  SerialMog<double> mog{scene.width(), scene.height()};
  FrameU8 fg;
  for (int t = 0; t < 10; ++t) mog.apply(scene.frame(t), fg);

  const std::string path = temp_model_path("mog_model_roundtrip.mogm");
  save_model(path, mog.model());
  const MogModel<double> loaded = load_model<double>(path, mog.params());
  EXPECT_EQ(loaded.weights(), mog.model().weights());
  EXPECT_EQ(loaded.means(), mog.model().means());
  EXPECT_EQ(loaded.sds(), mog.model().sds());
  std::remove(path.c_str());
}

TEST(ModelIo, ResumedEngineContinuesIdentically) {
  const SyntheticScene scene{quiet_scene()};
  SerialMog<double> full{scene.width(), scene.height()};
  FrameU8 fg_full, fg_resumed;
  for (int t = 0; t < 12; ++t) full.apply(scene.frame(t), fg_full);

  // Warm a twin for 8 frames, persist, reload into a fresh engine, and run
  // the remaining 4 frames: outputs must match the uninterrupted run.
  const std::string path = temp_model_path("mog_model_resume.mogm");
  {
    SerialMog<double> warm{scene.width(), scene.height()};
    FrameU8 fg;
    for (int t = 0; t < 8; ++t) warm.apply(scene.frame(t), fg);
    save_model(path, warm.model());
  }
  SerialMog<double> resumed{scene.width(), scene.height()};
  resumed.model() = load_model<double>(path, resumed.params());
  for (int t = 8; t < 12; ++t) resumed.apply(scene.frame(t), fg_resumed);
  EXPECT_EQ(fg_full, fg_resumed);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsWrongScalarType) {
  SerialMog<float> mog{32, 24};
  const std::string path = temp_model_path("mog_model_f32.mogm");
  save_model(path, mog.model());
  EXPECT_THROW(load_model<double>(path, MogParams{}), Error);
  EXPECT_NO_THROW(load_model<float>(path, MogParams{}));
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbageAndMissingFiles) {
  EXPECT_THROW(load_model<double>("/nonexistent/model.mogm", MogParams{}),
               Error);
  const std::string path = temp_model_path("mog_model_garbage.mogm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model";
  }
  EXPECT_THROW(load_model<double>(path, MogParams{}), Error);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsTruncatedFile) {
  SerialMog<double> mog{16, 16};
  const std::string path = temp_model_path("mog_model_trunc.mogm");
  save_model(path, mog.model());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);  // lose half the payload
  try {
    load_model<double>(path, MogParams{});
    FAIL() << "truncated model loaded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsUnsupportedVersion) {
  SerialMog<double> mog{16, 16};
  const std::string path = temp_model_path("mog_model_ver.mogm");
  save_model(path, mog.model());
  {
    // Stamp a far-future format version into the header (offset 4).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const std::uint32_t version = 99;
    f.write(reinterpret_cast<const char*>(&version), sizeof version);
  }
  try {
    load_model<double>(path, MogParams{});
    FAIL() << "future-version model loaded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsComponentMismatch) {
  SerialMog<double> mog{16, 16};
  const std::string path = temp_model_path("mog_model_k.mogm");
  save_model(path, mog.model());
  MogParams p5;
  p5.num_components = 5;
  EXPECT_THROW(load_model<double>(path, p5), Error);
  std::remove(path.c_str());
}

TEST(ModelIo, InMemoryRoundTripIsBitExact) {
  const SyntheticScene scene{quiet_scene()};
  SerialMog<double> mog{scene.width(), scene.height()};
  FrameU8 fg;
  for (int t = 0; t < 6; ++t) mog.apply(scene.frame(t), fg);

  const std::vector<std::uint8_t> bytes = serialize_model(mog.model());
  const MogModel<double> restored =
      deserialize_model<double>(bytes.data(), bytes.size(), mog.params());
  EXPECT_EQ(restored.weights(), mog.model().weights());
  EXPECT_EQ(restored.means(), mog.model().means());
  EXPECT_EQ(restored.sds(), mog.model().sds());
}

TEST(ModelIo, TruncationAtEveryRegionThrowsTypedError) {
  SerialMog<double> mog{16, 12};
  const std::vector<std::uint8_t> bytes = serialize_model(mog.model());
  // Cut inside the header, at the header boundary, inside each parameter
  // array, and one byte short of complete: all must reject as truncation,
  // none may return a partially populated model.
  const std::size_t cuts[] = {0,
                              1,
                              23,
                              24,
                              bytes.size() / 4,
                              bytes.size() / 2,
                              3 * bytes.size() / 4,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    try {
      deserialize_model<double>(bytes.data(), cut, MogParams{});
      FAIL() << "accepted a payload cut to " << cut << " bytes";
    } catch (const ModelTruncatedError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, BitFlipInAnyArrayThrowsChecksumError) {
  SerialMog<double> mog{16, 16};
  const SyntheticScene scene{quiet_scene(16, 16)};
  FrameU8 fg;
  for (int t = 0; t < 4; ++t) mog.apply(scene.frame(t), fg);
  const std::vector<std::uint8_t> clean = serialize_model(mog.model());

  // One flipped bit anywhere in the weights / means / sds arrays or in the
  // stored CRC itself must be caught by the checksum.
  const std::size_t header = 24, payload = clean.size() - header - 4;
  const std::size_t offsets[] = {header,
                                 header + payload / 6,
                                 header + payload / 2,
                                 header + 5 * payload / 6,
                                 clean.size() - 5,
                                 clean.size() - 1};
  for (const std::size_t at : offsets) {
    std::vector<std::uint8_t> bad = clean;
    bad[at] ^= 0x10;
    try {
      deserialize_model<double>(bad.data(), bad.size(), MogParams{});
      FAIL() << "accepted a bit flip at byte " << at;
    } catch (const ModelChecksumError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, DimensionBombHeaderIsRejectedBeforeAllocation) {
  SerialMog<double> mog{16, 12};
  std::vector<std::uint8_t> bytes = serialize_model(mog.model());
  // Forge absurd dimensions into the header (width at offset 12): without
  // the cap the loader would try to allocate terabytes before noticing the
  // payload is 9 KB.
  const std::int32_t bomb = 1 << 30;
  std::memcpy(bytes.data() + 12, &bomb, sizeof bomb);
  EXPECT_THROW(
      deserialize_model<double>(bytes.data(), bytes.size(), MogParams{}),
      ModelFormatError);
  // Zero and negative dimensions are equally malformed.
  const std::int32_t zero = 0, negative = -16;
  std::memcpy(bytes.data() + 12, &zero, sizeof zero);
  EXPECT_THROW(
      deserialize_model<double>(bytes.data(), bytes.size(), MogParams{}),
      ModelFormatError);
  std::memcpy(bytes.data() + 12, &negative, sizeof negative);
  EXPECT_THROW(
      deserialize_model<double>(bytes.data(), bytes.size(), MogParams{}),
      ModelFormatError);
}

TEST(ModelIo, TrailingGarbageIsRejected) {
  SerialMog<double> mog{16, 12};
  std::vector<std::uint8_t> bytes = serialize_model(mog.model());
  bytes.push_back(0xab);  // one byte past the declared payload
  try {
    deserialize_model<double>(bytes.data(), bytes.size(), MogParams{});
    FAIL() << "accepted trailing garbage";
  } catch (const ModelFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, ErrorTypesFormAHierarchyUnderError) {
  // Callers can catch the family (ModelIoError) or the root (Error) without
  // caring which specific guard fired.
  SerialMog<double> mog{16, 12};
  std::vector<std::uint8_t> bytes = serialize_model(mog.model());
  bytes[30] ^= 0x01;
  EXPECT_THROW(
      deserialize_model<double>(bytes.data(), bytes.size(), MogParams{}),
      ModelIoError);
  EXPECT_THROW(deserialize_model<double>(bytes.data(), 10, MogParams{}),
               ModelIoError);
  EXPECT_THROW(
      deserialize_model<double>(bytes.data(), bytes.size(), MogParams{}),
      Error);
}

TEST(CostModel, RejectsBadInputs) {
  const CpuCostModel cost;
  EXPECT_THROW(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 0, 10,
                            10, 3),
               Error);
  EXPECT_THROW(cost.seconds(CpuVariant::kSerial, Precision::kDouble, 10, 10,
                            10, 0),
               Error);
}

}  // namespace
}  // namespace mog
