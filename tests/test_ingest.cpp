// Tests for the encoded-video ingestion front end: Y4M and baseline-JPEG
// decoding, the MJPEG splitter, typed error discipline, the DecodeWorker
// bridge into the serving layer, and — the acceptance criterion —
// round-trip
// fidelity: frames encoded by the fixture encoder, decoded by ingest, and
// served through a one-device DeviceFleet must produce masks bit-identical
// to the synthetic path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/ingest/decode_worker.hpp"
#include "mog/ingest/jpeg.hpp"
#include "mog/ingest/mjpeg.hpp"
#include "mog/ingest/y4m.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/telemetry/telemetry.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using cluster::DeviceFleet;
using cluster::FleetConfig;
using ingest::DecodeWorker;
using ingest::DecodeWorkerConfig;
using ingest::IngestError;
using ingest::IngestErrorKind;
using ingest::JpegEncodeConfig;
using ingest::MemorySource;
using ingest::Y4mColorspace;
using ingest::Y4mHeader;
using ingest::Y4mReader;

constexpr int kW = 48, kH = 36;

SyntheticScene scene_for(std::uint64_t seed) {
  SceneConfig c;
  c.width = kW;
  c.height = kH;
  c.seed = seed;
  return SyntheticScene{c};
}

std::vector<FrameU8> frames_for(std::uint64_t seed, int n) {
  SyntheticScene s = scene_for(seed);
  std::vector<FrameU8> out;
  for (int t = 0; t < n; ++t) out.push_back(s.frame(t));
  return out;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

IngestErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const IngestError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected an IngestError";
  return IngestErrorKind::kFormat;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Encode frames to a temp Y4M file; returns its path.
std::string write_y4m_file(const char* name, const std::vector<FrameU8>& fr,
                           Y4mColorspace cs) {
  const std::string path = temp_path(name);
  Y4mHeader h;
  h.width = fr.front().width();
  h.height = fr.front().height();
  h.colorspace = cs;
  ingest::Y4mWriter w{path, h};
  for (const FrameU8& f : fr) w.append(f);
  w.close();
  return path;
}

// --- Y4M --------------------------------------------------------------------

TEST(Y4m, RoundTripIsBitExactForBothColorspaces) {
  const std::vector<FrameU8> fr = frames_for(42, 5);
  for (const Y4mColorspace cs : {Y4mColorspace::kMono, Y4mColorspace::k420}) {
    const std::string path = write_y4m_file("mog_ingest_rt.y4m", fr, cs);
    Y4mReader r{std::make_unique<ingest::FileSource>(path)};
    EXPECT_EQ(r.header().width, kW);
    EXPECT_EQ(r.header().height, kH);
    EXPECT_DOUBLE_EQ(r.header().fps(), 30.0);
    FrameU8 f;
    for (std::size_t t = 0; t < fr.size(); ++t) {
      ASSERT_TRUE(r.next(f)) << t;
      EXPECT_EQ(f, fr[t]) << "frame " << t << " not bit-exact";
    }
    EXPECT_FALSE(r.next(f));  // clean EOF
    std::remove(path.c_str());
  }
}

TEST(Y4m, HeaderVariantsParse) {
  // Optional tags, C420jpeg alias, FRAME parameters: all must parse.
  std::string s = "YUV4MPEG2 W8 H4 F25:1 Ip A1:1 C420jpeg XYSCSS=420\n";
  s += "FRAME Xtag\n";
  s.append(8 * 4 + 2 * 4 * 2, static_cast<char>(0x7F));
  const std::vector<FrameU8> fr = ingest::decode_y4m(bytes_of(s));
  ASSERT_EQ(fr.size(), 1u);
  EXPECT_EQ(fr[0].width(), 8);
  EXPECT_EQ(fr[0].height(), 4);
  EXPECT_EQ(fr[0].at(0, 0), 0x7F);
}

TEST(Y4m, TypedErrors) {
  EXPECT_EQ(kind_of([] {
              ingest::decode_y4m(bytes_of("MPEG W4 H4 Cmono\n"));
            }),
            IngestErrorKind::kFormat);
  EXPECT_EQ(kind_of([] {
              ingest::decode_y4m(bytes_of("YUV4MPEG2 W4 Cmono\nFRAME\n"));
            }),
            IngestErrorKind::kFormat);
  EXPECT_EQ(kind_of([] {
              ingest::decode_y4m(
                  bytes_of("YUV4MPEG2 W99999 H99999 Cmono\nFRAME\n"));
            }),
            IngestErrorKind::kBombCap);
  EXPECT_EQ(kind_of([] {
              ingest::decode_y4m(bytes_of("YUV4MPEG2 W5 H4 C420\nFRAME\n"));
            }),
            IngestErrorKind::kUnsupported);
  EXPECT_EQ(kind_of([] {
              ingest::decode_y4m(bytes_of("YUV4MPEG2 W4 H2 Cmono\nFRAME\nxy"));
            }),
            IngestErrorKind::kTruncated);
}

TEST(Y4m, FailedReaderKeepsThrowing) {
  std::string s = "YUV4MPEG2 W4 H2 Cmono\nFRAME\n";
  s.append(8, 'a');
  s += "FRAME\nxx";  // second frame truncated
  Y4mReader r{std::make_unique<MemorySource>(bytes_of(s))};
  FrameU8 f;
  ASSERT_TRUE(r.next(f));
  EXPECT_THROW(r.next(f), IngestError);
  EXPECT_THROW(r.next(f), IngestError);  // failed state is sticky
}

// --- JPEG -------------------------------------------------------------------

TEST(Jpeg, ConstantImageRoundTripsExactly) {
  const FrameU8 g(32, 24, 131);
  JpegEncodeConfig cfg;
  cfg.quality = 95;
  const FrameU8 d = ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(g, cfg));
  EXPECT_EQ(d, g);  // flat blocks survive quantization untouched
}

TEST(Jpeg, QualityControlsReconstructionError) {
  const FrameU8 f = scene_for(7).frame(3);
  double prev_mse = 1e30;
  for (const int q : {25, 50, 75, 95}) {
    JpegEncodeConfig cfg;
    cfg.quality = q;
    const FrameU8 d =
        ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(f, cfg));
    ASSERT_EQ(d.width(), f.width());
    double mse = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const double e = static_cast<double>(f[i]) - d[i];
      mse += e * e;
    }
    mse /= static_cast<double>(f.size());
    EXPECT_LT(mse, prev_mse) << "quality " << q;
    prev_mse = mse;
  }
  EXPECT_LT(prev_mse, 4.0);  // q95: near-transparent
}

TEST(Jpeg, RestartMarkersAndYcbcr420DecodeIdentically) {
  const FrameU8 f = scene_for(9).frame(2);
  JpegEncodeConfig plain;
  plain.quality = 85;
  const FrameU8 base =
      ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(f, plain));

  JpegEncodeConfig rst = plain;
  rst.restart_interval = 3;
  EXPECT_EQ(ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(f, rst)), base);

  JpegEncodeConfig sub = plain;
  sub.ycbcr420 = true;
  EXPECT_EQ(ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(f, sub)), base);
}

TEST(Jpeg, OddDimensionsDecodeToExactGeometry) {
  FrameU8 g(37, 23);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = static_cast<std::uint8_t>(i * 7);
  for (const bool sub : {false, true}) {
    JpegEncodeConfig cfg;
    cfg.ycbcr420 = sub;
    const FrameU8 d =
        ingest::decode_jpeg_gray(ingest::encode_jpeg_gray(g, cfg));
    EXPECT_EQ(d.width(), 37);
    EXPECT_EQ(d.height(), 23);
  }
}

TEST(Jpeg, ProbeReadsGeometryWithoutDecoding) {
  const FrameU8 f = scene_for(3).frame(0);
  JpegEncodeConfig cfg;
  cfg.ycbcr420 = true;
  const ingest::JpegInfo info =
      ingest::probe_jpeg(ingest::encode_jpeg_gray(f, cfg));
  EXPECT_EQ(info.width, kW);
  EXPECT_EQ(info.height, kH);
  EXPECT_EQ(info.components, 3);
}

TEST(Jpeg, TypedErrors) {
  const std::vector<std::uint8_t> good =
      ingest::encode_jpeg_gray(scene_for(1).frame(0));

  EXPECT_EQ(kind_of([&] {
              ingest::decode_jpeg_gray(
                  std::vector<std::uint8_t>{0x00, 0x11});
            }),
            IngestErrorKind::kFormat);
  EXPECT_EQ(kind_of([&] {
              ingest::decode_jpeg_gray(std::span<const std::uint8_t>{
                  good.data(), good.size() / 2});
            }),
            IngestErrorKind::kTruncated);

  std::vector<std::uint8_t> progressive = good;
  for (std::size_t i = 0; i + 1 < progressive.size(); ++i)
    if (progressive[i] == 0xFF && progressive[i + 1] == 0xC0) {
      progressive[i + 1] = 0xC2;
      break;
    }
  EXPECT_EQ(kind_of([&] { ingest::decode_jpeg_gray(progressive); }),
            IngestErrorKind::kUnsupported);

  std::vector<std::uint8_t> bomb = good;
  for (std::size_t i = 0; i + 9 < bomb.size(); ++i)
    if (bomb[i] == 0xFF && bomb[i + 1] == 0xC0) {
      bomb[i + 5] = bomb[i + 6] = bomb[i + 7] = bomb[i + 8] = 0xFF;
      break;
    }
  EXPECT_EQ(kind_of([&] { ingest::decode_jpeg_gray(bomb); }),
            IngestErrorKind::kBombCap);
}

// --- MJPEG ------------------------------------------------------------------

TEST(Mjpeg, SplitsPartsIncludingPaddingAndRestartMarkers) {
  const std::vector<FrameU8> fr = frames_for(5, 4);
  JpegEncodeConfig cfg;
  cfg.restart_interval = 2;  // restart markers inside entropy data
  std::vector<std::uint8_t> stream;
  for (const FrameU8& f : fr) {
    const std::vector<std::uint8_t> part = ingest::encode_jpeg_gray(f, cfg);
    stream.insert(stream.end(), part.begin(), part.end());
    stream.insert(stream.end(), 3, 0x00);  // camera-style NUL padding
  }
  ingest::MjpegReader r{std::make_unique<MemorySource>(stream)};
  FrameU8 f;
  int n = 0;
  while (r.next(f)) {
    EXPECT_EQ(f.width(), kW);
    ++n;
  }
  EXPECT_EQ(n, 4);
  EXPECT_EQ(r.bytes_consumed(), stream.size());
}

TEST(Mjpeg, TruncatedFinalPartIsTypedError) {
  const std::vector<std::uint8_t> part =
      ingest::encode_jpeg_gray(scene_for(2).frame(0));
  std::vector<std::uint8_t> stream = part;
  stream.insert(stream.end(), part.begin(), part.end() - 40);
  ingest::MjpegReader r{std::make_unique<MemorySource>(stream)};
  FrameU8 f;
  ASSERT_TRUE(r.next(f));  // first part decodes
  EXPECT_EQ(kind_of([&] { r.next(f); }), IngestErrorKind::kTruncated);
}

// --- DecodeWorker -----------------------------------------------------------

TEST(DecodeWorker, DeliversWholeStreamWithStats) {
  const std::vector<FrameU8> fr = frames_for(11, 6);
  const std::string path =
      write_y4m_file("mog_ingest_worker.y4m", fr, Y4mColorspace::kMono);

  std::mutex mu;
  std::vector<FrameU8> got;
  std::vector<double> arrivals;
  DecodeWorkerConfig wc;
  wc.fps = 10.0;
  DecodeWorker w{
      std::make_unique<Y4mReader>(std::make_unique<ingest::FileSource>(path)),
      [&](FrameU8 f, double arrival, std::uint64_t ticket) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_GT(ticket, 0u);
        got.push_back(std::move(f));
        arrivals.push_back(arrival);
        return true;
      },
      wc};
  w.start();
  w.join();
  EXPECT_TRUE(w.done());
  EXPECT_FALSE(w.failed());
  ASSERT_EQ(got.size(), fr.size());
  for (std::size_t t = 0; t < fr.size(); ++t) EXPECT_EQ(got[t], fr[t]);
  EXPECT_DOUBLE_EQ(arrivals[3], 0.3);  // n / fps cadence
  const ingest::DecodeStats st = w.stats();
  EXPECT_EQ(st.frames_decoded, fr.size());
  EXPECT_EQ(st.frames_rejected, 0u);
  EXPECT_GT(st.bytes_consumed, 0u);
  std::remove(path.c_str());
}

TEST(DecodeWorker, ErrorStopsAtFrameBoundaryNoPartialFrame) {
  // Two good frames then a truncated third: both good frames must be
  // delivered, nothing after, and the worker reports the typed error.
  std::string s = "YUV4MPEG2 W4 H2 Cmono\n";
  s += "FRAME\nAAAAAAAA";
  s += "FRAME\nBBBBBBBB";
  s += "FRAME\nCC";
  int delivered = 0;
  DecodeWorker w{std::make_unique<Y4mReader>(
                     std::make_unique<MemorySource>(bytes_of(s))),
                 [&](FrameU8 f, double, std::uint64_t) {
                   EXPECT_EQ(f.size(), 8u);
                   ++delivered;
                   return true;
                 }};
  w.start();
  w.join();
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(w.failed());
  EXPECT_NE(w.error().find("truncated"), std::string::npos) << w.error();
  EXPECT_EQ(w.stats().frames_decoded, 2u);
}

// --- round-trip fidelity through the serving layer --------------------------

// The acceptance criterion: Y4M is bit-lossless for grayscale, so frames
// that travel scene -> fixture encoder -> Y4mReader -> DecodeWorker ->
// DeviceFleet must yield masks bit-identical to submitting the scene frames
// directly.
TEST(IngestFidelity, Y4mDecodedMasksMatchSyntheticPathBitExactly) {
  constexpr int kFrames = 6;
  const std::vector<FrameU8> fr = frames_for(77, kFrames);
  const std::string path =
      write_y4m_file("mog_ingest_fidelity.y4m", fr, Y4mColorspace::k420);

  FleetConfig cfg;
  cfg.devices = 1;
  cfg.serve.queue_depth = kFrames;
  DeviceFleet<double> fleet{cfg};
  DeviceFleet<double>::GpuConfig gpu;
  gpu.width = kW;
  gpu.height = kH;
  const int id = fleet.open_stream(gpu);

  DecodeWorker w{
      std::make_unique<Y4mReader>(std::make_unique<ingest::FileSource>(path)),
      [&](FrameU8 f, double arrival, std::uint64_t ticket) {
        return fleet.submit(id, std::move(f), arrival, ticket);
      }};
  w.start();
  w.join();
  ASSERT_FALSE(w.failed()) << w.error();
  fleet.drain();

  const std::vector<FrameU8> served = fleet.take_masks(id);
  ASSERT_EQ(served.size(), static_cast<std::size_t>(kFrames));

  GpuMogPipeline<double>::Config solo_cfg = gpu;
  GpuMogPipeline<double> solo{solo_cfg};
  FrameU8 fg;
  for (int t = 0; t < kFrames; ++t) {
    ASSERT_TRUE(solo.process(fr[static_cast<std::size_t>(t)], fg));
    EXPECT_EQ(served[static_cast<std::size_t>(t)], fg)
        << "mask " << t << " diverged from the synthetic path";
  }
  std::remove(path.c_str());
}

// MJPEG is lossy, so exact mask parity is asserted against the *decoded*
// frames: pushing them through the worker must equal submitting them
// directly (the plumbing adds nothing), and the decode error itself stays
// bounded.
TEST(IngestFidelity, MjpegWorkerPathMatchesDirectSubmissionOfDecodedFrames) {
  constexpr int kFrames = 4;
  const std::vector<FrameU8> fr = frames_for(21, kFrames);
  JpegEncodeConfig ecfg;
  ecfg.quality = 90;
  const std::vector<std::uint8_t> stream = ingest::encode_mjpeg(fr, ecfg);

  // Reference: decode the parts, submit directly.
  std::vector<FrameU8> decoded;
  {
    ingest::MjpegReader r{std::make_unique<MemorySource>(stream)};
    FrameU8 f;
    while (r.next(f)) {
      double err = 0;
      for (std::size_t i = 0; i < f.size(); ++i)
        err = std::max(err, std::abs(static_cast<double>(f[i]) -
                                     fr[decoded.size()][i]));
      EXPECT_LT(err, 48.0) << "q90 reconstruction error out of bounds";
      decoded.push_back(f);
    }
    ASSERT_EQ(decoded.size(), static_cast<std::size_t>(kFrames));
  }

  const auto run = [&](bool via_worker) {
    FleetConfig cfg;
    cfg.devices = 1;
    cfg.serve.queue_depth = kFrames;
    DeviceFleet<double> fleet{cfg};
    DeviceFleet<double>::GpuConfig gpu;
    gpu.width = kW;
    gpu.height = kH;
    const int id = fleet.open_stream(gpu);
    if (via_worker) {
      DecodeWorker w{
          std::make_unique<ingest::MjpegReader>(
              std::make_unique<MemorySource>(stream)),
          [&](FrameU8 f, double arrival, std::uint64_t ticket) {
            return fleet.submit(id, std::move(f), arrival, ticket);
          }};
      w.start();
      w.join();
      EXPECT_FALSE(w.failed()) << w.error();
    } else {
      for (int t = 0; t < kFrames; ++t)
        fleet.submit(id, decoded[static_cast<std::size_t>(t)], t / 30.0);
    }
    fleet.drain();
    return fleet.take_masks(id);
  };
  EXPECT_EQ(run(true), run(false));
}

// The decode span must be the first hop of the frame's flow chain: the
// worker emits flow-begin at decode, and a pre-minted ticket makes queue
// admission a flow-step — not a second begin — on the same ticket.
TEST(IngestFidelity, DecodeSpanStartsTheTicketFlowChain) {
  const std::vector<FrameU8> fr = frames_for(31, 3);
  const std::string path =
      write_y4m_file("mog_ingest_trace.y4m", fr, Y4mColorspace::kMono);

  telemetry::TraceRecorder trace;
  telemetry::set_tracer(&trace);
  FleetConfig cfg;
  cfg.devices = 1;
  DeviceFleet<double> fleet{cfg};
  DeviceFleet<double>::GpuConfig gpu;
  gpu.width = kW;
  gpu.height = kH;
  const int id = fleet.open_stream(gpu);
  DecodeWorker w{
      std::make_unique<Y4mReader>(std::make_unique<ingest::FileSource>(path)),
      [&](FrameU8 f, double arrival, std::uint64_t ticket) {
        return fleet.submit(id, std::move(f), arrival, ticket);
      }};
  w.start();
  w.join();
  fleet.drain();
  telemetry::set_tracer(nullptr);

  int decode_spans = 0, flow_begins = 0, flow_steps = 0, flow_ends = 0;
  for (const telemetry::TraceEvent& e : trace.events()) {
    if (e.name == "decode" && e.cat == "ingest") ++decode_spans;
    if (e.cat == "serve.flow") {
      if (e.phase == 's') ++flow_begins;
      if (e.phase == 't') ++flow_steps;
      if (e.phase == 'f') ++flow_ends;
    }
  }
  EXPECT_EQ(decode_spans, 3);
  EXPECT_EQ(flow_begins, 3);  // exactly one begin per frame — at decode
  EXPECT_GE(flow_steps, 3);   // admission + downstream hops are steps
  EXPECT_EQ(flow_ends, 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mog
