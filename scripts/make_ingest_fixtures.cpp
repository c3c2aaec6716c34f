// Fixture encoder for the ingestion front end.
//
//   $ make_ingest_fixtures --golden DIR [--frames N] [--width W] [--height H]
//   $ make_ingest_fixtures --corpus DIR
//
// --golden writes encoded golden files (Y4M mono, Y4M 4:2:0, MJPEG at two
// qualities) rendered from the deterministic video::Scene generator — the
// same frames the synthetic serving path consumes, so tests can assert that
// masks from the decoded path are bit-identical to the synthetic path.
//
// --corpus (re)generates the committed fuzz seed corpus under
// tests/fuzz/corpus/{y4m,jpeg,pnm}. Convention: ok_* must parse, bad_* must
// throw a typed error; neither may crash. The corpus is deterministic — no
// clocks, no RNG beyond the scene seed — so regeneration is reproducible.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/ingest/mjpeg.hpp"
#include "mog/ingest/y4m.hpp"
#include "mog/video/scene.hpp"

namespace {

namespace fs = std::filesystem;
using mog::FrameU8;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "make_ingest_fixtures: %s (usage: make_ingest_fixtures "
               "--golden DIR [--frames N] [--width W] [--height H] | "
               "--corpus DIR)\n",
               why.c_str());
  std::exit(2);
}

std::vector<FrameU8> scene_frames(int width, int height, int frames) {
  mog::SceneConfig sc = mog::SceneConfig::highway(width, height);
  mog::SyntheticScene scene{sc};
  std::vector<FrameU8> out;
  for (int t = 0; t < frames; ++t) out.push_back(scene.frame(t));
  return out;
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out{path, std::ios::binary};
  MOG_CHECK(bool(out), "cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  MOG_CHECK(bool(out), "write failed: " + path.string());
  std::printf("  %s (%zu bytes)\n", path.string().c_str(), b.size());
}

void write_text(const fs::path& path, const std::string& s) {
  write_bytes(path, std::vector<std::uint8_t>{s.begin(), s.end()});
}

void write_y4m(const fs::path& path, const std::vector<FrameU8>& frames,
               mog::ingest::Y4mColorspace cs) {
  mog::ingest::Y4mHeader h;
  h.width = frames.front().width();
  h.height = frames.front().height();
  h.colorspace = cs;
  mog::ingest::Y4mWriter w{path.string(), h};
  for (const FrameU8& f : frames) w.append(f);
  w.close();
  std::printf("  %s (%ju bytes)\n", path.string().c_str(),
              static_cast<std::uintmax_t>(fs::file_size(path)));
}

void make_golden(const fs::path& dir, int width, int height, int frames) {
  fs::create_directories(dir);
  std::printf("golden fixtures (%dx%d, %d frames) -> %s\n", width, height,
              frames, dir.string().c_str());
  const std::vector<FrameU8> fr = scene_frames(width, height, frames);

  write_y4m(dir / "scene_mono.y4m", fr, mog::ingest::Y4mColorspace::kMono);
  write_y4m(dir / "scene_420.y4m", fr, mog::ingest::Y4mColorspace::k420);

  mog::ingest::JpegEncodeConfig q90;
  q90.quality = 90;
  write_bytes(dir / "scene_q90.mjpeg", mog::ingest::encode_mjpeg(fr, q90));
  mog::ingest::JpegEncodeConfig q50;
  q50.quality = 50;
  q50.restart_interval = 4;
  write_bytes(dir / "scene_q50_rst.mjpeg",
              mog::ingest::encode_mjpeg(fr, q50));
}

// --- fuzz seed corpus -------------------------------------------------------

void corpus_y4m(const fs::path& dir) {
  fs::create_directories(dir);
  const std::vector<FrameU8> fr = scene_frames(24, 16, 2);
  write_y4m(dir / "ok_mono.y4m", fr, mog::ingest::Y4mColorspace::kMono);
  write_y4m(dir / "ok_420.y4m", fr, mog::ingest::Y4mColorspace::k420);

  // Valid header with every optional tag the parser skips.
  std::string tagged = "YUV4MPEG2 W8 H4 F25:1 Ip A1:1 C420jpeg XYSCSS=420\n";
  for (int f = 0; f < 2; ++f) {
    tagged += "FRAME\n";
    tagged.append(8 * 4 + 2 * 4 * 2, static_cast<char>(0x80));
  }
  write_text(dir / "ok_tagged.y4m", tagged);
  // FRAME with parameters after the marker.
  std::string framep = "YUV4MPEG2 W4 H2 Cmono\nFRAME Ip\n";
  framep.append(8, static_cast<char>(0x40));
  write_text(dir / "ok_frame_params.y4m", framep);

  write_text(dir / "bad_magic.y4m", "JUV4MPEG2 W4 H4 Cmono\n");
  write_text(dir / "bad_missing_height.y4m", "YUV4MPEG2 W16 Cmono\nFRAME\n");
  write_text(dir / "bad_dims_bomb.y4m",
             "YUV4MPEG2 W999999 H999999 Cmono\nFRAME\n");
  write_text(dir / "bad_odd_420.y4m", "YUV4MPEG2 W5 H4 C420\nFRAME\n");
  write_text(dir / "bad_colorspace.y4m", "YUV4MPEG2 W4 H4 C444\nFRAME\n");
  write_text(dir / "bad_frame_marker.y4m",
             "YUV4MPEG2 W4 H2 Cmono\nFRAMA\nXXXXXXXX");
  std::string trunc = "YUV4MPEG2 W4 H2 Cmono\nFRAME\n";
  trunc.append(3, 'x');  // promises 8 luma bytes, delivers 3
  write_text(dir / "bad_truncated_frame.y4m", trunc);
  write_text(dir / "bad_zero_width.y4m", "YUV4MPEG2 W0 H4 Cmono\nFRAME\n");
}

void corpus_jpeg(const fs::path& dir) {
  fs::create_directories(dir);
  const std::vector<FrameU8> fr = scene_frames(24, 16, 1);

  mog::ingest::JpegEncodeConfig cfg;
  cfg.quality = 90;
  write_bytes(dir / "ok_q90.jpg", encode_jpeg_gray(fr[0], cfg));
  cfg.quality = 25;
  write_bytes(dir / "ok_q25.jpg", encode_jpeg_gray(fr[0], cfg));
  cfg.quality = 90;
  cfg.restart_interval = 2;
  write_bytes(dir / "ok_restart.jpg", encode_jpeg_gray(fr[0], cfg));
  cfg.restart_interval = 0;
  cfg.ycbcr420 = true;
  write_bytes(dir / "ok_ycbcr420.jpg", encode_jpeg_gray(fr[0], cfg));

  cfg = {};
  const std::vector<std::uint8_t> good = encode_jpeg_gray(fr[0], cfg);

  // Truncations at structurally interesting depths.
  write_bytes(dir / "bad_soi_only.jpg", {0xFF, 0xD8});
  write_bytes(dir / "bad_trunc_half.jpg",
              {good.begin(),
               good.begin() + static_cast<std::ptrdiff_t>(good.size() / 2)});
  write_bytes(dir / "bad_no_eoi.jpg", {good.begin(), good.end() - 2});

  write_bytes(dir / "bad_no_soi.jpg", {0x00, 0x01, 0x02, 0x03});

  // Oversubscribed Huffman table: 17 codes of length 1.
  std::vector<std::uint8_t> bad_huff = good;
  for (std::size_t i = 0; i + 4 < bad_huff.size(); ++i) {
    if (bad_huff[i] == 0xFF && bad_huff[i + 1] == 0xC4) {
      bad_huff[i + 5] = 17;  // first BITS entry
      break;
    }
  }
  write_bytes(dir / "bad_oversubscribed_dht.jpg", bad_huff);

  // SOF claiming bomb dimensions (patch height/width fields of SOF0).
  std::vector<std::uint8_t> bomb = good;
  for (std::size_t i = 0; i + 9 < bomb.size(); ++i) {
    if (bomb[i] == 0xFF && bomb[i + 1] == 0xC0) {
      bomb[i + 5] = 0xFF;  // height hi
      bomb[i + 6] = 0xFF;  // height lo
      bomb[i + 7] = 0xFF;  // width hi
      bomb[i + 8] = 0xFF;  // width lo
      break;
    }
  }
  write_bytes(dir / "bad_dims_bomb.jpg", bomb);

  // Progressive SOF2 is out of scope: must be a typed kUnsupported.
  std::vector<std::uint8_t> prog = good;
  for (std::size_t i = 0; i + 1 < prog.size(); ++i) {
    if (prog[i] == 0xFF && prog[i + 1] == 0xC0) {
      prog[i + 1] = 0xC2;
      break;
    }
  }
  write_bytes(dir / "bad_progressive.jpg", prog);

  // Garbage after EOI.
  std::vector<std::uint8_t> trail = good;
  trail.insert(trail.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  write_bytes(dir / "bad_trailing_garbage.jpg", trail);

  // Corrupt entropy data: flip bytes mid-scan.
  std::vector<std::uint8_t> noisy = good;
  for (std::size_t i = noisy.size() - 12; i < noisy.size() - 4; ++i)
    noisy[i] = static_cast<std::uint8_t>(noisy[i] ^ 0x5A);
  write_bytes(dir / "bad_corrupt_scan.jpg", noisy);
}

void corpus_pnm(const fs::path& dir) {
  fs::create_directories(dir);
  // 2x2 image "ABCD" — matches the historical inline test bytes.
  write_text(dir / "ok_basic.pgm", "P5\n2 2\n255\nABCD");
  write_text(dir / "ok_comment.pgm", "P5\n# a comment\n2 2\n255\nABCD");
  write_text(dir / "ok_maxval15.pgm",
             std::string{"P5\n2 2\n15\n"} +
                 std::string{{0, 5, 10, 15}});
  write_text(dir / "ok_crlf.pgm", "P5\r\n2 2\r\n255\r\nABCD");

  write_text(dir / "bad_garbage.pgm", "NOT A PGM");
  write_text(dir / "bad_alpha_width.pgm", "P5\nabc 10\n255\nx");
  write_text(dir / "bad_negative_width.pgm", "P5\n-3 10\n255\nx");
  write_text(dir / "bad_overflow_width.pgm",
             "P5\n99999999999999999999 4\n255\nx");
  write_text(dir / "bad_dims_bomb.pgm", "P5\n20000 2\n255\nx");
  write_text(dir / "bad_maxval_zero.pgm", "P5\n2 2\n0\nABCD");
  write_text(dir / "bad_maxval_16bit.pgm", "P5\n2 2\n65535\nABCD");
  write_text(dir / "bad_no_sep_after_maxval.pgm", "P5\n2 2\n255");
  write_text(dir / "bad_sep_x_after_maxval.pgm", "P5\n2 2\n255XABCD");
  write_text(dir / "bad_fused_magic.pgm", "P51 1\n255\nA");
  write_text(dir / "bad_truncated_payload.pgm", "P5\n10 10\n255\nabc");
}

}  // namespace

int main(int argc, char** argv) try {
  std::string golden_dir;
  std::string corpus_dir;
  int frames = 8, width = 96, height = 64;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto need = [&](const char* what) -> std::string {
        if (i + 1 >= argc) usage(std::string{what} + " needs a value");
        return argv[++i];
      };
      if (arg == "--golden")
        golden_dir = need("--golden");
      else if (arg == "--corpus")
        corpus_dir = need("--corpus");
      else if (arg == "--frames")
        frames = mog::parse_int(need("--frames"), 1, 1 << 12, "--frames");
      else if (arg == "--width")
        width = mog::parse_int(need("--width"), 16, 4096, "--width");
      else if (arg == "--height")
        height = mog::parse_int(need("--height"), 16, 4096, "--height");
      else
        usage("unknown flag " + arg);
    }
  } catch (const mog::Error& e) {
    usage(e.what());
  }
  if (golden_dir.empty() && corpus_dir.empty())
    usage("need --golden DIR and/or --corpus DIR");

  if (!golden_dir.empty()) make_golden(golden_dir, width, height, frames);
  if (!corpus_dir.empty()) {
    std::printf("fuzz seed corpus -> %s\n", corpus_dir.c_str());
    corpus_y4m(fs::path{corpus_dir} / "y4m");
    corpus_jpeg(fs::path{corpus_dir} / "jpeg");
    corpus_pnm(fs::path{corpus_dir} / "pnm");
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "make_ingest_fixtures: %s\n", e.what());
  return 1;
}
