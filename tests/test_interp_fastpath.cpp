// Bit-exactness goldens for the warp interpreter.
//
// Every scenario below runs real kernels and folds (a) every metric exported
// by visit_metrics plus the raw requested-byte counters of every launch and
// (b) every output mask byte into an FNV-1a hash, recorded here as a golden.
// The final launch's metric vector is additionally recorded field-by-field
// so a mismatch names the counter that moved instead of just "hash differs".
// A second golden hashes the floating-point state the kernels leave behind
// (the MoG model, or the divergent kernel's output), bit for bit: a rounding
// change that flips no mask within a scenario's few frames still moves it.
//
// The table pins the interpreter's observable behavior across the surfaces
// an optimization could plausibly disturb: all six optimization levels A-F
// (AoS + SoA layouts, branchy + predicated control), the tiled shared-memory
// kernel, ragged last warps (grid not a warp multiple), a custom kernel with
// a divergent while_any and every charge path (SP/DP/int arithmetic,
// divides, sqrt, fma, select, compares, casts, vote, shuffle reduction,
// shared-memory bank conflicts), each at 1, 2 and 8 executor threads and
// through every x86-64 level's own kernel build (mog/kernels/isa.hpp; the
// divergent kernel is built per level from divergent_kernel.cpp). Fast-path
// refactors of the interpreter must keep every value identical.
//
// Regenerating after an *intentional* accounting change:
//   MOG_INTERP_GOLDEN_REGEN=1 ./test_interp_fastpath
//       --gtest_filter=InterpGoldensTable.Regenerate
// and paste the printed table over kGoldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "divergent_kernel.hpp"
#include "isa_levels.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/kernels/isa.hpp"
#include "mog/kernels/mog_kernels.hpp"
#include "mog/kernels/postproc_kernels.hpp"
#include "mog/kernels/tiled_kernel.hpp"
#include "mog/video/scene.hpp"

namespace mog {
namespace {

using gpusim::Device;
using gpusim::DeviceSpec;
using gpusim::KernelStats;
using kernels::DeviceMogState;
using kernels::IsaLevel;
using kernels::OptLevel;
using kernels::ParamLayout;

constexpr int kMetricCount = 23;

/// visit_metrics order; checked at runtime so a reordered or renamed field
/// fails loudly instead of silently shifting the golden columns.
constexpr const char* kMetricNames[kMetricCount] = {
    "load_instructions",     "store_instructions",
    "load_transactions",     "store_transactions",
    "rmw_transactions",      "bytes_transferred_load",
    "bytes_transferred_store", "dram_page_switches",
    "branches_executed",     "branches_divergent",
    "issue_cycles",          "warp_instructions",
    "shared_accesses",       "shared_cycles",
    "shared_replay_cycles",  "num_blocks",
    "num_warps",             "regs_per_thread",
    "threads_per_block",     "shared_bytes_per_block",
    "memory_access_efficiency", "branch_efficiency",
    "divergence_ratio",
};

struct Snapshot {
  std::vector<std::string> names;  ///< metric names of the final launch
  std::vector<double> last;        ///< metric values of the final launch
  std::uint64_t hash = 14695981039346656037ull;  ///< FNV-1a over everything
  std::uint64_t model_hash = 14695981039346656037ull;  ///< final model state
};

void mix(std::uint64_t& hash, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
}

void fold_stats(Snapshot& snap, const KernelStats& stats) {
  snap.names.clear();
  snap.last.clear();
  gpusim::visit_metrics(stats, [&](const char* name, double v, bool) {
    snap.names.emplace_back(name);
    snap.last.push_back(v);
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(snap.hash, &bits, sizeof bits);
  });
  // Requested bytes feed the gated efficiency metric but are not exported
  // individually; pin the raw counters too.
  const std::uint64_t raw[2] = {stats.bytes_requested_load,
                                stats.bytes_requested_store};
  mix(snap.hash, raw, sizeof raw);
}

/// Fold the device model's weights, means and sds (in MogModel order, so
/// the AoS and SoA layouts hash alike) into the model hash.
void fold_model(Snapshot& snap, const DeviceMogState<double>& state,
                const MogParams& params) {
  const MogModel<double> model = state.download(params);
  for (const std::vector<double>* v :
       {&model.weights(), &model.means(), &model.sds()})
    mix(snap.model_hash, v->data(), v->size() * sizeof(double));
}

Device make_device(int executor_threads) {
  DeviceSpec spec;
  spec.executor_threads = executor_threads;
  return Device{spec};
}

SceneConfig scene_config(int w, int h) {
  SceneConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.seed = 1234;
  return cfg;
}

/// Per-frame MoG launches at one optimization level; `w*h` need not be a
/// multiple of the warp or block size (ragged scenarios rely on that).
Snapshot run_mog(IsaLevel isa, OptLevel level, int threads, int w, int h,
                 int num_frames) {
  Device device = make_device(threads);
  const MogParams params;
  const auto tp = TypedMogParams<double>::from(params);
  DeviceMogState<double> state{device, w, h, params,
                               kernels::uses_aos_layout(level)
                                   ? ParamLayout::kAoS
                                   : ParamLayout::kSoA};
  auto frame_buf = device.memory().alloc<std::uint8_t>(state.num_pixels());
  auto fg_buf = device.memory().alloc<std::uint8_t>(state.num_pixels());
  const SyntheticScene scene{scene_config(w, h)};
  std::vector<std::uint8_t> fg(state.num_pixels());
  Snapshot snap;
  for (int t = 0; t < num_frames; ++t) {
    const FrameU8 f = scene.frame(t);
    gpusim::copy_to_device(frame_buf, f.data(), f.size());
    const KernelStats stats = kernels::launch_mog_frame<double>(
        isa, device, state, frame_buf, fg_buf, tp, level);
    gpusim::copy_from_device(fg.data(), fg_buf, fg.size());
    fold_stats(snap, stats);
    mix(snap.hash, fg.data(), fg.size());
  }
  fold_model(snap, state, params);
  return snap;
}

/// One tiled frame-group launch (shared-memory parameter residency).
Snapshot run_tiled(IsaLevel isa, int threads) {
  Device device = make_device(threads);
  const int w = 64, h = 48, group = 4;
  const MogParams params;
  const auto tp = TypedMogParams<double>::from(params);
  DeviceMogState<double> state{device, w, h, params, ParamLayout::kSoA};
  kernels::TiledConfig tcfg;
  tcfg.frame_group = group;
  const SyntheticScene scene{scene_config(w, h)};
  std::vector<gpusim::DevSpan<std::uint8_t>> frames, fgs;
  for (int t = 0; t < group; ++t) {
    frames.push_back(device.memory().alloc<std::uint8_t>(state.num_pixels()));
    fgs.push_back(device.memory().alloc<std::uint8_t>(state.num_pixels()));
    const FrameU8 f = scene.frame(t);
    gpusim::copy_to_device(frames.back(), f.data(), f.size());
  }
  const KernelStats stats = kernels::launch_tiled_group<double>(
      isa, device, state, frames, fgs, tp, tcfg);
  Snapshot snap;
  fold_stats(snap, stats);
  std::vector<std::uint8_t> fg(state.num_pixels());
  for (const auto& buf : fgs) {
    gpusim::copy_from_device(fg.data(), buf, fg.size());
    mix(snap.hash, fg.data(), fg.size());
  }
  fold_model(snap, state, params);
  return snap;
}

/// The custom kernel of divergent_kernel.cpp, at `isa`: every charge path
/// the MoG kernels do not exercise, on a grid with a ragged last block and
/// last warp.
KernelStats launch_divergent(IsaLevel isa, Device& device,
                             const gpusim::DevSpan<double>& in,
                             const gpusim::DevSpan<double>& out) {
  switch (isa) {
    case IsaLevel::kBaseline:
      return testkernels::isa_baseline::launch_divergent(device, in, out);
#if MOG_HAVE_ISA_X86_64_V3
    case IsaLevel::kX86_64_V3:
      return testkernels::isa_x86_64_v3::launch_divergent(device, in, out);
#endif
#if MOG_HAVE_ISA_X86_64_V4
    case IsaLevel::kX86_64_V4:
      return testkernels::isa_x86_64_v4::launch_divergent(device, in, out);
#endif
    default: break;
  }
  ADD_FAILURE() << "no divergent kernel built for " << kernels::to_string(isa);
  return {};
}

Snapshot run_divergent(IsaLevel isa, int threads) {
  Device device = make_device(threads);
  const std::int64_t n = 1000;  // 7 full blocks + 104-thread ragged block
  auto in = device.memory().alloc<double>(static_cast<std::size_t>(n));
  auto out = device.memory().alloc<double>(static_cast<std::size_t>(n));
  std::vector<double> host(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < host.size(); ++i)
    host[i] = static_cast<double>((i * 37) % 7) + 0.25;  // trip counts 0..6
  gpusim::copy_to_device(in, host.data(), host.size());
  std::fill(host.begin(), host.end(), 0.0);
  gpusim::copy_to_device(out, host.data(), host.size());

  const KernelStats stats = launch_divergent(isa, device, in, out);

  Snapshot snap;
  fold_stats(snap, stats);
  gpusim::copy_from_device(host.data(), out, host.size());
  mix(snap.hash, host.data(), host.size() * sizeof(double));
  mix(snap.model_hash, host.data(), host.size() * sizeof(double));
  return snap;
}

/// Level-G epilogue: MoG frames at F, each raw mask cleaned by the fused
/// postproc kernel; folds both launches' stats and the cleaned mask. The
/// ragged variant overhangs the 32-wide tile on both axes.
Snapshot run_fused_pp(IsaLevel isa, int threads, int w, int h,
                      int num_frames) {
  Device device = make_device(threads);
  const MogParams params;
  const auto tp = TypedMogParams<double>::from(params);
  DeviceMogState<double> state{device, w, h, params, ParamLayout::kSoA};
  auto frame_buf = device.memory().alloc<std::uint8_t>(state.num_pixels());
  auto fg_buf = device.memory().alloc<std::uint8_t>(state.num_pixels());
  auto pp_buf = device.memory().alloc<std::uint8_t>(state.num_pixels());
  const SyntheticScene scene{scene_config(w, h)};
  const ValidationConfig vcfg = fused_validation_config();
  std::vector<std::uint8_t> fg(state.num_pixels());
  Snapshot snap;
  for (int t = 0; t < num_frames; ++t) {
    const FrameU8 f = scene.frame(t);
    gpusim::copy_to_device(frame_buf, f.data(), f.size());
    const KernelStats mog_stats = kernels::launch_mog_frame<double>(
        isa, device, state, frame_buf, fg_buf, tp, OptLevel::kF);
    fold_stats(snap, mog_stats);
    const KernelStats pp_stats = kernels::launch_fused_postproc(
        isa, device, fg_buf, pp_buf, w, h, vcfg, 128);
    fold_stats(snap, pp_stats);
    gpusim::copy_from_device(fg.data(), pp_buf, fg.size());
    mix(snap.hash, fg.data(), fg.size());
  }
  fold_model(snap, state, params);
  return snap;
}

constexpr const char* kScenarios[] = {
    "mog_A", "mog_B", "mog_C", "mog_D", "mog_E", "mog_F",
    "tiled", "ragged_A", "ragged_E", "divergent",
    "fused_pp", "fused_pp_ragged",
};

Snapshot run_scenario(const std::string& name, IsaLevel isa, int threads) {
  if (name == "mog_A") return run_mog(isa, OptLevel::kA, threads, 64, 48, 3);
  if (name == "mog_B") return run_mog(isa, OptLevel::kB, threads, 64, 48, 3);
  if (name == "mog_C") return run_mog(isa, OptLevel::kC, threads, 64, 48, 3);
  if (name == "mog_D") return run_mog(isa, OptLevel::kD, threads, 64, 48, 3);
  if (name == "mog_E") return run_mog(isa, OptLevel::kE, threads, 64, 48, 3);
  if (name == "mog_F") return run_mog(isa, OptLevel::kF, threads, 64, 48, 3);
  if (name == "tiled") return run_tiled(isa, threads);
  // 61*17 = 1037 threads: 9 blocks, the last with 13 → a 13-lane warp.
  if (name == "ragged_A")
    return run_mog(isa, OptLevel::kA, threads, 61, 17, 3);
  if (name == "ragged_E")
    return run_mog(isa, OptLevel::kE, threads, 61, 17, 3);
  if (name == "divergent") return run_divergent(isa, threads);
  if (name == "fused_pp") return run_fused_pp(isa, threads, 64, 48, 3);
  if (name == "fused_pp_ragged")
    return run_fused_pp(isa, threads, 61, 17, 3);
  ADD_FAILURE() << "unknown scenario " << name;
  return {};
}

struct Golden {
  const char* scenario;
  std::uint64_t hash;
  double last[kMetricCount];
  std::uint64_t model_hash;
};

// Recorded from the interpreter before the fast-path refactor; the model
// hashes, added later, read the same at every level and thread count
// (regenerate only for an intentional accounting change; see file header).
constexpr Golden kGoldens[] = {
    {"mog_A",
     0xfd2d3e6ae2f9d6d3ull,
     {0x1.ep+9, 0x1.ddp+9, 0x1.e9p+13,
      0x1.f2p+13, 0x1.efp+13, 0x1.e9p+20,
      0x1.f08p+19, 0x1.cp+5, 0x1.3bap+12,
      0x1.e7p+8, 0x1.7f73p+17, 0x1.0ad4p+14,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.3p+5,
      0x1p+7, 0x0p+0, 0x1.e03a55f0e52d1p-4,
      0x1.ce9ffcc171db5p-1, 0x1.8b0019f471258p-4,},
     0xafdf34c2008b0a4eull},
    {"mog_B",
     0xf09c7b9a11eb5cbeull,
     {0x1.ep+9, 0x1.ddp+9, 0x1.c8p+10,
      0x1.428p+12, 0x1.004p+11, 0x1.c8p+17,
      0x1.c2ap+17, 0x1.cp+5, 0x1.3bap+12,
      0x1.e7p+8, 0x1.9f54p+16, 0x1.e5d8p+13,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.3p+5,
      0x1p+7, 0x0p+0, 0x1.8683169fe3c37p-1,
      0x1.ce9ffcc171db5p-1, 0x1.8b0019f471258p-4,},
     0xafdf34c2008b0a4eull},
    {"mog_C",
     0xf09c7b9a11eb5cbeull,
     {0x1.ep+9, 0x1.ddp+9, 0x1.c8p+10,
      0x1.428p+12, 0x1.004p+11, 0x1.c8p+17,
      0x1.c2ap+17, 0x1.cp+5, 0x1.3bap+12,
      0x1.e7p+8, 0x1.9f54p+16, 0x1.e5d8p+13,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.3p+5,
      0x1p+7, 0x0p+0, 0x1.8683169fe3c37p-1,
      0x1.ce9ffcc171db5p-1, 0x1.8b0019f471258p-4,},
     0xafdf34c2008b0a4eull},
    {"mog_D",
     0xd19db8481347ee3aull,
     {0x1.ep+9, 0x1.ddp+9, 0x1.c8p+10,
      0x1.428p+12, 0x1.004p+11, 0x1.c8p+17,
      0x1.c2ap+17, 0x1.cp+5, 0x1.9f4p+11,
      0x1.23p+8, 0x1.2254p+16, 0x1.9678p+13,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.18p+5,
      0x1p+7, 0x0p+0, 0x1.8683169fe3c37p-1,
      0x1.d326607b4c998p-1, 0x1.66ccfc259b34p-4,},
     0xafdf34c2008b0a4eull},
    {"mog_E",
     0xeba36875f6f5b93dull,
     {0x1.ep+9, 0x1.18p+10, 0x1.c8p+10,
      0x1.c5cp+12, 0x1.f4p+7, 0x1.c8p+17,
      0x1.d56p+17, 0x1.cp+5, 0x1.7b4p+11,
      0x1.5cp+6, 0x1.0dbdp+16, 0x1.b71p+13,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.38p+5,
      0x1p+7, 0x0p+0, 0x1.e76e3552c0565p-1,
      0x1.f151821c036p-1, 0x1.d5cfbc7f94p-6,},
     0xafdf34c2008b0a4eull},
    {"mog_F",
     0x74d01b4a380a5680ull,
     {0x1.ep+9, 0x1.18p+10, 0x1.c8p+10,
      0x1.c5cp+12, 0x1.f4p+7, 0x1.c8p+17,
      0x1.d56p+17, 0x1.cp+5, 0x1.7b4p+11,
      0x1.5cp+6, 0x1.123dp+16, 0x1.c91p+13,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.8p+4, 0x1.8p+6, 0x1.18p+5,
      0x1p+7, 0x0p+0, 0x1.e76e3552c0565p-1,
      0x1.f151821c036p-1, 0x1.d5cfbc7f94p-6,},
     0xafdf34c2008b0a4eull},
    {"tiled",
     0x59b6b36d4884d1a7ull,
     {0x1.38p+10, 0x1.38p+10, 0x1.08p+11,
      0x1.c8p+12, 0x0p+0, 0x1.08p+18,
      0x1.c8p+17, 0x1.5p+6, 0x1.cf6p+12,
      0x1.61p+8, 0x1.dae7p+17, 0x1.fc72p+15,
      0x1.db68p+13, 0x1.c398p+15, 0x1.4cbep+15,
      0x1.4p+2, 0x1.2p+9, 0x1p+5,
      0x1.4p+9, 0x1.68p+15, 0x1.da895da895da9p-1,
      0x1.e79f516b862e4p-1, 0x1.860ae9479d1cp-5,},
     0xdeae09bd48b091bbull},
    {"ragged_A",
     0x0342147094f13520ull,
     {0x1.4ap+8, 0x1.4cp+8, 0x1.4a5p+12,
      0x1.4fep+12, 0x1.4dep+12, 0x1.4a5p+19,
      0x1.4eep+18, 0x1.3p+4, 0x1.b6cp+10,
      0x1.54p+7, 0x1.078ep+16, 0x1.744p+12,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.2p+3, 0x1.08p+5, 0x1.3p+5,
      0x1p+7, 0x0p+0, 0x1.e0062bf9505c9p-4,
      0x1.ce679123bce68p-1, 0x1.8cc376e218ccp-4,},
     0xfa15b08fb96261fdull},
    {"ragged_E",
     0xfe276c2f75127fbaull,
     {0x1.4ap+8, 0x1.82p+8, 0x1.98p+9,
      0x1.4cep+11, 0x1.f2p+8, 0x1.98p+16,
      0x1.8b2p+16, 0x1.3p+4, 0x1.098p+10,
      0x1.dp+4, 0x1.8c6cp+14, 0x1.304p+12,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.2p+3, 0x1.08p+5, 0x1.38p+5,
      0x1p+7, 0x0p+0, 0x1.7b4da81a74e74p-1,
      0x1.f204d2331a842p-1, 0x1.bf65b99caf7cp-6,},
     0xfa15b08fb96261fdull},
    {"divergent",
     0x829ec023cb2d3142ull,
     {0x1p+5, 0x1p+5, 0x1.f8p+5,
      0x1.f4p+7, 0x0p+0, 0x1.f8p+12,
      0x1.f4p+12, 0x1p+2, 0x1.2p+8,
      0x1.cp+7, 0x1.a0ep+14, 0x1.5cp+11,
      0x1p+6, 0x1.f4p+8, 0x1.b4p+8,
      0x1p+3, 0x1p+5, 0x1.4p+4,
      0x1p+7, 0x1p+9, 0x1.fdf5cd0105198p-1,
      0x1.c71c71c71c71cp-3, 0x1.8e38e38e38e39p-1,},
     0x19af7fc9f6bba1faull},
    {"fused_pp",
     0x6fbd8005376705baull,
     {0x1.14p+8, 0x1.8p+6, 0x1.78p+8,
      0x1.8p+6, 0x0p+0, 0x1.78p+15,
      0x1.8p+11, 0x1.8p+1, 0x1.14p+11,
      0x1.22p+8, 0x1.ee5p+16, 0x1.75cap+16,
      0x1.38p+12, 0x1.dap+12, 0x1.44p+11,
      0x1.8p+4, 0x1.8p+8, 0x1.ap+4,
      0x1p+7, 0x1.b4p+11, 0x1.ba147ae147ae1p-3,
      0x1.bcc0ed7303b5dp-1, 0x1.0cfc4a33f128cp-3,},
     0xafdf34c2008b0a4eull},
    {"fused_pp_ragged",
     0x4869cabba3573eccull,
     {0x1.8p+6, 0x1.1p+5, 0x1.02p+7,
      0x1.04p+6, 0x1p+6, 0x1.02p+14,
      0x1.02p+12, 0x1p+1, 0x1.ccp+9,
      0x1.f8p+6, 0x1.9564p+15, 0x1.2e98p+15,
      0x1.fa8p+10, 0x1.844p+11, 0x1.0ep+10,
      0x1.4p+3, 0x1.4p+7, 0x1.ap+4,
      0x1p+7, 0x1.b4p+11, 0x1.6a2ba8aea2ba9p-3,
      0x1.b9e0d5b45023ap-1, 0x1.187ca92ebf718p-3,},
     0xfa15b08fb96261fdull},
};

class InterpGoldens : public ::testing::TestWithParam<int> {};

TEST_P(InterpGoldens, BitIdenticalAcrossExecutorThreadCounts) {
  const Golden& golden = kGoldens[static_cast<std::size_t>(GetParam())];
  test::for_each_runnable_level([&](IsaLevel isa) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string{golden.scenario} +
                   " @ executor_threads=" + std::to_string(threads));
      const Snapshot snap = run_scenario(golden.scenario, isa, threads);
      ASSERT_EQ(snap.last.size(), static_cast<std::size_t>(kMetricCount));
      for (int i = 0; i < kMetricCount; ++i) {
        EXPECT_EQ(snap.names[static_cast<std::size_t>(i)], kMetricNames[i]);
        // Bit comparison: NaN-proof and immune to -0.0 vs 0.0 drift.
        std::uint64_t got, want;
        std::memcpy(&got, &snap.last[static_cast<std::size_t>(i)], 8);
        std::memcpy(&want, &golden.last[i], 8);
        EXPECT_EQ(got, want) << kMetricNames[i] << ": got "
                             << snap.last[static_cast<std::size_t>(i)]
                             << " want " << golden.last[i];
      }
      EXPECT_EQ(snap.hash, golden.hash) << "per-launch stats or masks changed";
      EXPECT_EQ(snap.model_hash, golden.model_hash) << "model state changed";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, InterpGoldens,
    ::testing::Range(0, static_cast<int>(std::size(kGoldens))),
    [](const auto& suite_info) {
      return std::string{kGoldens[suite_info.param].scenario};
    });

TEST(InterpGoldensTable, ScenarioListMatches) {
  ASSERT_EQ(std::size(kGoldens), std::size(kScenarios));
  for (std::size_t i = 0; i < std::size(kScenarios); ++i)
    EXPECT_STREQ(kGoldens[i].scenario, kScenarios[i]);
}

TEST(InterpGoldensTable, Regenerate) {
  if (std::getenv("MOG_INTERP_GOLDEN_REGEN") == nullptr)
    GTEST_SKIP() << "set MOG_INTERP_GOLDEN_REGEN=1 to print a fresh table";
  for (const char* name : kScenarios) {
    const Snapshot snap = run_scenario(name, IsaLevel::kBaseline, 1);
    ASSERT_EQ(snap.last.size(), static_cast<std::size_t>(kMetricCount));
    std::printf("    {\"%s\",\n     0x%016llxull,\n     {", name,
                static_cast<unsigned long long>(snap.hash));
    for (int i = 0; i < kMetricCount; ++i)
      std::printf("%a,%s", snap.last[static_cast<std::size_t>(i)],
                  i + 1 == kMetricCount ? "},\n" : i % 3 == 2 ? "\n      " : " ");
    std::printf("     0x%016llxull},\n",
                static_cast<unsigned long long>(snap.model_hash));
  }
}

}  // namespace
}  // namespace mog
