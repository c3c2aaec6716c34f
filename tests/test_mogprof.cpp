// Tests for the mogprof profile engine: loading counter dumps (bench
// reports and CounterRegistry dumps), the reconstructed per-kernel derived
// metrics, the paper's A..F optimization-step attribution, and the diff and
// table renderers. The checked-in fig8 baseline is the fixture: its cases
// ARE the optimization ladder, so the assertions below are exactly the
// paper's measurement story.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mog/common/error.hpp"
#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/json.hpp"
#include "mog/telemetry/profile.hpp"

#ifndef MOG_BENCH_BASELINE_DIR
#define MOG_BENCH_BASELINE_DIR "bench/baselines"
#endif

namespace mog::telemetry {
namespace {

const std::string kFig8 =
    std::string{MOG_BENCH_BASELINE_DIR} + "/BENCH_fig8_speedup.json";

const ProfileDump& fig8() {
  static const ProfileDump dump = load_profile_file(kFig8);
  return dump;
}

TEST(Mogprof, LoadsTheFig8BaselineWithOneKernelPerLevel) {
  const ProfileDump& dump = fig8();
  EXPECT_EQ(dump.source, kFig8);
  EXPECT_GT(dump.width, 0);
  EXPECT_GT(dump.height, 0);
  EXPECT_GT(dump.frames, 0);
  for (const char* level : {"A", "B", "C", "D", "E", "F"}) {
    const KernelProfile* k = dump.find(level);
    ASSERT_NE(k, nullptr) << level;
    EXPECT_GT(k->stats.num_warps, 0u) << level;
    EXPECT_GT(k->occupancy.achieved, 0.0) << level;
    EXPECT_GT(k->timing.total_seconds, 0.0) << level;
  }
  EXPECT_EQ(dump.find("nope"), nullptr);
}

TEST(Mogprof, ReproducesThePaperMeasurementStory) {
  const ProfileDump& dump = fig8();
  const KernelProfile &a = *dump.find("A"), &b = *dump.find("B"),
                      &c = *dump.find("C"), &d = *dump.find("D"),
                      &e = *dump.find("E"), &f = *dump.find("F");

  // Coalescing (§IV-A, SoA layout): the uncoalesced share collapses A -> B
  // and again with predication's access regrouping D -> E; it never gets
  // worse down the ladder.
  EXPECT_LT(b.uncoalesced_share(), a.uncoalesced_share());
  EXPECT_LT(e.uncoalesced_share(), d.uncoalesced_share());
  EXPECT_LE(f.uncoalesced_share(), a.uncoalesced_share());

  // Divergence (§IV-B/C): branch reduction C -> D and predication D -> E
  // each strictly cut it; it is monotone non-increasing overall.
  EXPECT_LT(d.divergence(), c.divergence());
  EXPECT_LT(e.divergence(), d.divergence());
  EXPECT_LE(b.divergence(), a.divergence());
  EXPECT_LE(f.divergence(), e.divergence());

  // Register reduction (§IV-C): E -> F drops regs/thread, which lifts
  // occupancy.
  EXPECT_LT(f.stats.regs_per_thread, e.stats.regs_per_thread);
  EXPECT_GT(f.occupancy.achieved, e.occupancy.achieved);

  // Roofline: the uncoalesced baseline saturates DRAM (memory-bound); the
  // optimized kernels are compute-bound.
  EXPECT_TRUE(a.memory_bound());
  EXPECT_FALSE(f.memory_bound());
  EXPECT_GT(a.dram_gbps(), f.dram_gbps());

  // And the point of it all: F is strictly faster than A.
  EXPECT_LT(f.timing.total_seconds, a.timing.total_seconds);
}

TEST(Mogprof, TableListsEveryKernelWithItsRooflineVerdict) {
  const std::string table = render_profile_table(fig8());
  for (const char* needle :
       {"kernel", "divergence", "occupancy", "bound", "memory-bound",
        "compute-bound"})
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
  for (const char* level : {"A", "B", "C", "D", "E", "F"})
    EXPECT_NE(table.find(std::string{"\n"} + level + " "), std::string::npos)
        << level;
}

TEST(Mogprof, StepReportAttributesEachLadderStep) {
  const std::string report = render_step_report(fig8());
  ASSERT_FALSE(report.empty());
  for (const char* needle :
       {"optimization-step attribution", "step A -> B", "step B -> C",
        "step C -> D", "step D -> E", "step E -> F", "branch divergence",
        "uncoalesced share", "regs/thread", "occupancy",
        "modeled time/frame"})
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
}

TEST(Mogprof, StepReportNeedsAtLeastTwoLadderCases) {
  Json doc = read_json_file(kFig8);
  // A dump with a single ladder case has no steps to attribute.
  Json only_a = Json::array();
  only_a.push_back(doc.find("cases")->as_array().front());
  doc.set("cases", std::move(only_a));
  const ProfileDump one = load_profile_dump(doc, "one-case");
  EXPECT_EQ(render_step_report(one), "");
  EXPECT_FALSE(render_profile_table(one).empty());
}

TEST(Mogprof, DiffOfIdenticalDumpsIsAllZeroDeltas) {
  const std::string diff = render_profile_diff(fig8(), fig8());
  EXPECT_NE(diff.find("kernel A:"), std::string::npos);
  EXPECT_NE(diff.find("kernel F:"), std::string::npos);
  EXPECT_NE(diff.find("+0.0 %"), std::string::npos);
  EXPECT_EQ(diff.find("only in"), std::string::npos);
}

TEST(Mogprof, DiffListsKernelsMissingFromEitherSide) {
  Json doc = read_json_file(kFig8);
  const Json::Array& cases = doc.find("cases")->as_array();
  Json pruned = Json::array();
  for (std::size_t i = 1; i < cases.size(); ++i)  // drop case A
    pruned.push_back(cases[i]);
  doc.set("cases", std::move(pruned));
  const ProfileDump fresh = load_profile_dump(doc, "pruned");
  const std::string diff = render_profile_diff(fig8(), fresh);
  EXPECT_NE(diff.find("only in baseline"), std::string::npos);
  EXPECT_NE(diff.find("A"), std::string::npos);
}

TEST(Mogprof, LoadsACounterRegistryDumpAsOneAggregateKernel) {
  CounterRegistry reg;
  gpusim::KernelStats stats;
  stats.load_instructions = 648;
  stats.store_instructions = 324;
  stats.load_transactions = 2000;
  stats.store_transactions = 1500;
  stats.bytes_transferred_load = 256000;
  stats.bytes_transferred_store = 48000;
  stats.bytes_requested_load = 200000;
  stats.bytes_requested_store = 48000;
  stats.branches_executed = 5000;
  stats.branches_divergent = 250;
  stats.issue_cycles = 40000;
  stats.warp_instructions = 35000;
  stats.regs_per_thread = 35;
  stats.threads_per_block = 256;
  stats.num_blocks = 81;
  stats.num_warps = 648;
  reg.on_kernel_launch(stats);
  reg.on_kernel_launch(stats);

  const ProfileDump dump = load_profile_dump(reg.to_json(), "registry");
  ASSERT_EQ(dump.kernels.size(), 1u);
  const KernelProfile& k = dump.kernels[0];
  EXPECT_EQ(k.name, "aggregate");
  EXPECT_EQ(k.stats.regs_per_thread, 35);
  EXPECT_EQ(k.stats.threads_per_block, 256);
  EXPECT_NEAR(k.divergence(), 0.05, 1e-9);
  EXPECT_GT(k.occupancy.achieved, 0.0);
  EXPECT_GT(k.timing.total_seconds, 0.0);
  EXPECT_FALSE(render_profile_table(dump).empty());
  EXPECT_EQ(render_step_report(dump), "");  // no ladder in a registry
}

TEST(Mogprof, RejectsDocumentsWithoutCounterData) {
  EXPECT_THROW(load_profile_dump(Json::object(), "empty"), Error);
  Json no_counters = Json::object();
  no_counters.set("cases", Json::array());
  EXPECT_THROW(load_profile_dump(no_counters, "no-cases"), Error);
}

}  // namespace
}  // namespace mog::telemetry
