// Telemetry subsystem: JSON round-trips, trace export well-formedness,
// counter rollup math, KernelStats accumulation validation, and the bench
// report schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "mog/gpusim/stats.hpp"
#include "mog/kernels/isa.hpp"
#include "mog/telemetry/bench_report.hpp"
#include "mog/telemetry/counters.hpp"
#include "mog/telemetry/trace.hpp"

namespace mog::telemetry {
namespace {

// --- Json --------------------------------------------------------------------

TEST(Json, RoundTripsNestedDocument) {
  Json doc = Json::object();
  doc.set("null", Json{});
  doc.set("flag", Json{true});
  doc.set("int", Json{42.0});
  doc.set("neg", Json{-7.0});
  doc.set("frac", Json{0.125});
  doc.set("big", Json{1.5e300});
  doc.set("text", Json{std::string{"line\n\"quoted\"\tback\\slash"}});
  Json arr = Json::array();
  arr.push_back(Json{1.0});
  arr.push_back(Json{std::string{"two"}});
  arr.push_back(Json::object());
  doc.set("arr", std::move(arr));

  for (const int indent : {-1, 0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json{42.0}.dump(), "42");
  EXPECT_EQ(Json{-3.0}.dump(), "-3");
  EXPECT_EQ(Json{0.5}.dump(), "0.5");
}

TEST(Json, ParsesUnicodeEscapes) {
  // U+00E9 (é), and U+1F600 via a surrogate pair.
  const Json v = Json::parse(R"("café 😀")");
  EXPECT_EQ(v.as_string(), "caf\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(Json, PreservesKeyOrder) {
  const Json v = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse(R"("\x")"), Error);
}

// Regression: the scan-then-strtod number parser accepted any strtod-able
// prefix, so malformed literals ("1.2.3", "07.", "1e") parsed as numbers a
// writer never produced. The parser now enforces the JSON number grammar.
TEST(Json, RejectsMalformedNumbers) {
  for (const char* bad : {"1.2.3", "1e", "1e+", "-", "-.", "07.", "01", "1.",
                          ".5", "+1", "0x10", "1.e5", "--1", "1e1.5", "Inf",
                          "NaN", "1_000"})
    EXPECT_THROW(Json::parse(bad), Error) << bad;
}

TEST(Json, AcceptsGrammaticalNumbers) {
  EXPECT_DOUBLE_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(Json::parse("-0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(Json::parse("-12.25e2").as_number(), -1225.0);
  EXPECT_DOUBLE_EQ(Json::parse("3E-2").as_number(), 0.03);
  EXPECT_DOUBLE_EQ(Json::parse("1e+3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("[0.0625]").as_array()[0].as_number(), 0.0625);
}

// Regression: a lone low surrogate was encoded straight to (invalid) UTF-8,
// and an unpaired high surrogate at end-of-input read past the buffer.
TEST(Json, RejectsUnpairedSurrogatesAndTruncatedEscapes) {
  for (const char* bad :
       {R"("\udc00")",          // lone low surrogate
        R"("\ud800")",          // lone high surrogate, string then ends
        R"("\ud800x")",         // high surrogate followed by a plain char
        R"("\ud800\n")",        // high surrogate followed by a non-\u escape
        R"("\ud800\ud801")",    // high surrogate followed by another high
        R"("\ud800A")",    // high surrogate paired with a non-surrogate
        R"("\u12)",             // truncated hex quad
        R"("\ud800\u12")",      // truncated low half
        R"("\)",                // truncated escape at end of input
        R"("abc)"})             // unterminated string
    EXPECT_THROW(Json::parse(bad), Error) << bad;
}

TEST(Json, AcceptsValidSurrogatePairs) {
  // The escaped pair for U+1F600 must decode to the 4-byte UTF-8 sequence.
  const Json v = Json::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsNonFiniteNumbers) {
  EXPECT_THROW(Json{std::numeric_limits<double>::infinity()}.dump(), Error);
}

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorder, ExportIsWellFormedChromeTrace) {
  TraceRecorder rec;
  {
    TraceRecorder::Span sp{&rec, "kernel", "sim"};
    sp.arg("frame", 3);
  }
  rec.instant("retry", "recovery", {{"attempt", 1}});
  rec.flow_begin("frame", "serve.flow", 7, TraceRecorder::kWallTrack, 10);
  rec.complete("upload", "modeled", TraceRecorder::kModeledTrack, 100, 50,
               {{"frames", 1}});

  const Json doc = Json::parse(rec.to_json().dump(2));
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 3 thread_name metadata events + the 4 recorded ones.
  ASSERT_EQ(events->as_array().size(), 7u);
  for (const Json& ev : events->as_array()) {
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
  }
  // The explicit-timestamp event survives verbatim.
  const Json& upload = events->as_array().back();
  EXPECT_EQ(upload.find("name")->as_string(), "upload");
  EXPECT_EQ(upload.find("ts")->as_number(), 100);
  EXPECT_EQ(upload.find("dur")->as_number(), 50);
  EXPECT_EQ(upload.find("tid")->as_number(), TraceRecorder::kModeledTrack);
}

TEST(TraceRecorder, BoundedCapacityCountsDrops) {
  TraceRecorder rec{4};
  for (int i = 0; i < 10; ++i) rec.instant("e");
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const Json doc = rec.to_json();
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->as_number(), 6);
}

TEST(TraceRecorder, MovedFromSpanDoesNotEmit) {
  TraceRecorder rec;
  {
    TraceRecorder::Span sp{&rec, "outer", "sim"};
    auto sp2 = std::move(sp);
  }
  EXPECT_EQ(rec.size(), 1u);
}

// --- percentiles / rollups ---------------------------------------------------

TEST(Percentile, MatchesLinearInterpolation) {
  const std::vector<double> s{15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(s, 0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(s, 50), 35.0);
  EXPECT_DOUBLE_EQ(percentile(s, 25), 20.0);
  // numpy.percentile([15,20,35,40,50], 40) == 29.0
  EXPECT_DOUBLE_EQ(percentile(s, 40), 29.0);
}

TEST(Percentile, SingleSampleAndValidation) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  // An empty series is a normal live-scrape state, not an error: it must
  // report 0, never abort the exposition.
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
  EXPECT_THROW(percentile({1.0}, -1), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
}

TEST(Rollup, ComputesSummaryStatistics) {
  const Rollup r = make_rollup({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(r.count, 4u);
  EXPECT_DOUBLE_EQ(r.total, 10.0);
  EXPECT_DOUBLE_EQ(r.mean, 2.5);
  EXPECT_DOUBLE_EQ(r.min, 1.0);
  EXPECT_DOUBLE_EQ(r.max, 4.0);
  EXPECT_DOUBLE_EQ(r.p50, 2.5);
}

TEST(Rollup, EmptyAndSingleSampleEdges) {
  // count == 0: every statistic well-defined and NaN-free.
  const Rollup empty = make_rollup({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.total, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p90, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  // count == 1: every percentile collapses to the sample.
  const Rollup one = make_rollup({42.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.min, 42.0);
  EXPECT_DOUBLE_EQ(one.max, 42.0);
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.p99, 42.0);
}

// --- CounterRegistry ---------------------------------------------------------

gpusim::KernelStats launch_stats(std::uint64_t loads, int tpb) {
  gpusim::KernelStats s;
  s.load_transactions = loads;
  s.threads_per_block = tpb;
  s.regs_per_thread = 20;
  return s;
}

TEST(CounterRegistry, RollsUpExtensiveAndIntensiveMetrics) {
  CounterRegistry reg;
  reg.on_kernel_launch(launch_stats(100, 128));
  reg.on_kernel_launch(launch_stats(300, 640));
  EXPECT_EQ(reg.launches(), 2u);

  // Extensive: totals across launches, divided per frame.
  EXPECT_DOUBLE_EQ(reg.per_run("load_transactions"), 400.0);
  EXPECT_DOUBLE_EQ(reg.per_frame("load_transactions", 8), 50.0);
  // Intensive: launch mean in both views (mixed block shapes are fine —
  // the registry samples per launch instead of summing KernelStats).
  EXPECT_DOUBLE_EQ(reg.per_run("threads_per_block"), 384.0);
  EXPECT_DOUBLE_EQ(reg.per_frame("threads_per_block", 8), 384.0);

  const Rollup r = reg.rollup("load_transactions");
  EXPECT_EQ(r.count, 2u);
  EXPECT_DOUBLE_EQ(r.min, 100.0);
  EXPECT_DOUBLE_EQ(r.max, 300.0);

  const Json doc = reg.to_json();
  EXPECT_EQ(doc.find("launches")->as_number(), 2);
  ASSERT_NE(doc.find("metrics")->find("load_transactions"), nullptr);

  reg.clear();
  EXPECT_EQ(reg.launches(), 0u);
  EXPECT_TRUE(reg.samples("load_transactions").empty());
}

// --- KernelStats validation --------------------------------------------------

TEST(KernelStats, AccumulateRejectsMismatchedLaunchShapes) {
  gpusim::KernelStats a = launch_stats(10, 128);
  EXPECT_THROW(a += launch_stats(10, 640), Error);
  // A default-constructed (shapeless) side is fine in either direction.
  gpusim::KernelStats fresh;
  EXPECT_NO_THROW(fresh += a);
  EXPECT_EQ(fresh.threads_per_block, 128);
  EXPECT_NO_THROW(a += gpusim::KernelStats{});
  EXPECT_EQ(a.threads_per_block, 128);
}

TEST(KernelStats, AveragedOverRejectsZeroLaunches) {
  EXPECT_THROW(launch_stats(10, 128).averaged_over(0), Error);
  const gpusim::KernelStats avg = launch_stats(10, 128).averaged_over(2);
  EXPECT_EQ(avg.load_transactions, 5u);
}

// --- BenchReporter -----------------------------------------------------------

TEST(BenchReporter, SchemaRoundTrip) {
  BenchReporter rep{"unit"};
  rep.set_workload(192, 108, 12);
  rep.set_tolerance("speedup", 0.1);
  rep.add_case("A").metric("speedup", 17.5).metric("wall_ms", 3.0);
  rep.add_case("B").metric("speedup", 96.0);
  // Reopening a case appends to it instead of duplicating the name.
  rep.add_case("A").metric("occupancy", 0.45);
  EXPECT_EQ(rep.num_cases(), 2u);

  const Json doc = Json::parse(rep.to_json().dump(2));
  EXPECT_EQ(doc.find("schema_version")->as_number(),
            BenchReporter::kSchemaVersion);
  EXPECT_EQ(doc.find("bench")->as_string(), "unit");
  EXPECT_EQ(doc.find("workload")->find("width")->as_number(), 192);
  EXPECT_EQ(doc.find("tolerances")->find("speedup")->as_number(), 0.1);
  const auto& cases = doc.find("cases")->as_array();
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[0].find("name")->as_string(), "A");
  EXPECT_EQ(cases[0].find("metrics")->find("occupancy")->as_number(), 0.45);
  // The compiler and executor thread count live in "env" only; "host"
  // keeps what env does not carry.
  ASSERT_NE(doc.find("host"), nullptr);
  ASSERT_NE(doc.find("env"), nullptr);
  EXPECT_NE(doc.find("host")->find("build_type"), nullptr);
  EXPECT_EQ(doc.find("host")->find("compiler"), nullptr);
  EXPECT_EQ(doc.find("host")->find("executor_threads"), nullptr);
  EXPECT_NE(doc.find("env")->find("compiler"), nullptr);
  EXPECT_NE(doc.find("env")->find("executor_threads"), nullptr);
  // The kernel build that ran, next to the compile-time flags.
  ASSERT_NE(doc.find("env")->find("isa"), nullptr);
  EXPECT_EQ(doc.find("env")->find("isa")->as_string(),
            kernels::to_string(kernels::active_isa()));
}

TEST(BenchReporter, CountersExpandWithPrefix) {
  BenchReporter rep{"unit"};
  rep.add_case("A").counters(launch_stats(123, 128));
  const Json doc = rep.to_json();
  const Json* metrics = doc.find("cases")->as_array()[0].find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("ctr_load_transactions")->as_number(), 123);
  EXPECT_EQ(metrics->find("ctr_threads_per_block")->as_number(), 128);
}

TEST(BenchReporter, WritesNamedFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mog_telemetry_test_reports";
  std::filesystem::remove_all(dir);
  BenchReporter rep{"file_test"};
  rep.add_case("A").metric("x", 1.0);
  const std::string path = rep.write_file(dir.string());
  EXPECT_EQ(std::filesystem::path{path}.filename(), "BENCH_file_test.json");
  const Json back = read_json_file(path);
  EXPECT_EQ(back.find("bench")->as_string(), "file_test");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mog::telemetry
