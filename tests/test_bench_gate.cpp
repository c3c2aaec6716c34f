// Perf-regression gate: pass/fail verdicts, tolerance bands (default,
// per-metric override, absolute slack), wall-clock skipping, the non-fatal
// --warn-wall tripwire, and schema guarding.
#include <gtest/gtest.h>

#include "mog/telemetry/bench_report.hpp"
#include "mog/telemetry/gate.hpp"

namespace mog::telemetry {
namespace {

/// One-case report with a single "speedup" metric.
Json report(double speedup) {
  BenchReporter rep{"unit"};
  rep.add_case("A").metric("speedup", speedup);
  return rep.to_json();
}

TEST(BenchGate, IdenticalReportsPass) {
  const GateResult r = gate_reports(report(96.0), report(96.0));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cases_compared, 1);
  EXPECT_EQ(r.metrics_compared, 1);
}

TEST(BenchGate, MovementWithinDefaultBandPasses) {
  // Default band is 2%; 1% moves pass in both directions.
  EXPECT_TRUE(gate_reports(report(100.0), report(101.0)).ok());
  EXPECT_TRUE(gate_reports(report(100.0), report(99.0)).ok());
}

TEST(BenchGate, MovementOutsideBandFailsSymmetrically) {
  // The simulator is deterministic: an *improvement* outside the band is
  // also a model change and must fail until the baseline is regenerated.
  for (const double fresh : {103.0, 97.0}) {
    const GateResult r = gate_reports(report(100.0), report(fresh));
    ASSERT_FALSE(r.ok()) << "fresh=" << fresh;
    ASSERT_EQ(r.failures.size(), 1u);
    const GateFinding& f = r.failures[0];
    EXPECT_EQ(f.kind, GateFinding::Kind::kRegression);
    EXPECT_EQ(f.case_name, "A");
    EXPECT_EQ(f.metric, "speedup");
    EXPECT_DOUBLE_EQ(f.baseline, 100.0);
    EXPECT_DOUBLE_EQ(f.fresh, fresh);
    EXPECT_NEAR(f.rel_delta, 0.03, 1e-12);
    EXPECT_FALSE(f.describe().empty());
  }
}

TEST(BenchGate, ExactBoundaryPasses) {
  EXPECT_TRUE(gate_reports(report(100.0), report(102.0)).ok());
  EXPECT_FALSE(gate_reports(report(100.0), report(102.1)).ok());
}

TEST(BenchGate, OptionsWidenTheDefaultBand) {
  GateOptions opt;
  opt.default_rel_tol = 0.10;
  EXPECT_TRUE(gate_reports(report(100.0), report(108.0), opt).ok());
}

TEST(BenchGate, BaselineTolerancesOverrideTheDefault) {
  BenchReporter base{"unit"};
  base.set_tolerance("fg_disagreement", 0.25);
  base.add_case("A").metric("fg_disagreement", 100.0).metric("speedup", 50.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("fg_disagreement", 120.0).metric("speedup", 50.0);
  // 20% movement: outside the 2% default but inside the embedded 25% band.
  EXPECT_TRUE(gate_reports(base.to_json(), fresh.to_json()).ok());

  BenchReporter worse{"unit"};
  worse.add_case("A").metric("fg_disagreement", 130.0).metric("speedup", 50.0);
  EXPECT_FALSE(gate_reports(base.to_json(), worse.to_json()).ok());
}

TEST(BenchGate, ZeroBaselinePassesWithinAbsoluteSlack) {
  // Relative bands are undefined at 0; abs_tol carries exact zeros.
  EXPECT_TRUE(gate_reports(report(0.0), report(0.0)).ok());
  EXPECT_FALSE(gate_reports(report(0.0), report(0.001)).ok());
}

TEST(BenchGate, MissingCaseFails) {
  BenchReporter fresh{"unit"};
  fresh.add_case("B").metric("speedup", 96.0);
  const GateResult r = gate_reports(report(96.0), fresh.to_json());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, GateFinding::Kind::kMissingCase);
  EXPECT_EQ(r.failures[0].case_name, "A");
}

TEST(BenchGate, MissingMetricFails) {
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("occupancy", 0.45);
  const GateResult r = gate_reports(report(96.0), fresh.to_json());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, GateFinding::Kind::kMissingMetric);
  EXPECT_EQ(r.failures[0].metric, "speedup");
}

TEST(BenchGate, ExtraFreshMetricsAndCasesAreIgnored) {
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("speedup", 96.0).metric("new_metric", 1.0);
  fresh.add_case("Z").metric("anything", 7.0);
  EXPECT_TRUE(gate_reports(report(96.0), fresh.to_json()).ok());
}

TEST(BenchGate, WallClockMetricsAreSkippedUnlessRequested) {
  BenchReporter base{"unit"};
  base.add_case("A").metric("wall_ms", 100.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("wall_ms", 500.0);

  const GateResult skipped = gate_reports(base.to_json(), fresh.to_json());
  EXPECT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.metrics_compared, 0);
  EXPECT_EQ(skipped.metrics_skipped, 1);

  GateOptions opt;
  opt.include_wall = true;
  EXPECT_FALSE(gate_reports(base.to_json(), fresh.to_json(), opt).ok());
}

TEST(BenchGate, WarnWallFlagsGrossSlowdownWithoutFailing) {
  BenchReporter base{"unit"};
  base.add_case("A").metric("wall_ms", 100.0).metric("speedup", 96.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("wall_ms", 350.0).metric("speedup", 96.0);

  GateOptions opt;
  opt.warn_wall_factor = 3.0;
  const GateResult r = gate_reports(base.to_json(), fresh.to_json(), opt);
  EXPECT_TRUE(r.ok());  // warnings never fail the gate
  EXPECT_EQ(r.metrics_skipped, 1);
  ASSERT_EQ(r.warnings.size(), 1u);
  const GateFinding& w = r.warnings[0];
  EXPECT_EQ(w.kind, GateFinding::Kind::kWallSlowdown);
  EXPECT_EQ(w.case_name, "A");
  EXPECT_EQ(w.metric, "wall_ms");
  EXPECT_DOUBLE_EQ(w.baseline, 100.0);
  EXPECT_DOUBLE_EQ(w.fresh, 350.0);
  EXPECT_DOUBLE_EQ(w.tolerance, 3.0);
  EXPECT_FALSE(w.describe().empty());

  // The comparison row carries the verdict for the machine-readable diff.
  const GateComparison& row = r.comparisons[0];
  EXPECT_EQ(row.metric, "wall_ms");
  EXPECT_STREQ(row.verdict, "warn_wall");

  const Json doc = gate_result_to_json("unit", r);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  ASSERT_EQ(doc.find("warnings")->as_array().size(), 1u);
}

TEST(BenchGate, WarnWallStaysQuietWithinTheFactor) {
  BenchReporter base{"unit"};
  base.add_case("A").metric("wall_ms", 100.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("wall_ms", 299.0);  // < 3x: machine noise

  GateOptions opt;
  opt.warn_wall_factor = 3.0;
  const GateResult r = gate_reports(base.to_json(), fresh.to_json(), opt);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.warnings.empty());
  EXPECT_STREQ(r.comparisons[0].verdict, "skipped_wall");
}

TEST(BenchGate, WarnWallIgnoresZeroBaselines) {
  // A 0 wall baseline (sub-ms case rounded down) has no meaningful factor;
  // the tripwire must not fire on it.
  BenchReporter base{"unit"};
  base.add_case("A").metric("wall_ms", 0.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("wall_ms", 50.0);

  GateOptions opt;
  opt.warn_wall_factor = 3.0;
  const GateResult r = gate_reports(base.to_json(), fresh.to_json(), opt);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.warnings.empty());
}

TEST(BenchGate, SchemaVersionMismatchFails) {
  Json fresh = report(96.0);
  fresh.set("schema_version", Json{BenchReporter::kSchemaVersion + 1});
  const GateResult r = gate_reports(report(96.0), fresh);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures[0].kind, GateFinding::Kind::kSchemaMismatch);
}

TEST(BenchGate, ComparisonRowsRecordEveryBaselineMetric) {
  BenchReporter base{"unit"};
  base.add_case("A")
      .metric("speedup", 100.0)
      .metric("wall_ms", 5.0)
      .metric("gone", 1.0);
  BenchReporter fresh{"unit"};
  fresh.add_case("A").metric("speedup", 110.0).metric("wall_ms", 9.0);

  const GateResult r = gate_reports(base.to_json(), fresh.to_json());
  ASSERT_EQ(r.comparisons.size(), 3u);

  const GateComparison& regressed = r.comparisons[0];
  EXPECT_EQ(regressed.metric, "speedup");
  EXPECT_STREQ(regressed.verdict, "fail");
  EXPECT_DOUBLE_EQ(regressed.baseline, 100.0);
  EXPECT_DOUBLE_EQ(regressed.fresh, 110.0);
  EXPECT_NEAR(regressed.rel_delta, 0.10, 1e-12);

  const GateComparison& wall = r.comparisons[1];
  EXPECT_EQ(wall.metric, "wall_ms");
  EXPECT_STREQ(wall.verdict, "skipped_wall");
  EXPECT_DOUBLE_EQ(wall.fresh, 9.0);  // captured even though not gated

  const GateComparison& missing = r.comparisons[2];
  EXPECT_EQ(missing.metric, "gone");
  EXPECT_STREQ(missing.verdict, "missing");
}

TEST(BenchGate, PassingComparisonRowKeepsPassVerdict) {
  const GateResult r = gate_reports(report(100.0), report(101.0));
  ASSERT_EQ(r.comparisons.size(), 1u);
  EXPECT_STREQ(r.comparisons[0].verdict, "pass");
  EXPECT_NEAR(r.comparisons[0].rel_delta, 0.01, 1e-12);
}

TEST(BenchGate, ResultToJsonCarriesTheDiff) {
  const GateResult r = gate_reports(report(100.0), report(110.0));
  const Json doc = gate_result_to_json("BENCH_unit.json", r);

  EXPECT_EQ(doc.find("label")->as_string(), "BENCH_unit.json");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  const Json::Array& rows = doc.find("comparisons")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("verdict")->as_string(), "fail");
  EXPECT_DOUBLE_EQ(rows[0].find("baseline")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(rows[0].find("fresh")->as_number(), 110.0);
  EXPECT_NEAR(rows[0].find("rel_delta")->as_number(), 0.10, 1e-12);
  ASSERT_EQ(doc.find("failures")->as_array().size(), 1u);

  // The document must survive dump -> parse (what the CI artifact is).
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.find("comparisons")->as_array().size(), 1u);
}

TEST(BenchGate, ResultToJsonRendersInfiniteRelDeltaAsNull) {
  // Baseline 0 with a nonzero fresh value has no relative band; the JSON
  // artifact must still parse (no bare Inf tokens).
  const GateResult r = gate_reports(report(0.0), report(5.0));
  const Json doc = gate_result_to_json("zero", r);
  const Json::Array& rows = doc.find("comparisons")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].find("rel_delta")->is_null());
  EXPECT_NO_THROW(Json::parse(doc.dump()));
}

TEST(BenchGate, RoundTripThroughTextStaysEqual) {
  // The gate sees files, not in-memory objects: dump -> parse must not
  // perturb any metric (round-trip precision of the number formatter).
  BenchReporter rep{"unit"};
  rep.add_case("A")
      .metric("speedup", 96.123456789012345)
      .metric("tiny", 1.0000000000000002)
      .metric("big_count", 9007199254740992.0);
  const Json original = rep.to_json();
  const Json reparsed = Json::parse(original.dump(2));
  EXPECT_TRUE(gate_reports(original, reparsed).ok());
}

}  // namespace
}  // namespace mog::telemetry
