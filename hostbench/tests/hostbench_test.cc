// Tests of the host-time benchmark itself: statistics, span self time,
// failure counting, the expected-counter table, and that every workload's
// traced and untraced runs report exactly the metrics BENCHMARK.json names.
//
//   python3 hostbench/run.py --self-test

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "expect.h"
#include "obs/json.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace uolap::hostbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Stats, GeoMeanOfRatios) {
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_NEAR(GeoMean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0);
}

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {10, 0, 30, 20, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 36);
  EXPECT_DOUBLE_EQ(Percentile(v, 150), 40);  // clamped
}

Span MakeSpan(const char* name, int parent, int64_t start, int64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const int root = t.Add(MakeSpan("op", -1, 0, 100));
  t.Add(MakeSpan("a", root, 10, 30));
  t.Add(MakeSpan("b", root, 20, 50));   // overlaps a: union 10..50
  t.Add(MakeSpan("c", root, 90, 120));  // clipped to the parent: 90..100
  const int leaf_parent = t.Add(MakeSpan("d", root, 60, 70));
  t.Add(MakeSpan("e", leaf_parent, 62, 65));
  const std::vector<int64_t> self = t.SelfTimesNs();
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[4], 10 - 3);
  EXPECT_EQ(self[5], 3);

  const auto by_name = t.SelfNsByName(0, t.size());
  EXPECT_EQ(by_name.at("op"), 40);
  EXPECT_EQ(by_name.at("d"), 7);
  // A range restricts the sum without changing each span's self time.
  EXPECT_EQ(t.SelfNsByName(4, 5).at("d"), 7);
}

TEST(Trace, ScopedSpansNestAndShareTheOperationId) {
  Tracer t(true);
  t.SetOp(7);
  {
    ScopedSpan outer(&t, "outer");
    ScopedSpan inner(&t, "inner");
  }
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[0].op, 7u);
  EXPECT_EQ(t.spans()[1].op, 7u);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);

  Tracer off(false);
  { ScopedSpan s(&off, "ignored"); }
  { ScopedSpan s(nullptr, "ignored"); }
  EXPECT_EQ(off.size(), 0u);
}

OpOutcome Answered(const std::string& key, int64_t value) {
  OpOutcome op;
  op.label = key;
  op.answer_key = key;
  engine::QueryResult r;
  r.value = value;
  op.answer = r;
  return op;
}

TEST(Failures, AWrongAnswerIsCounted) {
  std::vector<OpOutcome> ops = {Answered("q6", 42), Answered("q6", 42),
                                Answered("q6", 41),  // injected wrong answer
                                Answered("q1", 5)};
  std::map<std::string, engine::QueryResult> reference;
  EXPECT_EQ(CheckAnswers(&ops, &reference), 1u);
  EXPECT_TRUE(ops[1].ok);
  EXPECT_FALSE(ops[2].ok);
  EXPECT_NE(ops[2].error.find("q6"), std::string::npos);

  // Answers carry across passes: a later pass must agree with the first.
  std::vector<OpOutcome> second = {Answered("q1", 6)};
  EXPECT_EQ(CheckAnswers(&second, &reference), 1u);
  // An op that already failed is not counted twice.
  EXPECT_EQ(CheckAnswers(&second, &reference), 0u);
}

TEST(Expected, LinesRoundTripAndMismatchesAreNamed) {
  OpOutcome op;
  op.label = "typer/q6";
  op.counters.mix.alu = 100;
  op.counters.branch_events = 10;
  op.counters.mem.data_accesses = 1000000;
  op.counters.mem.l1d_hits = 900000;
  op.sim_cycles = 5000;
  const PassCounters c = SummarizeCounters({op});

  const std::string text = ExpectedHeader() + "\n" +
                           FormatExpectedLine("scan", 3, c) + "\n";
  StatusOr<ExpectedTable> table = ParseExpected(text);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const PassCounters& back = table.value().at({"scan", 3});
  EXPECT_EQ(CompareCounters(back, c), "");

  PassCounters moved = c;
  moved.branch_events += 1;
  EXPECT_NE(CompareCounters(c, moved).find("branch_events"),
            std::string::npos);
  moved = c;
  moved.l1d_hits = static_cast<uint64_t>(900000 * (1 + kAddressTolerance / 2));
  EXPECT_EQ(CompareCounters(c, moved), "");
  moved.l1d_hits = static_cast<uint64_t>(900000 * (1 + kAddressTolerance * 2));
  EXPECT_NE(CompareCounters(c, moved).find("l1d_hits"), std::string::npos);

  EXPECT_FALSE(ParseExpected("bad header\n").ok());
  EXPECT_FALSE(ParseExpected(ExpectedHeader() + "\nscan\t1\tzz\n").ok());
  EXPECT_FALSE(ParseExpected(text + FormatExpectedLine("scan", 3, c)).ok());
}

PassStats ServePass(PassKind kind, double vtime_ms) {
  PassStats p;
  p.kind = kind;
  OpOutcome op;
  op.label = "serve/run";
  op.engine_work = false;
  op.counters.mix.alu = 100;
  op.virtual_outputs = {vtime_ms, 3.5, 8000, 8000};
  p.ops.push_back(op);
  return p;
}

TEST(Failures, AServeRunThatDoesNotRepeatItsScheduleIsCounted) {
  std::vector<PassStats> passes = {
      ServePass(PassKind::kFull, 100), ServePass(PassKind::kFull, 100),
      ServePass(PassKind::kFull, 100.5),  // injected schedule change
      // A bare server is compared with the first bare pass only.
      ServePass(PassKind::kBare, 101), ServePass(PassKind::kBare, 101)};
  EXPECT_EQ(CheckRepeatable(&passes), 1u);
  EXPECT_TRUE(passes[1].ops[0].ok);
  EXPECT_FALSE(passes[2].ops[0].ok);
  EXPECT_NE(passes[2].ops[0].error.find("virtual outputs"), std::string::npos);
  EXPECT_TRUE(passes[4].ops[0].ok);

  // Exact counters are compared with the first pass of any kind.
  passes[4].ops[0].counters.mix.alu = 101;
  EXPECT_EQ(CheckRepeatable(&passes), 1u);
  EXPECT_FALSE(passes[4].ops[0].ok);
}

std::vector<std::string> Names(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<std::string> out;
  for (const auto& p : pairs) out.push_back(p.first);
  return out;
}

TEST(Benchmark, JsonNamesEveryReportedMetricAndWorkload) {
  StatusOr<obs::JsonValue> doc =
      obs::ReadJsonFile(std::string(HOSTBENCH_SOURCE_DIR) +
                        "/../BENCHMARK.json");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto names = [&](const char* key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const obs::JsonValue& m : doc.value().Find(key)->array) {
      out.emplace_back(m.GetString("name"), m.GetString("unit"));
    }
    return out;
  };
  EXPECT_EQ(names("end_to_end"), EndToEndMetricNames());
  EXPECT_EQ(names("per_layer"), PerLayerMetricNames());
  std::vector<std::string> workloads;
  for (const obs::JsonValue& w : doc.value().Find("workloads")->array) {
    workloads.push_back(w.GetString("name"));
  }
  EXPECT_EQ(workloads, WorkloadNames());
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

// The real configuration, cut to one pass (one rotation when traced).
BenchConfig OnePassConfig(const std::string& workload, bool trace) {
  BenchConfig c;
  c.workload = workload;
  c.seed = 5;
  c.seconds = 0;
  c.trace = trace;
  c.out_dir = ".";  // run.py --self-test runs in the output area
  return c;
}

TEST_P(EveryWorkload, TracedRunReportsEveryPerLayerMetric) {
  StatusOr<BenchResult> r = RunBenchmark(OnePassConfig(GetParam(), true));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().correct);
  EXPECT_EQ(r.value().failed, 0u);
  std::vector<std::string> got;
  for (const Metric& m : r.value().metrics) got.push_back(m.name);
  EXPECT_EQ(got, Names(PerLayerMetricNames()));
  EXPECT_GT(r.value().tracer.size(), 0u);
}

TEST_P(EveryWorkload, UntracedRunReportsEveryEndToEndMetric) {
  StatusOr<BenchResult> r = RunBenchmark(OnePassConfig(GetParam(), false));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().correct);
  EXPECT_GT(r.value().attempted, 0u);
  std::vector<std::string> got;
  for (const Metric& m : r.value().metrics) {
    got.push_back(m.name);
    EXPECT_GT(m.value, 0) << m.name;  // end-to-end metrics are never 0
  }
  EXPECT_EQ(got, Names(EndToEndMetricNames()));
  EXPECT_EQ(r.value().tracer.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(Benchmark, UnknownWorkloadIsAnError) {
  EXPECT_FALSE(RunBenchmark(OnePassConfig("nope", false)).ok());
}

}  // namespace
}  // namespace uolap::hostbench
