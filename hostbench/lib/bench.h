#ifndef UOLAP_HOSTBENCH_BENCH_H_
#define UOLAP_HOSTBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "expect.h"
#include "trace.h"
#include "workloads.h"

namespace uolap::hostbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// (name, unit) of every metric an untraced run reports, in output order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();
/// (name, unit) of every metric a traced run reports, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured passes repeat until this much host time
  bool trace = false;
  /// Output area: serve checkpoint directories live (briefly) here.
  std::string out_dir = ".";
  /// Checked-in expected counters; null skips that gate (counters must
  /// still repeat exactly across passes).
  const ExpectedTable* expected = nullptr;
};

struct BenchResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines ("# ...") printed before the result.
  std::vector<std::string> notes;
  /// This run's expected/counters.tsv line (first measured pass).
  std::string expected_line;
  /// Spans of the traced run (empty tracer when untraced).
  Tracer tracer{false};
};

/// Sets up `config.workload`, runs passes for `config.seconds`, checks
/// every operation and computes the metrics. Untraced runs report
/// EndToEndMetricNames(); traced runs PerLayerMetricNames().
StatusOr<BenchResult> RunBenchmark(const BenchConfig& config);

/// Marks failed every op whose exact simulated counters differ from the
/// same op in the first pass, or whose virtual outputs differ from the same
/// op in the first pass of its kind. Returns the number newly failed.
uint64_t CheckRepeatable(std::vector<PassStats>* passes);

/// The single-line result object: correct, attempted, failed, metrics.
std::string ResultJson(const BenchResult& result);

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_BENCH_H_
