// uolap_hostbench: host-time benchmark of the uolap simulator and serving
// runtime. Normally started through run.py, which builds it first:
//
//   uolap_hostbench --workload scan|multicore|serve --seed N
//                   --seconds S --trace 0|1 [--source-rev REV]
//                   [--out-dir DIR] [--expected FILE]
//
// Prints "# ..." lines (environment, checks, error_rate, notes) and, as
// the last line, one JSON object: correct, attempted, failed, metrics.
// Exits non-zero without a result when the build or environment must not
// report (see env.h) or the arguments are bad.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "common/file_io.h"
#include "env.h"
#include "expect.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr, "uolap_hostbench: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uolap::hostbench;

  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return Usage("unexpected argument " + a);
    a = a.substr(2);
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return Usage("--" + a + " needs a value");
    }
  }
  const std::map<std::string, std::string> defaults = {
      {"workload", ""},      {"seed", "1"},          {"seconds", "10"},
      {"trace", "0"},        {"source-rev", "unknown"}, {"out-dir", "."},
      {"expected", ""}};
  for (const auto& [k, v] : args) {
    if (defaults.count(k) == 0) return Usage("unknown flag --" + k);
  }
  auto arg = [&](const std::string& k) {
    auto it = args.find(k);
    return it != args.end() ? it->second : defaults.at(k);
  };

  BenchConfig config;
  config.workload = arg("workload");
  char* end = nullptr;
  config.seed = std::strtoull(arg("seed").c_str(), &end, 10);
  if (arg("seed").empty() || *end != '\0') return Usage("bad --seed");
  config.seconds = std::strtod(arg("seconds").c_str(), &end);
  if (*end != '\0' || config.seconds < 0) return Usage("bad --seconds");
  if (arg("trace") != "0" && arg("trace") != "1") {
    return Usage("--trace wants 0 or 1");
  }
  config.trace = arg("trace") == "1";
  config.out_dir = arg("out-dir");

  const EnvRecord env = CaptureEnv(arg("source-rev"));
  std::printf("# env %s\n", EnvJson(env).c_str());
  const std::string refusal = RefusalReason(env);
  if (!refusal.empty()) {
    std::fprintf(stderr, "uolap_hostbench: refusing to report: %s\n",
                 refusal.c_str());
    return 3;
  }

  ExpectedTable expected;
  if (!arg("expected").empty()) {
    uolap::StatusOr<std::string> text =
        uolap::ReadFileToString(arg("expected"));
    if (!text.ok()) return Usage(text.status().ToString());
    uolap::StatusOr<ExpectedTable> parsed = ParseExpected(text.value());
    if (!parsed.ok()) return Usage(parsed.status().ToString());
    expected = std::move(parsed.value());
    config.expected = &expected;
  }

  uolap::StatusOr<BenchResult> run = RunBenchmark(config);
  if (!run.ok()) return Usage(run.status().ToString());
  const BenchResult& result = run.value();
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("# expected-line\t%s\n", result.expected_line.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("# %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    const std::string path = config.out_dir + "/spans-" +
                             config.workload + "-" +
                             std::to_string(config.seed) + ".tsv";
    uolap::Status written = result.tracer.WriteTsv(path);
    if (!written.ok()) return Usage(written.ToString());
    std::printf("# spans written to %s\n", path.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
