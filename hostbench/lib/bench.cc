#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "common/macros.h"
#include "obs/json_writer.h"
#include "stats.h"

namespace uolap::hostbench {
namespace {

// Set-ups per run: kMinSetupReps before the passes, then one before each
// later rotation of passes, up to kMaxSetupReps, while their total stays
// under kSetupBudgetS. setup_s is their median; the median of a 50 ms
// set-up needs more samples than that of a 3 s one, and samples spread over
// the run, as the passes are, rather than taken in its first second.
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 2.0;

const char* const kEngineKeys[] = {"typer", "tectorwise", "tectorwise_simd",
                                   "colstore", "rowstore"};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Median over `passes` of `f(pass)`.
template <typename F>
double MedianOf(const std::vector<const PassStats*>& passes, F f) {
  std::vector<double> v;
  for (const PassStats* p : passes) v.push_back(f(*p));
  return Median(v);
}

double PctOver(double x, double base) {
  return base > 0 ? (x - base) / base * 100.0 : 0;
}

}  // namespace

// Each op starts on a fresh Machine, so its address-independent counters
// are a function of the inputs alone. A serve op's counters are the class
// profiles its server simulated once; its own output is the virtual
// schedule, which a warm run of the same server must repeat exactly.
uint64_t CheckRepeatable(std::vector<PassStats>* passes) {
  uint64_t failed = 0;
  auto fail = [&failed](OpOutcome* op, std::string why) {
    if (op->ok) ++failed;
    op->ok = false;
    op->error = std::move(why);
  };
  const std::vector<OpOutcome>& first = passes->front().ops;
  std::map<PassKind, const PassStats*> first_of_kind;
  for (PassStats& p : *passes) {
    const PassStats* same_kind = first_of_kind.emplace(p.kind, &p).first->second;
    for (size_t i = 0; i < p.ops.size(); ++i) {
      OpOutcome& op = p.ops[i];
      const std::vector<uint64_t> got = ExactCounters(op.counters);
      const std::vector<uint64_t> want = ExactCounters(first[i].counters);
      if (got != want) {
        std::string why = "simulated counters differ from the first pass:";
        for (size_t k = 0; k < got.size(); ++k) {
          why.append(" ").append(std::to_string(got[k]));
          why.append("/").append(std::to_string(want[k]));
        }
        fail(&op, why);
      }
      const std::vector<double>& vwant = same_kind->ops[i].virtual_outputs;
      if (op.virtual_outputs != vwant) {
        std::string why = "virtual outputs differ from the first pass of its kind:";
        for (size_t k = 0; k < op.virtual_outputs.size(); ++k) {
          why += Fmt(" %.17g", op.virtual_outputs[k]);
          why += k < vwant.size() ? Fmt("/%.17g", vwant[k]) : "/-";
        }
        fail(&op, why);
      }
    }
  }
  return failed;
}

const std::vector<std::pair<std::string, std::string>>&
EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"sim_mips", "Minstr/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>&
PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"tpch.dbgen_s", "s"},
        {"engine.construct_s", "s"},
        {"server.class_sim_s", "s"},
    };
    for (const char* key : kEngineKeys) {
      n.push_back({std::string("engine.") + key + ".run_ms", "ms"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.machine_ms", "ms"},
        {"core.finalize_ms", "ms"},
        {"core.analyze_ms", "ms"},
        {"core.host_ns_per_access", "ns"},
        {"core.instructions", "count"},
        {"core.data_accesses", "count"},
        {"core.branch_events", "count"},
        {"core.l1d_hit_ratio", "ratio"},
        {"core.streams_established", "count"},
        {"core.streams_killed", "count"},
        {"core.l2_hits", "count"},
        {"core.l3_hits", "count"},
        {"core.dram_lines", "count"},
        {"core.stlb_hits", "count"},
        {"core.page_walks", "count"},
        {"core.branch_mispredict_ratio", "ratio"},
        {"core.code_fetches", "count"},
        {"harness.cpu_util", "ratio"},
        {"obs.finish_ms", "ms"},
        {"obs.export_ms", "ms"},
        {"obs.profile_json_bytes", "bytes"},
        {"obs.overhead_pct", "%"},
        {"server.run_ms", "ms"},
        {"server.ns_per_vquery", "ns"},
        {"server.persist_ms", "ms"},
        {"server.checkpoint_bytes", "bytes"},
        {"server.checkpoint_files", "count"},
        {"sim.cycles", "cycles"},
        {"server.vp99_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    n.insert(n.end(), rest.begin(), rest.end());
    return n;
  }();
  return names;
}

namespace {

/// What a run measured, handed from RunBenchmark to the metric builders.
struct Measured {
  std::vector<SetupTimes> setups;
  std::vector<PassStats> passes;
  std::vector<const PassStats*> full;    ///< untraced kFull
  std::vector<const PassStats*> traced;  ///< traced kFull
  std::vector<const PassStats*> bare;    ///< untraced kBare
  double peak_rss_mb = 0;

  double SetupMedian(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  }
};

/// Runs every correctness gate over the passes, marks failed ops, and
/// returns how many failed. Appends the gate notes and sets the result's
/// expected-counters line.
uint64_t CheckPasses(const BenchConfig& config, std::vector<PassStats>* passes,
                     BenchResult* result) {
  uint64_t failed = CheckRepeatable(passes);
  std::map<std::string, engine::QueryResult> answers;
  for (PassStats& p : *passes) failed += CheckAnswers(&p.ops, &answers);
  auto fail_pass = [&failed](PassStats* p, const std::string& why) {
    for (OpOutcome& op : p->ops) {
      if (op.ok) ++failed;
      op.ok = false;
      op.error = why;
    }
  };
  // Address-dependent totals are compared with the first pass of the same
  // kind: a bare serve pass runs a second server whose class profiles were
  // simulated at other heap addresses.
  std::map<PassKind, PassCounters> first_of_kind;
  Drift drift;
  for (PassStats& p : *passes) {
    const PassCounters s = SummarizeCounters(p.ops);
    const PassCounters& first = first_of_kind.emplace(p.kind, s).first->second;
    const Drift d = AddressDrift(first, s);
    if (d.rel > drift.rel) drift = d;
    const std::string diff = CompareCounters(first, s);
    if (!diff.empty()) fail_pass(&p, "counters vs first pass: " + diff);
  }

  const PassCounters summary = SummarizeCounters(passes->front().ops);
  result->expected_line =
      FormatExpectedLine(config.workload, config.seed, summary);
  std::string expect_note = "not recorded for this seed";
  if (config.expected != nullptr) {
    auto it = config.expected->find({config.workload, config.seed});
    if (it != config.expected->end()) {
      const std::string diff = CompareCounters(it->second, summary);
      const Drift d = AddressDrift(it->second, summary);
      expect_note = diff.empty() ? "match (address-dependent drift " +
                                       Fmt("%.4f%% ", 100 * d.rel) +
                                       d.counter + ")"
                                 : "MISMATCH: " + diff;
      if (!diff.empty()) {
        for (PassStats& p : *passes) {
          fail_pass(&p, "expected counters: " + diff);
        }
      }
    }
  }
  result->notes.push_back("# expected counters: " + expect_note);
  result->notes.push_back("# address-dependent drift between passes: max " +
                          Fmt("%.4f%% ", 100 * drift.rel) + drift.counter);
  return failed;
}

using AddFn = std::function<void(const std::string&, double)>;

void AddEndToEnd(const Measured& m, const AddFn& add,
                 std::vector<std::string>* notes) {
  // Per-operation time is printed, not reported as a metric (README.md,
  // "Metrics"): each operation of the fixed list is reduced to its median
  // over the passes, and the line gives their geometric mean, median and
  // p90 with the counts.
  std::vector<double> op_ms;
  for (size_t i = 0; i < m.full.front()->ops.size(); ++i) {
    op_ms.push_back(MedianOf(
        m.full, [i](const PassStats& p) { return p.ops[i].host_ms; }));
  }
  add("setup_s", m.SetupMedian(&SetupTimes::total_s));
  add("wall_s", MedianOf(m.full, [](const PassStats& p) { return p.wall_s; }));
  // Instructions the host simulated per second of the engine work that
  // simulated them: the pass for engine workloads, the class simulation in
  // set-up for serve (a warm Server::Run simulates no instructions).
  const bool serve = !m.full.front()->ops.front().engine_work;
  if (serve) {
    std::vector<double> mips;
    for (const SetupTimes& s : m.setups) {
      if (s.class_sim_s <= 0) continue;
      mips.push_back(static_cast<double>(s.class_sim_instructions) /
                     s.class_sim_s * 1e-6);
    }
    add("sim_mips", Median(mips));
  } else {
    add("sim_mips", MedianOf(m.full, [](const PassStats& p) {
          uint64_t instr = 0;
          for (const OpOutcome& op : p.ops) {
            instr += op.counters.mix.TotalInstructions();
          }
          return static_cast<double>(instr) / p.wall_s * 1e-6;
        }));
  }
  add("peak_rss_mb", m.peak_rss_mb);
  notes->push_back("# op_ms geomean " + Fmt("%.3f", GeoMean(op_ms)) +
                   ", p50 " + Fmt("%.3f", Median(op_ms)) + ", p90 " +
                   Fmt("%.3f", Percentile(op_ms, 90)) + " over " +
                   std::to_string(op_ms.size()) + " ops x " +
                   std::to_string(m.full.size()) + " passes");
}

void AddPerLayer(const Measured& m, const Tracer& tracer, const AddFn& add) {
  // Self time by span name, per traced pass.
  std::vector<std::map<std::string, int64_t>> self;
  for (const PassStats* p : m.traced) {
    self.push_back(tracer.SelfNsByName(p->span_begin, p->span_end));
  }
  auto self_ms = [&](size_t pass, const std::string& name) {
    auto it = self[pass].find(name);
    return it == self[pass].end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
  };
  auto traced_ms = [&](const std::string& name) {
    std::vector<double> v;
    for (size_t i = 0; i < self.size(); ++i) v.push_back(self_ms(i, name));
    return Median(v);
  };
  const PassStats& first = m.passes.front();
  core::CoreCounters c;  // engine work of one pass
  for (const OpOutcome& op : first.ops) {
    if (op.engine_work) c += op.counters;
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
  };

  add("tpch.dbgen_s", m.SetupMedian(&SetupTimes::dbgen_s));
  add("engine.construct_s", m.SetupMedian(&SetupTimes::construct_s));
  add("server.class_sim_s", m.SetupMedian(&SetupTimes::class_sim_s));
  for (const char* key : kEngineKeys) {
    add(std::string("engine.") + key + ".run_ms",
        traced_ms(std::string("engine.") + key + ".run"));
  }
  add("core.machine_ms", traced_ms("core.machine"));
  add("core.finalize_ms", traced_ms("core.finalize"));
  add("core.analyze_ms", traced_ms("core.analyze"));
  std::vector<double> ns_per_access;
  for (size_t i = 0; i < self.size(); ++i) {
    double run_ms = 0;
    for (const char* key : kEngineKeys) {
      run_ms += self_ms(i, std::string("engine.") + key + ".run");
    }
    ns_per_access.push_back(
        c.mem.data_accesses > 0 ? run_ms * 1e6 / count(c.mem.data_accesses)
                                : 0);
  }
  add("core.host_ns_per_access", Median(ns_per_access));
  add("core.instructions", count(c.mix.TotalInstructions()));
  add("core.data_accesses", count(c.mem.data_accesses));
  add("core.branch_events", count(c.branch_events));
  add("core.l1d_hit_ratio", ratio(c.mem.l1d_hits, c.mem.data_accesses));
  add("core.streams_established", count(c.mem.streams_established));
  add("core.streams_killed", count(c.mem.streams_killed));
  add("core.l2_hits", count(c.mem.l2_hits));
  add("core.l3_hits", count(c.mem.l3_hits));
  add("core.dram_lines", count(c.mem.dram_lines));
  add("core.stlb_hits", count(c.mem.stlb_hits));
  add("core.page_walks", count(c.mem.page_walks));
  add("core.branch_mispredict_ratio",
      ratio(c.branch_mispredicts, c.branch_events));
  add("core.code_fetches", count(c.mem.code_fetches));
  add("harness.cpu_util",
      MedianOf(m.full, [](const PassStats& p) { return p.cpu_s / p.wall_s; }));
  add("obs.finish_ms", traced_ms("obs.finish"));
  add("obs.export_ms", traced_ms("obs.export"));
  add("obs.profile_json_bytes", count(m.traced.front()->json_bytes));

  auto wall = [](const PassStats& p) { return p.wall_s; };
  const double full_wall = MedianOf(m.full, wall);
  const bool serve = !first.ops.front().engine_work;
  // Engine workloads: the RegionProfiler's whole cost (hooks, Finish,
  // AnalyzeTree). Serve attaches no profiler per operation.
  add("obs.overhead_pct",
      serve ? 0 : PctOver(full_wall, MedianOf(m.bare, wall)));
  double run_ms = 0;
  double ns_per_vquery = 0;
  double persist_ms = 0;
  if (serve) {
    auto op_median = [](const std::vector<const PassStats*>& ps) {
      std::vector<double> v;
      for (const PassStats* p : ps) {
        for (const OpOutcome& op : p->ops) v.push_back(op.host_ms);
      }
      return Median(v);
    };
    run_ms = op_median(m.bare);
    ns_per_vquery = MedianOf(m.bare, [](const PassStats& p) {
      double ms = 0;
      for (const OpOutcome& op : p.ops) ms += op.host_ms;
      return ms * 1e6 / static_cast<double>(p.vqueries);
    });
    persist_ms = op_median(m.full) - run_ms;
  }
  add("server.run_ms", run_ms);
  add("server.ns_per_vquery", ns_per_vquery);
  add("server.persist_ms", persist_ms);
  add("server.checkpoint_bytes", count(first.checkpoint_bytes));
  add("server.checkpoint_files", count(first.checkpoint_files));
  double cycles = 0;
  for (const OpOutcome& op : first.ops) cycles += op.sim_cycles;
  // Serve: every run replays the same virtual schedule; one run's makespan.
  add("sim.cycles", serve ? first.ops.front().sim_cycles : cycles);
  add("server.vp99_ms", first.vp99_ms);
  add("trace.overhead_pct", PctOver(MedianOf(m.traced, wall), full_wall));
}

}  // namespace

StatusOr<BenchResult> RunBenchmark(const BenchConfig& config) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(config.workload, config.out_dir);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  BenchResult result;
  result.tracer = Tracer(config.trace);
  Tracer* tracer = &result.tracer;
  Measured m;

  // Set-up, repeated so setup_s is a median; the last one stays in use.
  double setup_spent_s = 0;
  auto set_up = [&] {
    m.setups.push_back(workload->Setup(config.seed, tracer));
    setup_spent_s += m.setups.back().total_s;
  };
  while (m.setups.size() < kMinSetupReps) set_up();

  // Measured passes. A traced run rotates untraced, traced and bare
  // passes so each kind sees the same host conditions.
  struct Kind {
    PassKind kind;
    bool traced;
  };
  std::vector<Kind> rotation = {{PassKind::kFull, false}};
  if (config.trace) {
    rotation.push_back({PassKind::kFull, true});
    rotation.push_back({PassKind::kBare, false});
  }
  Tracer off(false);
  uint64_t next_op = 0;
  const int64_t start = NowNs();
  do {
    if (!m.passes.empty() && m.setups.size() < kMaxSetupReps &&
        setup_spent_s < kSetupBudgetS) {
      set_up();
    }
    for (const Kind& k : rotation) {
      m.passes.push_back(
          workload->RunPass(k.kind, k.traced ? tracer : &off, &next_op));
    }
    // Peak RSS is read after set-up and the first rotation: later passes
    // only add a one-time allocator step (glibc's dynamic mmap threshold)
    // whose timing depends on how many passes fit in the run.
    if (m.peak_rss_mb == 0) m.peak_rss_mb = PeakRssMb();
  } while (static_cast<double>(NowNs() - start) * 1e-9 < config.seconds);

  auto& notes = result.notes;
  notes.push_back("# workload " + config.workload + ": sf " +
                  Fmt("%g", workload->sf()) + ", seed " +
                  std::to_string(config.seed) + ", " +
                  std::to_string(m.passes.size()) + " passes of " +
                  std::to_string(m.passes.front().ops.size()) + " ops, " +
                  std::to_string(m.setups.size()) + " set-ups");
  std::string walls = "# pass wall_s:";
  for (const PassStats& p : m.passes) {
    walls += Fmt(" %.3f", p.wall_s) +
             (p.kind == PassKind::kBare ? "b" : p.traced ? "t" : "");
  }
  notes.push_back(walls);

  result.failed = CheckPasses(config, &m.passes, &result);
  for (const PassStats& p : m.passes) result.attempted += p.ops.size();
  result.correct = result.failed == 0;
  notes.push_back("# error_rate " +
                  Fmt("%.6f", static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)) +
                  " (" + std::to_string(result.failed) + " failed of " +
                  std::to_string(result.attempted) + " ops)");
  for (const PassStats& p : m.passes) {
    for (const OpOutcome& op : p.ops) {
      if (!op.ok) notes.push_back("# FAILED " + op.label + ": " + op.error);
    }
  }

  for (const PassStats& p : m.passes) {
    if (p.kind == PassKind::kBare) {
      m.bare.push_back(&p);
    } else {
      (p.traced ? m.traced : m.full).push_back(&p);
    }
  }
  const auto& names = config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  const AddFn add = [&](const std::string& name, double value) {
    for (const auto& [n, unit] : names) {
      if (n == name) {
        result.metrics.push_back({name, value, unit});
        return;
      }
    }
    UOLAP_CHECK_MSG(false, ("unregistered metric " + name).c_str());
  };
  if (config.trace) {
    AddPerLayer(m, *tracer, add);
  } else {
    AddEndToEnd(m, add, &notes);
  }
  return result;
}

std::string ResultJson(const BenchResult& result) {
  obs::JsonWriter w(/*indent=*/0);
  w.BeginObject();
  w.KV("correct", result.correct);
  w.KV("attempted", result.attempted);
  w.KV("failed", result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : result.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace uolap::hostbench
