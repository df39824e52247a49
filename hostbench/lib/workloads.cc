#include "workloads.h"

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/file_io.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/machine.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "harness/thread_pool.h"
#include "obs/attribution.h"
#include "obs/profile_export.h"
#include "obs/record.h"
#include "obs/region_profiler.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

namespace uolap::hostbench {
namespace {

// Counter-timeline interval the figure benches use whenever they export a
// profile (harness::BenchContext with --json), so obs does its full work.
constexpr uint64_t kSampleEvery = 1u << 20;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// "tectorwise+simd" -> "tectorwise_simd": registry keys as metric names.
std::string MetricKey(const std::string& engine_key) {
  std::string out = engine_key;
  std::replace(out.begin(), out.end(), '+', '_');
  return out;
}

/// The predicated variants compute the branching variant's answer.
std::string AnswerKey(const engine::QuerySpec& spec) {
  std::string label = spec.Label();
  const size_t pred = label.find("/pred");
  if (pred != std::string::npos) label.erase(pred, 5);
  return label;
}

/// Database + engine registry: the set-up every workload shares.
struct Inputs {
  std::unique_ptr<tpch::Database> db;
  std::unique_ptr<engine::EngineRegistry> registry;
};

Inputs MakeInputs(uint64_t seed, double sf,
                  const std::vector<std::string>& engine_keys,
                  Tracer* tracer, SetupTimes* times) {
  Inputs in;
  int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "tpch.dbgen");
    in.db = std::make_unique<tpch::Database>(
        tpch::DbGen(seed).Generate(sf).value());
  }
  int64_t t1 = NowNs();
  times->dbgen_s = Seconds(t1 - t0);
  {
    ScopedSpan span(tracer, "engine.construct");
    in.registry = std::make_unique<engine::EngineRegistry>(*in.db);
    harness::RegisterBuiltinEngines(*in.registry);
    for (const std::string& key : engine_keys) {
      (void)in.registry->Get(key).value();
    }
  }
  times->construct_s = Seconds(NowNs() - t1);
  return in;
}

// --- engine workloads: scan, multicore -------------------------------------

struct EngineOp {
  std::string engine;
  engine::QuerySpec spec;
  int cores = 1;
};

using OpListFn = std::vector<EngineOp> (*)(const tpch::Database& db);

const std::vector<std::string> kAllEngines = {
    "typer", "tectorwise", "tectorwise+simd", "colstore", "rowstore"};
const std::vector<std::string> kPredicationEngines = {
    "typer", "tectorwise", "tectorwise+simd"};
const std::vector<std::string> kFastEngines = {"typer", "tectorwise"};

// Figures 1-10 and 15-21: sequential scans on every engine.
std::vector<EngineOp> ScanOps(const tpch::Database& db) {
  std::vector<EngineOp> ops;
  const std::vector<double> selectivities = {0.1, 0.5, 0.9};
  for (const std::string& e : kAllEngines) {
    for (int d = 1; d <= 4; ++d) {
      ops.push_back({e, engine::QuerySpec::Projection(d)});
    }
    for (double s : selectivities) {
      ops.push_back(
          {e, engine::QuerySpec::Selection(engine::MakeSelectionParams(db, s))});
    }
    ops.push_back({e, engine::QuerySpec::Q1()});
    ops.push_back({e, engine::QuerySpec::Q6(engine::MakeQ6Params())});
  }
  for (const std::string& e : kPredicationEngines) {
    for (double s : selectivities) {
      ops.push_back({e, engine::QuerySpec::Selection(engine::MakeSelectionParams(
                            db, s, /*predicated=*/true))});
    }
    ops.push_back(
        {e, engine::QuerySpec::Q6(engine::MakeQ6Params(/*predicated=*/true))});
  }
  return ops;
}

// Section 10: projection and the large join across four simulated cores.
std::vector<EngineOp> MulticoreOps(const tpch::Database&) {
  std::vector<EngineOp> ops;
  for (const std::string& e : kFastEngines) {
    ops.push_back({e, engine::QuerySpec::Projection(4), 4});
    ops.push_back({e, engine::QuerySpec::Join(engine::JoinSize::kLarge), 4});
  }
  return ops;
}

// Host threads of the multicore pool, counting the caller: one fewer than
// the host has, at most 4. A 4-core operation waits at each barrier for its
// slowest thread, so with every CPU busy one descheduled thread stalls the
// whole operation. On a shared 4-vCPU host (5 % of CPU time stolen) four
// threads made the per-op geometric mean spread 0.26 between runs, three
// 0.17.
unsigned PoolThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 2u, 5u) - 1;
}

class EngineWorkload : public Workload {
 public:
  EngineWorkload(std::string name, double sf, OpListFn op_list,
                 std::vector<std::string> engines)
      : name_(std::move(name)),
        sf_(sf),
        op_list_(op_list),
        engines_(std::move(engines)),
        cfg_(core::MachineConfig::Broadwell()),
        pool_(PoolThreads()) {}

  double sf() const override { return sf_; }

  SetupTimes Setup(uint64_t seed, Tracer* tracer) override {
    ops_.clear();
    inputs_ = {};
    seed_ = seed;
    SetupTimes t;
    const int64_t t0 = NowNs();
    inputs_ = MakeInputs(seed, sf_, engines_, tracer, &t);
    ops_ = op_list_(*inputs_.db);
    t.total_s = Seconds(NowNs() - t0);
    return t;
  }

  PassStats RunPass(PassKind kind, Tracer* tracer, uint64_t* next_op) override {
    PassStats ps;
    ps.kind = kind;
    ps.traced = tracer != nullptr && tracer->enabled();
    ps.span_begin = tracer != nullptr ? tracer->size() : 0;
    obs::ProfileSession session;
    session.bench = "hostbench/" + name_;
    session.machine = cfg_.name;
    session.freq_ghz = cfg_.freq_ghz;
    session.scale_factor = sf_;
    session.seed = seed_;

    const int64_t t0 = NowNs();
    const double c0 = ProcessCpuSeconds();
    for (const EngineOp& op : ops_) {
      if (tracer != nullptr) tracer->SetOp(++*next_op);
      ps.ops.push_back(RunOp(op, kind, tracer, &session));
    }
    {
      ScopedSpan span(tracer, "obs.export");
      ps.json_bytes = obs::ProfileToJson(session).size();
    }
    ps.wall_s = Seconds(NowNs() - t0);
    ps.cpu_s = ProcessCpuSeconds() - c0;
    ps.span_end = tracer != nullptr ? tracer->size() : 0;
    return ps;
  }

 private:
  OpOutcome RunOp(const EngineOp& op, PassKind kind, Tracer* tracer,
                  obs::ProfileSession* session) {
    OpOutcome out;
    out.label = op.engine + "/" + op.spec.Label() +
                (op.cores > 1 ? "/x" + std::to_string(op.cores) : "");
    out.answer_key = AnswerKey(op.spec);
    const engine::OlapEngine* eng = inputs_.registry->Get(op.engine).value();
    const int64_t t0 = NowNs();
    ScopedSpan op_span(tracer, "harness.op");

    std::unique_ptr<core::Machine> machine;
    {
      ScopedSpan span(tracer, "core.machine");
      machine = std::make_unique<core::Machine>(
          cfg_, static_cast<uint32_t>(op.cores));
    }
    std::vector<core::Core*> cores;
    std::vector<std::unique_ptr<obs::RegionProfiler>> profilers;
    for (int i = 0; i < op.cores; ++i) {
      cores.push_back(&machine->core(static_cast<size_t>(i)));
      if (kind == PassKind::kFull) {
        profilers.push_back(std::make_unique<obs::RegionProfiler>(
            *cores.back(), obs::RegionProfiler::Options{kSampleEvery}));
      }
    }
    engine::Workers w(cores);
    if (op.cores > 1) w.executor = &pool_;

    StatusOr<engine::QueryResult> result = [&] {
      ScopedSpan span(tracer, "engine." + MetricKey(op.engine) + ".run");
      return eng->Run(op.spec, w);
    }();
    {
      ScopedSpan span(tracer, "core.finalize");
      machine->FinalizeAll();
    }

    obs::RunRecord run;
    run.label = out.label;
    run.threads = op.cores;
    run.config = cfg_;
    {
      ScopedSpan span(tracer, "core.analyze");
      if (op.cores == 1) {
        obs::CoreRecord rec;
        rec.whole = machine->AnalyzeCore(0);
        run.makespan_cycles = rec.whole.total_cycles;
        run.time_ms = rec.whole.time_ms;
        run.socket_bandwidth_gbps = rec.whole.bandwidth_gbps;
        run.cores.push_back(std::move(rec));
      } else {
        core::MultiCoreResult multi = machine->AnalyzeAll();
        run.bw_scale = multi.bandwidth_scale;
        run.makespan_cycles = multi.makespan_cycles;
        run.time_ms = multi.time_ms;
        run.socket_bandwidth_gbps = multi.socket_bandwidth_gbps;
        for (core::ProfileResult& r : multi.per_core) {
          obs::CoreRecord rec;
          rec.whole = std::move(r);
          run.cores.push_back(std::move(rec));
        }
      }
    }
    if (kind == PassKind::kFull) {
      ScopedSpan span(tracer, "obs.finish");
      for (size_t i = 0; i < profilers.size(); ++i) {
        obs::CoreRecord& rec = run.cores[i];
        rec.regions = profilers[i]->Finish();
        obs::AnalyzeTree(cfg_, &rec.regions, run.bw_scale);
        rec.timeline = profilers[i]->timeline();
        rec.events = profilers[i]->events();
        rec.begin = profilers[i]->begin_counters();
      }
    }
    out.sim_cycles = run.makespan_cycles;
    session->runs.push_back(std::move(run));
    for (core::Core* c : cores) out.counters += c->counters();
    {
      ScopedSpan span(tracer, "core.machine");
      profilers.clear();
      machine.reset();
    }
    out.host_ms = static_cast<double>(NowNs() - t0) * 1e-6;

    if (result.ok()) {
      out.answer = std::move(result.value());
    } else {
      out.ok = false;
      out.error = result.status().ToString();
    }
    return out;
  }

  const std::string name_;
  const double sf_;
  const OpListFn op_list_;
  const std::vector<std::string> engines_;
  const core::MachineConfig cfg_;
  harness::ThreadPool pool_;
  uint64_t seed_ = 0;
  Inputs inputs_;
  std::vector<EngineOp> ops_;
};

// --- serve ------------------------------------------------------------------

// Warm Server::Run calls per pass.
constexpr int kServeRunsPerPass = 6;
// uolap_serve's defaults, with a large per-tenant query count.
constexpr int kServeCores = 12;
constexpr uint64_t kServeQueriesPerTenant = 2000;
constexpr double kServeEpochMs = 5.0;
// Snapshot cadence of the armed server. Every 64 epochs already made
// persistence 80 % of a run, waiting on fsync; every 256 keeps it about
// half, measurable without letting disk latency dominate the run.
constexpr int kServeCheckpointEvery = 256;

class ServeWorkload : public Workload {
 public:
  ServeWorkload(double sf, const std::string& out_dir)
      : sf_(sf),
        ckpt_dir_(out_dir + "/serve-ckpt-" +
                  std::to_string(static_cast<long>(::getpid()))) {}

  ~ServeWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir_, ec);
  }

  double sf() const override { return sf_; }

  SetupTimes Setup(uint64_t seed, Tracer* tracer) override {
    armed_.reset();
    bare_.reset();
    inputs_ = {};
    seed_ = seed;
    SetupTimes t;
    const int64_t t0 = NowNs();
    inputs_ = MakeInputs(seed, sf_, {"typer", "tectorwise", "rowstore"},
                         tracer, &t);
    armed_ = MakeServer(seed, /*checkpoint=*/true);
    // The first Run simulates every query class once; later runs reuse
    // them. Class simulation time = cold run minus a warm run, which is
    // made after set-up's clock stops.
    const int64_t c0 = NowNs();
    OpOutcome cold;
    {
      ScopedSpan span(tracer, "server.class_sim");
      cold = RunOnce(armed_.get(), nullptr, true);
    }
    const int64_t c1 = NowNs();
    t.total_s = Seconds(c1 - t0);
    RunOnce(armed_.get(), nullptr, true);
    const int64_t c2 = NowNs();
    t.class_sim_s = std::max(0.0, Seconds((c1 - c0) - (c2 - c1)));
    t.class_sim_instructions = cold.counters.mix.TotalInstructions();
    return t;
  }

  PassStats RunPass(PassKind kind, Tracer* tracer, uint64_t* next_op) override {
    const bool armed = kind == PassKind::kFull;
    if (!armed && bare_ == nullptr) {
      bare_ = MakeServer(seed_, /*checkpoint=*/false);
      RunOnce(bare_.get(), nullptr, false);  // simulates its classes
    }
    server::Server* srv = armed ? armed_.get() : bare_.get();
    PassStats ps;
    ps.kind = kind;
    ps.traced = tracer != nullptr && tracer->enabled();
    ps.span_begin = tracer != nullptr ? tracer->size() : 0;
    const int64_t t0 = NowNs();
    const double c0 = ProcessCpuSeconds();
    for (int i = 0; i < kServeRunsPerPass; ++i) {
      if (tracer != nullptr) tracer->SetOp(++*next_op);
      ps.ops.push_back(RunOnce(srv, tracer, armed, &ps));
    }
    ps.wall_s = Seconds(NowNs() - t0);
    ps.cpu_s = ProcessCpuSeconds() - c0;
    ps.span_end = tracer != nullptr ? tracer->size() : 0;
    return ps;
  }

 private:
  std::unique_ptr<server::Server> MakeServer(uint64_t seed, bool checkpoint) {
    server::ServerConfig config;
    config.machine = core::MachineConfig::Broadwell();
    config.cores = kServeCores;
    config.default_max_queries = kServeQueriesPerTenant;
    config.epoch_ms = kServeEpochMs;
    if (checkpoint) {
      config.checkpoint.dir = ckpt_dir_;
      config.checkpoint.every_epochs = kServeCheckpointEvery;
    }
    auto srv = std::make_unique<server::Server>(config, *inputs_.registry);
    // The uolap_serve default tenant mix; tenant seeds derive from the
    // workload seed exactly as uolap_serve derives them from --seed.
    auto tenant_seed = [&](uint64_t i) { return Mix64(seed ^ (i + 1)); };
    const double zipf = 0.8;
    const std::vector<engine::QuerySpec> scans = {
        engine::QuerySpec::Projection(4),
        engine::QuerySpec::Q6(engine::MakeQ6Params()),
    };
    srv->AddTenant({"scans-typer", "typer", scans, zipf, 0, 5, 0.0, 0,
                    tenant_seed(0)});
    srv->AddTenant({"scans-tw", "tectorwise", scans, zipf, 0, 5, 0.0, 0,
                    tenant_seed(1)});
    const std::vector<engine::QuerySpec> analytics = {
        engine::QuerySpec::Join(engine::JoinSize::kLarge),
        engine::QuerySpec::GroupBy(64 * 1024),
        engine::QuerySpec::Q1(),
    };
    srv->AddTenant({"joins-typer", "typer", analytics, zipf, 0, 2, 0.2, 0,
                    tenant_seed(2)});
    srv->AddTenant({"adhoc-rowstore", "rowstore",
                    {engine::QuerySpec::Projection(2)}, 0, /*qps=*/200.0, 0,
                    0, 0, tenant_seed(3)});
    return srv;
  }

  /// One Server::Run into a fresh checkpoint directory (armed) whose files
  /// are counted and removed afterwards, so passes cannot fill the disk.
  OpOutcome RunOnce(server::Server* srv, Tracer* tracer, bool armed,
                    PassStats* ps = nullptr) {
    OpOutcome out;
    out.label = armed ? "serve/run" : "serve/run-bare";
    out.engine_work = false;
    if (armed) {
      std::error_code ec;
      std::filesystem::remove_all(ckpt_dir_, ec);
      UOLAP_CHECK(EnsureDirectory(ckpt_dir_).ok());
    }
    const int64_t t0 = NowNs();
    StatusOr<server::ServeResult> run = [&] {
      ScopedSpan span(tracer, "server.run");
      return srv->TryRun();
    }();
    out.host_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    uint64_t files = 0;
    uint64_t bytes = 0;
    if (armed) {
      ScopedSpan span(tracer, "harness.checkpoint_cleanup");
      for (const auto& entry :
           std::filesystem::directory_iterator(ckpt_dir_)) {
        ++files;
        bytes += entry.file_size();
      }
      std::filesystem::remove_all(ckpt_dir_);
    }
    if (!run.ok()) {
      out.ok = false;
      out.error = run.status().ToString();
      return out;
    }
    const server::ServeResult& res = run.value();
    const obs::ServerRecord& rec = res.record;
    if (rec.completed != rec.submitted) {
      out.ok = false;
      out.error = std::to_string(rec.submitted - rec.completed) +
                  " virtual queries not completed";
    }
    for (const obs::RunRecord& r : res.class_runs) {
      if (r.label.find("[corun]") != std::string::npos) continue;
      out.counters += r.cores[0].whole.counters;
    }
    out.sim_cycles = rec.vtime_ms * 1e6 *
                     srv->config().machine.freq_ghz;
    out.virtual_outputs = {rec.vtime_ms, rec.p99_ms,
                           static_cast<double>(rec.submitted),
                           static_cast<double>(rec.completed)};
    if (ps != nullptr) {
      ps->vqueries += rec.submitted;
      ps->vp99_ms = rec.p99_ms;
      ps->checkpoint_files = files;
      ps->checkpoint_bytes = bytes;
    }
    return out;
  }

  const double sf_;
  const std::string ckpt_dir_;
  uint64_t seed_ = 0;
  Inputs inputs_;
  std::unique_ptr<server::Server> armed_;
  std::unique_ptr<server::Server> bare_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& out_dir) {
  if (name == "scan") {
    return std::make_unique<EngineWorkload>(name, 0.005, ScanOps,
                                            kAllEngines);
  }
  if (name == "multicore") {
    return std::make_unique<EngineWorkload>(name, 0.2, MulticoreOps,
                                            kFastEngines);
  }
  if (name == "serve") {
    return std::make_unique<ServeWorkload>(0.05, out_dir);
  }
  return nullptr;
}

size_t CheckAnswers(std::vector<OpOutcome>* ops,
                    std::map<std::string, engine::QueryResult>* reference) {
  size_t failed = 0;
  for (OpOutcome& op : *ops) {
    if (!op.answer.has_value()) continue;
    auto [it, inserted] = reference->emplace(op.answer_key, *op.answer);
    if (!inserted && !(it->second.value == op.answer->value)) {
      if (op.ok) ++failed;
      op.ok = false;
      op.error = "answer differs from the other engines' answer to " +
                 op.answer_key;
    }
  }
  return failed;
}

}  // namespace uolap::hostbench
