// Multi-tenant serving demo: a mix of open- and closed-loop tenants over
// the engine registry, scheduled by the virtual-time serving runtime onto
// a pool of simulated cores with shared socket bandwidth (DESIGN.md
// Section 6). The default mix keeps enough sequential scans in flight to
// saturate the Broadwell socket, so co-running tenants measurably inflate
// each other's Dcache stall share relative to running alone.
//
//   ./build/examples/uolap_serve [--sf=0.05] [--cores=12] [--queries=24]
//                                [--qps=200] [--zipf=0.8]
//                                [--json=serve.json] [--stable-json]
//                                [--epoch-ms=5] [--trace-sample=1/N]
//                                [--slo='tenant0:p99<12ms,*:qdepth<64']
//                                [--deadline=8] [--shed-policy=both]
//                                [--retries=2]
//                                [--fault-plan='seed=7,fail=0.1,slow=0.2,x=2']
//                                [--brownout=16]
//                                [--checkpoint-dir=ck] [--checkpoint-every=2]
//                                [--resume=1] [--crash-at=25]
//
// Serving telemetry (DESIGN.md §8): the run is windowed into --epoch-ms
// SLO epochs, --slo specs are evaluated against those windows (results
// print here and land in the profile JSON for `uolap_report slo`), and
// --trace-sample=1/N head-samples every N-th admitted query as a span
// tree in the --trace Chrome trace (default 1/1 when --trace is given).
//
// Robustness (DESIGN.md §9): --deadline gives every query a virtual-time
// deadline; --shed-policy picks where load is dropped when the admission
// load model predicts a miss (reject at admission, shed at schedule time,
// both, or none); --retries bounds retry-with-backoff of transiently
// failed attempts; --fault-plan arms the deterministic fault injector;
// --brownout=DEPTH downgrades queued queries to the fastest engine once
// the backlog reaches DEPTH. All five default off, leaving the run
// bit-identical to the pre-robustness runtime.
//
// Crash consistency (DESIGN.md §10): --checkpoint-dir arms epoch-boundary
// snapshots plus a CRC-framed event journal in that directory,
// --checkpoint-every spaces the snapshots, --resume=1 restarts from the
// newest valid snapshot instead of from scratch, and --crash-at=MS is the
// deterministic self-kill (exit 137 once virtual time reaches MS) the CI
// kill-and-resume stage drives. A resumed run's profile JSON is
// byte-identical to an uninterrupted one.
//
// Everything is virtual time from seeded generators: two runs with the
// same flags produce byte-identical --json output (the CI smoke stage
// byte-diffs them) — including the fault plan's failures and slowdowns,
// which hash the plan seed rather than sampling event-loop state.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "engine/query_spec.h"
#include "harness/context.h"
#include "obs/slo.h"
#include "server/serving.h"

namespace {

/// Parses --trace-sample: "1/N" or plain "N" mean one span per N admitted
/// queries; 0/empty disables. Exits on malformed input.
uint64_t ParseTraceSample(const std::string& text) {
  if (text.empty()) return 0;
  std::string denom = text;
  const size_t slash = text.find('/');
  if (slash != std::string::npos) {
    if (text.substr(0, slash) != "1") {
      std::fprintf(stderr, "--trace-sample wants 1/N or N, got '%s'\n",
                   text.c_str());
      std::exit(2);
    }
    denom = text.substr(slash + 1);
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(denom.c_str(), &end, 10);
  if (denom.empty() || end != denom.c_str() + denom.size()) {
    std::fprintf(stderr, "--trace-sample wants 1/N or N, got '%s'\n",
                 text.c_str());
    std::exit(2);
  }
  return static_cast<uint64_t>(n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uolap;

  harness::BenchContext ctx(argc, argv, /*default_sf=*/0.05);
  ctx.PrintHeader("uolap_serve: multi-tenant query serving");

  const int cores = static_cast<int>(ctx.flags().GetInt("cores", 12));
  const uint64_t queries = static_cast<uint64_t>(
      ctx.flags().GetInt("queries", ctx.quick() ? 12 : 24));
  const double qps = ctx.flags().GetDouble("qps", 200.0);
  const double zipf = ctx.flags().GetDouble("zipf", 0.8);
  // Span tracing defaults to 1/1 when a trace is requested, otherwise off.
  const std::string trace_sample = ctx.flags().GetString(
      "trace-sample", ctx.flags().Has("trace") ? "1/1" : "");
  const double epoch_ms = ctx.flags().GetDouble("epoch-ms", 5.0);
  const std::string slo_text = ctx.flags().GetString("slo", "");
  StatusOr<std::vector<obs::SloSpec>> slos = obs::ParseSloSpecs(slo_text);
  if (!slos.ok()) {
    std::fprintf(stderr, "--slo: %s\n", slos.status().ToString().c_str());
    return 2;
  }

  // Robustness flags (DESIGN.md §9); every default leaves the feature off.
  const double deadline_ms = ctx.flags().GetDouble("deadline", 0.0);
  StatusOr<server::ShedPolicy> shed_policy =
      server::ParseShedPolicy(ctx.flags().GetString("shed-policy", ""));
  if (!shed_policy.ok()) {
    std::fprintf(stderr, "--shed-policy: %s\n",
                 shed_policy.status().ToString().c_str());
    return 2;
  }
  StatusOr<server::FaultPlan> fault_plan =
      server::ParseFaultPlan(ctx.flags().GetString("fault-plan", ""));
  if (!fault_plan.ok()) {
    std::fprintf(stderr, "--fault-plan: %s\n",
                 fault_plan.status().ToString().c_str());
    return 2;
  }
  const int retries = static_cast<int>(ctx.flags().GetInt("retries", 0));
  const int brownout = static_cast<int>(ctx.flags().GetInt("brownout", 0));
  // Crash-consistency flags (DESIGN.md §10); off unless --checkpoint-dir.
  server::CheckpointConfig ckpt;
  ckpt.dir = ctx.flags().GetString("checkpoint-dir", "");
  ckpt.every_epochs =
      static_cast<int>(ctx.flags().GetInt("checkpoint-every", 1));
  ckpt.resume = ctx.flags().GetBool("resume", false);
  ckpt.crash_at_ms = ctx.flags().GetDouble("crash-at", 0.0);
  if (ckpt.enabled() && ckpt.every_epochs < 1) {
    std::fprintf(stderr, "--checkpoint-every wants a positive epoch count\n");
    return 2;
  }
  if (ckpt.enabled() && epoch_ms <= 0) {
    std::fprintf(stderr, "--checkpoint-dir requires --epoch-ms > 0\n");
    return 2;
  }

  server::ServerConfig config;
  config.machine = ctx.machine();
  config.cores = cores;
  config.default_max_queries = queries;
  config.sample_interval_instructions =
      ctx.profiler_options().sample_interval_instructions;
  config.epoch_ms = epoch_ms;
  config.trace_sample_n = ParseTraceSample(trace_sample);
  config.slos = slos.value();
  config.admission.policy = shed_policy.value();
  config.admission.default_deadline_ms = deadline_ms;
  config.retry.max_retries = retries;
  config.faults = fault_plan.value();
  config.checkpoint = ckpt;
  if (brownout > 0) {
    // Brown-out downgrades to the compiled engine — the cheapest way to
    // the same answer (the server checks the answers match).
    config.brownout.queue_depth = brownout;
    config.brownout.downgrade = {{"rowstore", "typer"},
                                 {"colstore", "typer"},
                                 {"tectorwise", "typer"}};
  }
  server::Server server(config, ctx.engines());

  // Tenant seeds derive from --seed so reruns with a different seed see
  // different arrivals/mixes, while equal seeds replay exactly.
  auto tenant_seed = [&](uint64_t i) { return Mix64(ctx.seed() ^ (i + 1)); };

  // Two closed-loop scan-heavy tenants (compiled vs vectorized engine):
  // their catalogs are full-table scans, so several in flight together
  // push the socket past its sequential ceiling.
  const std::vector<engine::QuerySpec> scans = {
      engine::QuerySpec::Projection(4),
      engine::QuerySpec::Q6(engine::MakeQ6Params()),
  };
  server.AddTenant({/*name=*/"scans-typer", /*engine=*/"typer",
                    /*catalog=*/scans, /*zipf_s=*/zipf,
                    /*arrival_qps=*/0, /*concurrency=*/5,
                    /*think_ms=*/0.0, /*max_queries=*/0,
                    /*seed=*/tenant_seed(0)});
  server.AddTenant({"scans-tw", "tectorwise", scans, zipf,
                    /*arrival_qps=*/0, /*concurrency=*/5,
                    /*think_ms=*/0.0, /*max_queries=*/0, tenant_seed(1)});

  // A closed-loop analytics tenant with random-access-heavy queries.
  const std::vector<engine::QuerySpec> analytics = {
      engine::QuerySpec::Join(engine::JoinSize::kLarge),
      engine::QuerySpec::GroupBy(64 * 1024),
      engine::QuerySpec::Q1(),
  };
  server.AddTenant({"joins-typer", "typer", analytics, zipf,
                    /*arrival_qps=*/0, /*concurrency=*/2,
                    /*think_ms=*/0.2, /*max_queries=*/0, tenant_seed(2)});

  // An open-loop tuple-at-a-time tenant: Poisson arrivals keep background
  // pressure on the pool regardless of completions.
  server.AddTenant({"adhoc-rowstore", "rowstore",
                    {engine::QuerySpec::Projection(2)}, /*zipf_s=*/0,
                    /*arrival_qps=*/qps, /*concurrency=*/0,
                    /*think_ms=*/0, /*max_queries=*/0, tenant_seed(3)});

  StatusOr<server::ServeResult> run = server.TryRun();
  if (!run.ok()) {
    // Checkpoint I/O and recovery failures are operational errors, not
    // bugs: report the Status and exit non-zero instead of CHECK-failing.
    std::fprintf(stderr, "uolap_serve: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  server::ServeResult result = std::move(run.value());
  const obs::ServerRecord& rec = result.record;

  std::printf(
      "\n# served %llu/%llu queries on %d cores in %.1f virtual ms "
      "(%.1f qps, socket %.1f GB/s avg / %.1f GB/s peak%s)\n",
      static_cast<unsigned long long>(rec.completed),
      static_cast<unsigned long long>(rec.submitted), rec.cores,
      rec.vtime_ms, rec.throughput_qps, rec.avg_socket_gbps,
      rec.peak_socket_gbps, rec.saturated ? ", saturated" : "");
  std::printf(
      "# outcomes: admitted %llu, completed %llu, rejected %llu, "
      "shed %llu, timed_out %llu, failed %llu, retries %llu "
      "(policy %s, faults %llu, slowdowns %llu, downgrades %llu%s%s)\n",
      static_cast<unsigned long long>(rec.admitted),
      static_cast<unsigned long long>(rec.completed),
      static_cast<unsigned long long>(rec.rejected),
      static_cast<unsigned long long>(rec.shed),
      static_cast<unsigned long long>(rec.timed_out),
      static_cast<unsigned long long>(rec.failed),
      static_cast<unsigned long long>(rec.retries), rec.shed_policy.c_str(),
      static_cast<unsigned long long>(rec.faults_injected),
      static_cast<unsigned long long>(rec.slowdowns_injected),
      static_cast<unsigned long long>(rec.brownout_downgrades),
      rec.fault_plan.empty() ? "" : ", plan ", rec.fault_plan.c_str());

  TablePrinter tenants("Per-tenant latency and throughput");
  tenants.SetHeader({"tenant", "engine", "done", "drop", "mean ms", "p50 ms",
                     "p95 ms", "p99 ms", "qps"});
  for (const obs::TenantRecord& t : rec.tenants) {
    // "drop" folds the non-completion outcomes: rejected+shed+timed+failed.
    tenants.AddRow({t.name, t.engine, std::to_string(t.completed),
                    std::to_string(t.rejected + t.shed + t.timed_out +
                                   t.failed),
                    TablePrinter::Fmt(t.mean_ms, 2),
                    TablePrinter::Fmt(t.p50_ms, 2),
                    TablePrinter::Fmt(t.p95_ms, 2),
                    TablePrinter::Fmt(t.p99_ms, 2),
                    TablePrinter::Fmt(t.throughput_qps, 1)});
  }
  ctx.Emit(tenants);

  TablePrinter engines("Per-engine load");
  engines.SetHeader({"engine", "done", "p50 ms", "p95 ms", "p99 ms", "qps"});
  for (const obs::EngineLoadRecord& e : rec.engines) {
    engines.AddRow({e.engine, std::to_string(e.completed),
                    TablePrinter::Fmt(e.p50_ms, 2),
                    TablePrinter::Fmt(e.p95_ms, 2),
                    TablePrinter::Fmt(e.p99_ms, 2),
                    TablePrinter::Fmt(e.throughput_qps, 1)});
  }
  ctx.Emit(engines);

  TablePrinter classes("Query classes: solo vs co-run (bandwidth contention "
                       "lands in Dcache)");
  classes.SetHeader({"class", "runs", "solo ms", "corun ms", "bw scale",
                     "dcache solo", "dcache corun"});
  for (const obs::QueryClassRecord& c : rec.classes) {
    classes.AddRow({c.label, std::to_string(c.executions),
                    TablePrinter::Fmt(c.solo_ms, 2),
                    TablePrinter::Fmt(c.corun_ms, 2),
                    TablePrinter::Fmt(c.avg_bw_scale, 3),
                    TablePrinter::Pct(c.solo_dcache_frac, 1),
                    TablePrinter::Pct(c.corun_dcache_frac, 1)});
  }
  ctx.Emit(classes);

  std::printf(
      "\n# telemetry: %zu epochs of %.1f ms, overall p50/p95/p99 = "
      "%.2f/%.2f/%.2f ms, %zu spans sampled%s\n",
      rec.epochs.size(), rec.epoch_ms, rec.p50_ms, rec.p95_ms, rec.p99_ms,
      rec.spans.size(),
      rec.trace_sample_n > 0
          ? (" (1/" + std::to_string(rec.trace_sample_n) + ")").c_str()
          : "");

  bool slo_failed = false;
  if (!rec.slo_results.empty()) {
    TablePrinter slo_table("SLO evaluation (per epoch window)");
    slo_table.SetHeader({"slo", "epochs", "worst", "first viol", "verdict"});
    for (const obs::SloResult& r : rec.slo_results) {
      slo_failed |= !r.pass;
      slo_table.AddRow(
          {r.spec.ToString(), std::to_string(r.epochs_evaluated),
           TablePrinter::Fmt(r.worst_value, 2),
           r.first_violation_epoch >= 0
               ? std::to_string(r.first_violation_epoch)
               : "-",
           !r.known_subject ? "FAIL (unknown subject)"
                            : (r.pass ? "PASS" : "FAIL")});
    }
    ctx.Emit(slo_table);
  }

  // Record everything into the session so --json/--trace carry the
  // serving run: the per-class profiles as ordinary runs, the serving
  // statistics as the schema-v5 "server" block.
  for (obs::RunRecord& run : result.class_runs) {
    ctx.RecordRun(std::move(run));
  }
  ctx.RecordServer(rec);
  ctx.FlushOutputs();
  // SLO verdicts gate the exit code so CI can use a serve run directly.
  return slo_failed ? 1 : 0;
}
