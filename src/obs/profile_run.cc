#include "obs/profile_run.h"

#include "obs/attribution.h"

namespace uolap::obs::internal {

ProfiledRun FinishProfiledRun(
    const core::Machine& machine, RegionProfiler& first,
    const std::vector<std::unique_ptr<RegionProfiler>>& rest,
    const std::string& label) {
  const core::MachineConfig& cfg = machine.config();
  const size_t n = machine.num_cores();
  ProfiledRun out;
  out.multi = machine.AnalyzeAll();
  RunRecord& run = out.record;
  run.label = label;
  run.threads = static_cast<int>(n);
  run.config = cfg;
  run.bw_scale = n == 1 ? 1.0 : out.multi.bandwidth_scale;
  run.cores.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RegionProfiler& prof = i == 0 ? first : *rest[i - 1];
    CoreRecord rec;
    rec.whole = n == 1 ? machine.AnalyzeCore(0) : out.multi.per_core[i];
    rec.regions = prof.Finish();
    AnalyzeTree(cfg, &rec.regions, run.bw_scale);
    rec.timeline = prof.timeline();
    rec.events = prof.events();
    rec.begin = prof.begin_counters();
    run.cores.push_back(std::move(rec));
  }
  if (n == 1) {
    const core::ProfileResult& whole = run.cores[0].whole;
    run.makespan_cycles = whole.total_cycles;
    run.time_ms = whole.time_ms;
    run.socket_bandwidth_gbps = whole.bandwidth_gbps;
  } else {
    run.makespan_cycles = out.multi.makespan_cycles;
    run.time_ms = out.multi.time_ms;
    run.socket_bandwidth_gbps = out.multi.socket_bandwidth_gbps;
  }

  if (audit::ValidationEnabled()) {
    audit::AuditReport report = audit::AuditMachine(machine, label);
    for (size_t i = 0; i < n; ++i) {
      audit::CheckBreakdown(run.cores[i].whole, cfg.freq_ghz,
                            label + "/core" + std::to_string(i) + "/topdown",
                            &report);
    }
    run.audited = true;
    run.audit_checks = report.checks;
    run.violations = report.violations;
    audit::ReportViolations(report, label);
  }
  return out;
}

}  // namespace uolap::obs::internal
