#ifndef UOLAP_OBS_PROFILE_RUN_H_
#define UOLAP_OBS_PROFILE_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/validation.h"
#include "core/config.h"
#include "core/machine.h"
#include "core/multicore.h"
#include "obs/record.h"
#include "obs/region_profiler.h"

namespace uolap::obs {

/// What one profiled run yields: the record the exporters consume, and
/// the socket-contention analysis of all its cores (the Section 10
/// series).
struct ProfiledRun {
  RunRecord record;
  core::MultiCoreResult multi;
};

namespace internal {
/// Analyzes, attributes and audits a finalized machine whose core 0 was
/// observed by `first` and core i > 0 by `rest[i - 1]`; see ProfileRun.
ProfiledRun FinishProfiledRun(
    const core::Machine& machine, RegionProfiler& first,
    const std::vector<std::unique_ptr<RegionProfiler>>& rest,
    const std::string& label);
}  // namespace internal

/// The measurement behind every figure: runs `body(machine)` on a fresh
/// simulated machine of `cores` cores, one RegionProfiler per core, and
/// returns the analyzed run.
///
///  - A one-core run (Sections 3-9) is analyzed with AnalyzeCore(0) at
///    bandwidth scale 1.0.
///  - A multi-core run (Section 10) is analyzed with AnalyzeAll(), and
///    its region trees are attributed at that run's bandwidth scale.
///  - `multi` is AnalyzeAll() in both cases.
///  - When audit::ValidationEnabled(), the machine is armed before the
///    body and audited after it. The outcome lands in the record, and a
///    violation aborts (audit/validation.h).
///
/// The profilers are strictly per-core observers, so a body that runs
/// its cores on several OS threads under the engine::Workers::ForEach
/// contract stays bit-identical to a serial run.
template <typename Body>
ProfiledRun ProfileRun(const core::MachineConfig& cfg, uint32_t cores,
                       const RegionProfiler::Options& options,
                       const std::string& label, Body&& body) {
  core::Machine machine(cfg, cores);
  if (audit::ValidationEnabled()) audit::ArmMachine(machine);
  // Core 0's profiler lives on the stack and the rest exist only in
  // multi-core runs: simulated counters depend on heap addresses
  // (DESIGN.md §5b), so a one-core run allocates nothing here beyond the
  // profiler's own state.
  RegionProfiler first(machine.core(0), options);
  std::vector<std::unique_ptr<RegionProfiler>> rest;
  rest.reserve(cores - 1);
  for (uint32_t i = 1; i < cores; ++i) {
    rest.push_back(std::make_unique<RegionProfiler>(machine.core(i), options));
  }
  std::forward<Body>(body)(machine);
  machine.FinalizeAll();
  return internal::FinishProfiledRun(machine, first, rest, label);
}

}  // namespace uolap::obs

#endif  // UOLAP_OBS_PROFILE_RUN_H_
