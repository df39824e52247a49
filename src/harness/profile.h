#ifndef UOLAP_HARNESS_PROFILE_H_
#define UOLAP_HARNESS_PROFILE_H_

#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/topdown.h"
#include "obs/region_profiler.h"

namespace uolap::harness {

// --- standard row formats shared by the figure tables ---------------------

/// Header/row pair for the paper's "CPU cycles breakdown" bars
/// (Stall vs Retiring).
std::vector<std::string> CpuCyclesHeader(const std::string& key_name);
std::vector<std::string> CpuCyclesRow(const std::string& key,
                                      const core::CycleBreakdown& b);

/// Header/row pair for the paper's "stall cycles breakdown" bars
/// (five components normalized to total stall cycles).
std::vector<std::string> StallHeader(const std::string& key_name);
std::vector<std::string> StallRow(const std::string& key,
                                  const core::CycleBreakdown& b);

/// Header/row for response-time breakdowns in milliseconds (Figures that
/// plot absolute or normalized time with the component split inside).
std::vector<std::string> TimeHeader(const std::string& key_name);
std::vector<std::string> TimeRow(const std::string& key,
                                 const core::ProfileResult& r);
/// Same but normalized against `base_cycles` (e.g. Figure 6/14/22/25).
std::vector<std::string> NormTimeRow(const std::string& key,
                                     const core::ProfileResult& r,
                                     double base_cycles);

/// Per-operator Top-Down table for an analyzed region tree: one indented
/// row per node with its exclusive cycle share, IPC, and the six-component
/// breakdown (as fractions of the node's exclusive cycles). The exclusive
/// cycle column sums to the whole-run total — the tentpole invariant that
/// makes the per-operator view a true decomposition.
TablePrinter RegionTable(const std::string& title,
                         const obs::RegionTree& tree);

}  // namespace uolap::harness

#endif  // UOLAP_HARNESS_PROFILE_H_
