#ifndef UOLAP_HOSTBENCH_EXPECT_H_
#define UOLAP_HOSTBENCH_EXPECT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "workloads.h"

namespace uolap::hostbench {

/// The simulated counters of one pass, as checked against the first pass
/// of the run and against the benchmark's own expected values
/// (expected/counters.tsv).
///
/// Instructions, branch events and branch mispredicts (per op, via
/// `digest`) do not depend on where the host heap puts data and must match
/// exactly: a host-time change must not move them. The rest move with heap
/// layout (ASLR, and allocations that differ between passes) and are
/// checked against kAddressTolerance. That includes data accesses: an
/// access that straddles a cache line counts twice, so DBMS R's count
/// moves with where its per-query allocations land.
struct PassCounters {
  uint64_t digest = 0;  ///< FNV-1a over every op's label + exact counters
  uint64_t instructions = 0;
  uint64_t branch_events = 0;
  uint64_t branch_mispredicts = 0;
  uint64_t data_accesses = 0;
  uint64_t l1d_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t dram_lines = 0;
  uint64_t page_walks = 0;
  double sim_cycles = 0;
};

/// Largest relative drift accepted on an address-dependent pass total.
/// README.md records the drift measured between passes and processes.
inline constexpr double kAddressTolerance = 0.10;

PassCounters SummarizeCounters(const std::vector<OpOutcome>& ops);

/// Exact counters of one op, in the order the digest hashes them.
std::vector<uint64_t> ExactCounters(const core::CoreCounters& c);

/// The header line of expected/counters.tsv.
std::string ExpectedHeader();

/// One line of expected/counters.tsv for (workload, seed).
std::string FormatExpectedLine(const std::string& workload, uint64_t seed,
                               const PassCounters& c);

using ExpectedTable = std::map<std::pair<std::string, uint64_t>, PassCounters>;

/// Parses expected/counters.tsv (header line, then FormatExpectedLine
/// lines). Fails loudly on a malformed line.
StatusOr<ExpectedTable> ParseExpected(const std::string& text);

/// "" when `got` matches `want`; otherwise which counter differs.
std::string CompareCounters(const PassCounters& want, const PassCounters& got);

/// Largest relative difference between `want` and `got` over the
/// address-dependent counters, and the counter it was seen on.
struct Drift {
  double rel = 0;
  const char* counter = "";
};
Drift AddressDrift(const PassCounters& want, const PassCounters& got);

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_EXPECT_H_
