#include "expect.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace uolap::hostbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Fnv(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

const char kHeader[] =
    "workload\tseed\tdigest\tinstructions\tbranch_events\t"
    "branch_mispredicts\tdata_accesses\tl1d_hits\tl2_hits\tl3_hits\t"
    "dram_lines\tpage_walks\tsim_cycles";

// Below this many events a count is compared as if it were this large, so
// a handful of extra L3 hits on a tiny input is not a relative blow-up.
constexpr double kMinScale = 1e4;

double RelDiff(double want, double got) {
  return std::fabs(got - want) / std::max(std::fabs(want), kMinScale);
}

std::vector<std::pair<const char*, std::pair<double, double>>> AddressPairs(
    const PassCounters& w, const PassCounters& g) {
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"data_accesses", {d(w.data_accesses), d(g.data_accesses)}},
      {"l1d_hits", {d(w.l1d_hits), d(g.l1d_hits)}},
      {"l2_hits", {d(w.l2_hits), d(g.l2_hits)}},
      {"l3_hits", {d(w.l3_hits), d(g.l3_hits)}},
      {"dram_lines", {d(w.dram_lines), d(g.dram_lines)}},
      {"page_walks", {d(w.page_walks), d(g.page_walks)}},
      {"sim_cycles", {w.sim_cycles, g.sim_cycles}},
  };
}

}  // namespace

std::vector<uint64_t> ExactCounters(const core::CoreCounters& c) {
  return {c.mix.TotalInstructions(), c.branch_events, c.branch_mispredicts};
}

PassCounters SummarizeCounters(const std::vector<OpOutcome>& ops) {
  PassCounters s;
  s.digest = kFnvOffset;
  for (const OpOutcome& op : ops) {
    Fnv(&s.digest, op.label.data(), op.label.size());
    for (uint64_t v : ExactCounters(op.counters)) Fnv(&s.digest, &v, sizeof(v));
    const core::CoreCounters& c = op.counters;
    s.instructions += c.mix.TotalInstructions();
    s.data_accesses += c.mem.data_accesses;
    s.branch_events += c.branch_events;
    s.branch_mispredicts += c.branch_mispredicts;
    s.l1d_hits += c.mem.l1d_hits;
    s.l2_hits += c.mem.l2_hits;
    s.l3_hits += c.mem.l3_hits;
    s.dram_lines += c.mem.dram_lines;
    s.page_walks += c.mem.page_walks;
    s.sim_cycles += op.sim_cycles;
  }
  return s;
}

std::string FormatExpectedLine(const std::string& workload, uint64_t seed,
                               const PassCounters& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s\t%" PRIu64 "\t%016" PRIx64 "\t%" PRIu64 "\t%" PRIu64
                "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%.17g",
                workload.c_str(), seed, c.digest, c.instructions,
                c.branch_events, c.branch_mispredicts, c.data_accesses,
                c.l1d_hits, c.l2_hits, c.l3_hits, c.dram_lines, c.page_walks,
                c.sim_cycles);
  return buf;
}

StatusOr<ExpectedTable> ParseExpected(const std::string& text) {
  ExpectedTable table;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (lineno == 1) {
      if (line != kHeader) {
        return Status::InvalidArgument("expected counters: bad header");
      }
      continue;
    }
    if (line.empty()) continue;
    char name[64] = {};
    uint64_t seed = 0;
    PassCounters c;
    int consumed = 0;
    const int n = std::sscanf(
        line.c_str(),
        "%63[^\t]\t%" SCNu64 "\t%" SCNx64 "\t%" SCNu64 "\t%" SCNu64
        "\t%" SCNu64 "\t%" SCNu64 "\t%" SCNu64 "\t%" SCNu64 "\t%" SCNu64
        "\t%" SCNu64 "\t%" SCNu64 "\t%lg%n",
        name, &seed, &c.digest, &c.instructions, &c.branch_events,
        &c.branch_mispredicts, &c.data_accesses, &c.l1d_hits, &c.l2_hits,
        &c.l3_hits, &c.dram_lines, &c.page_walks, &c.sim_cycles, &consumed);
    if (n != 13 || static_cast<size_t>(consumed) != line.size()) {
      return Status::InvalidArgument("expected counters: malformed line " +
                                     std::to_string(lineno));
    }
    if (!table.emplace(std::make_pair(std::string(name), seed), c).second) {
      return Status::InvalidArgument("expected counters: duplicate line " +
                                     std::to_string(lineno));
    }
  }
  return table;
}

std::string CompareCounters(const PassCounters& want,
                            const PassCounters& got) {
  auto exact = [](const char* name, uint64_t w, uint64_t g) {
    return w == g ? std::string()
                  : std::string(name) + " " + std::to_string(g) +
                        " != expected " + std::to_string(w);
  };
  for (const std::string& diff :
       {exact("instructions", want.instructions, got.instructions),
        exact("branch_events", want.branch_events, got.branch_events),
        exact("branch_mispredicts", want.branch_mispredicts,
              got.branch_mispredicts),
        exact("per-op digest", want.digest, got.digest)}) {
    if (!diff.empty()) return diff;
  }
  for (const auto& [name, wg] : AddressPairs(want, got)) {
    if (RelDiff(wg.first, wg.second) > kAddressTolerance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s %.17g outside %g of expected %.17g",
                    name, wg.second, kAddressTolerance, wg.first);
      return buf;
    }
  }
  return "";
}

Drift AddressDrift(const PassCounters& want, const PassCounters& got) {
  Drift d;
  for (const auto& [name, wg] : AddressPairs(want, got)) {
    const double rel = RelDiff(wg.first, wg.second);
    if (rel > d.rel) d = {rel, name};
  }
  return d;
}

std::string ExpectedHeader() { return kHeader; }

}  // namespace uolap::hostbench
