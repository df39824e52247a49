#include "harness/profile.h"

#include <gtest/gtest.h>

namespace uolap::harness {
namespace {

using core::CycleBreakdown;
using core::ProfileResult;

CycleBreakdown MakeBreakdown() {
  CycleBreakdown b;
  b.retiring = 25;
  b.branch_misp = 10;
  b.icache = 5;
  b.decoding = 5;
  b.dcache = 40;
  b.execution = 15;
  return b;
}

TEST(ProfileRowsTest, CpuCyclesRowFormatsStallAndRetiring) {
  const auto row = CpuCyclesRow("Typer p4", MakeBreakdown());
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "Typer p4");
  EXPECT_EQ(row[1], "75.0%");  // stall
  EXPECT_EQ(row[2], "25.0%");  // retiring
  EXPECT_EQ(CpuCyclesHeader("k").size(), row.size());
}

TEST(ProfileRowsTest, StallRowNormalizesToStallCycles) {
  const auto row = StallRow("x", MakeBreakdown());
  ASSERT_EQ(row.size(), 6u);
  // dcache = 40 of 75 stall cycles.
  EXPECT_EQ(row[2], "53.3%");
  EXPECT_EQ(StallHeader("k").size(), row.size());
}

TEST(ProfileRowsTest, TimeRowSplitsComponents) {
  ProfileResult r;
  r.cycles = MakeBreakdown();
  r.total_cycles = r.cycles.Total();
  r.time_ms = 10.0;
  const auto row = TimeRow("q", r);
  ASSERT_EQ(row.size(), TimeHeader("k").size());
  EXPECT_EQ(row[1], "10.0");  // total ms
  EXPECT_EQ(row[2], "2.5");   // retiring: 25 of 100 cycles -> 2.5 ms
  EXPECT_EQ(row[6], "4.0");   // dcache
}

TEST(ProfileRowsTest, NormTimeRowDividesByBase) {
  ProfileResult r;
  r.cycles = MakeBreakdown();
  r.total_cycles = r.cycles.Total();
  const auto row = NormTimeRow("q", r, /*base_cycles=*/50.0);
  EXPECT_EQ(row[1], "2.00");  // 100 / 50
  EXPECT_EQ(row[2], "0.50");  // retiring 25 / 50
}

}  // namespace
}  // namespace uolap::harness
