// End-to-end validation-layer test: drives real workloads through
// obs::ProfileRun with validation enabled and asserts the clean path (zero
// violations, checks recorded, audit results landing in the RunRecord and
// the exported JSON). The per-rule failure paths live in
// audit_invariants_test.cc; this file covers the wiring around them.

#include <gtest/gtest.h>

#include <string>

#include "audit/validation.h"
#include "core/config.h"
#include "core/machine.h"
#include "engine/engine.h"
#include "obs/profile_export.h"
#include "obs/profile_run.h"
#include "obs/record.h"

namespace uolap::obs {
namespace {

using core::MachineConfig;
using engine::Workers;

/// Restores the process-wide validation switches on scope exit so test
/// order never matters.
class ValidationGuard {
 public:
  ValidationGuard()
      : enabled_(audit::ValidationEnabled()),
        abort_(audit::AbortOnViolation()) {}
  ~ValidationGuard() {
    audit::SetValidationEnabled(enabled_);
    audit::SetAbortOnViolation(abort_);
  }

 private:
  bool enabled_;
  bool abort_;
};

/// A workload exercising scans, scattered probes, branches, and retire.
void Workload(core::Core& core) {
  core.LoadSeq(reinterpret_cast<const void*>(uint64_t{1} << 21), 8, 8192);
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t addr =
        (uint64_t{1} << 27) + (i * 2654435761ull) % (uint64_t{1} << 23);
    core.Load(reinterpret_cast<const void*>(addr), 8);
    core.Branch(/*site_id=*/11, (i & 7) < 3);
  }
  core::InstrMix m;
  m.alu = 4096;
  core.Retire(m);
}

/// One validated-or-not ProfileRun of Workload on every core.
RunRecord ProfileWorkload(uint32_t cores, const std::string& label) {
  return ProfileRun(MachineConfig::Broadwell(), cores, {}, label,
                    [](core::Machine& m) {
                      const Workers w(m);
                      w.ForEach([&](size_t t) { Workload(*w.cores[t]); });
                    })
      .record;
}

TEST(AuditValidationE2eTest, OneAndManyCoresCleanUnderValidation) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  // Zero violations expected; abort-on-violation armed makes a regression
  // here fail loudly rather than quietly producing a wrong figure.
  for (const uint32_t cores : {1u, 2u}) {
    const RunRecord run = ProfileWorkload(cores, "e2e");
    ASSERT_EQ(run.cores.size(), cores);
    EXPECT_GT(run.cores[0].whole.total_cycles, 0.0);
    EXPECT_TRUE(run.audited);
    EXPECT_TRUE(run.violations.empty());
  }
}

TEST(AuditValidationE2eTest, ObsRunCarriesAuditResults) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  const RunRecord run = ProfileWorkload(1, "e2e");
  EXPECT_TRUE(run.audited);
  EXPECT_GT(run.audit_checks, 0u);
  EXPECT_TRUE(run.violations.empty());
}

TEST(AuditValidationE2eTest, ObsRunNotAuditedWhenDisabled) {
  ValidationGuard guard;
  audit::SetValidationEnabled(false);
  const RunRecord run = ProfileWorkload(1, "off");
  EXPECT_FALSE(run.audited);
  EXPECT_EQ(run.audit_checks, 0u);
}

TEST(AuditValidationE2eTest, AuditResultsReachProfileJson) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  ProfileSession session;
  session.bench = "e2e";
  session.machine = "broadwell";
  session.freq_ghz = MachineConfig::Broadwell().freq_ghz;
  session.runs.push_back(ProfileWorkload(1, "json"));
  const std::string json = ProfileToJson(session);
  EXPECT_NE(json.find("\"audit\": {"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": []"), std::string::npos);
}

}  // namespace
}  // namespace uolap::obs
