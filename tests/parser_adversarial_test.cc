// Adversarial inputs for every text parser on the serving surface: the
// strict JSON reader (obs/json.h), the SLO clause grammar (obs/slo.h),
// the fault-plan grammar (server/fault.h), and the checkpoint snapshot
// codec (server/checkpoint.h). Each case must come back
// as a clean InvalidArgument-style Status — never a crash, hang, or
// unbounded recursion/allocation. CI runs this binary under ASan/UBSan,
// which turns "looks fine" stack abuse into hard failures.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "server/checkpoint.h"
#include "server/fault.h"

namespace uolap {
namespace {

// --- JSON ------------------------------------------------------------------

TEST(JsonAdversarialTest, TruncatedDocumentsFailCleanly) {
  const std::vector<std::string> truncated = {
      "",          " ",        "{",          "[",           "[1,",
      "{\"a\"",    "{\"a\":",  "{\"a\":1,",  "\"unterminated",
      "tru",       "fals",     "nul",        "-",           "1e",
      "[[[",       "{\"a\":{\"b\":",
  };
  for (const std::string& text : truncated) {
    const auto doc = obs::ParseJson(text);
    EXPECT_FALSE(doc.ok()) << "accepted truncated doc: '" << text << "'";
  }
}

TEST(JsonAdversarialTest, MalformedSyntaxFailsCleanly) {
  const std::vector<std::string> bad = {
      "{1:2}",          "[1 2]",      "{\"a\" 1}",    "[,]",
      "{,}",            "[1,]",       "{\"a\":1,}",
      "1e+",            "0x10",       "NaN",
      "Infinity",       "'single'",   "[1] trailing", "{}{}",
      "\"bad\\qescape\"",
      "\"\\u12\"",      // truncated \u escape
      "\"\\uZZZZ\"",    // non-hex \u escape
  };
  for (const std::string& text : bad) {
    const auto doc = obs::ParseJson(text);
    EXPECT_FALSE(doc.ok()) << "accepted malformed doc: '" << text << "'";
  }
}

TEST(JsonAdversarialTest, DeepNestingIsBoundedNotAStackOverflow) {
  // 100k unclosed brackets: a recursive-descent parser without a depth
  // cap would blow the stack long before reporting truncation.
  const int kDepth = 100000;
  std::string arrays(kDepth, '[');
  EXPECT_FALSE(obs::ParseJson(arrays).ok());

  std::string objects;
  for (int i = 0; i < kDepth; ++i) objects += "{\"k\":";
  EXPECT_FALSE(obs::ParseJson(objects).ok());

  // Even a fully balanced deep document must hit the depth cap cleanly.
  std::string balanced =
      std::string(kDepth, '[') + "1" + std::string(kDepth, ']');
  EXPECT_FALSE(obs::ParseJson(balanced).ok());

  // ...while reasonable nesting stays accepted.
  std::string shallow = std::string(20, '[') + "1" + std::string(20, ']');
  EXPECT_TRUE(obs::ParseJson(shallow).ok());
}

TEST(JsonAdversarialTest, HugeNumbersDoNotHang) {
  // Overflowing exponents parse to inf/error, never loop or abort.
  const std::vector<std::string> numbers = {
      "1e99999",
      "-1e99999",
      "1" + std::string(5000, '0'),
      "0." + std::string(5000, '0') + "1",
      "1e-99999",
  };
  for (const std::string& text : numbers) {
    const auto doc = obs::ParseJson(text);  // outcome may be ok or error...
    if (doc.ok()) {
      EXPECT_TRUE(doc.value().is_number());  // ...but never a crash
    }
  }
}

TEST(JsonAdversarialTest, InvalidUtf8AndControlBytesFailCleanly) {
  // Raw control characters are illegal inside JSON strings.
  EXPECT_FALSE(obs::ParseJson(std::string("\"a\x01b\"")).ok());
  EXPECT_FALSE(obs::ParseJson(std::string("\"a\nb\"")).ok());
  std::string embedded_nul = "\"a";
  embedded_nul += '\0';
  embedded_nul += "b\"";
  EXPECT_FALSE(obs::ParseJson(embedded_nul).ok());
  // Stray continuation/overlong bytes must not crash the scanner even if
  // the parser is byte-oriented enough to pass them through.
  const std::string bytes = "\"\xC0\x80\xFF\xFE\"";
  const auto doc = obs::ParseJson(bytes);
  (void)doc;  // any Status is fine; surviving under ASan is the assertion
}

TEST(JsonAdversarialTest, ErrorsCarryAByteOffset) {
  const auto doc = obs::ParseJson("{\"a\": bogus}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().ToString().find("at byte"), std::string::npos);
}

// --- SLO grammar -----------------------------------------------------------

TEST(SloAdversarialTest, MalformedClausesFailCleanly) {
  const std::vector<std::string> bad = {
      ":p99<5",          // empty subject
      "t:p98<5",         // unknown metric
      "t:p99",           // missing comparison
      "t:p99<",          // missing threshold
      "t:p99<ms",        // threshold not a number
      "t:p99<5junk",     // trailing junk after unit
      "t:p99>5",         // only '<' is in the grammar
      "t:p99<-1",        // negative threshold
      "t:p99<1e999999",  // overflowing threshold
      "tenant:qdepth<4", // qdepth demands subject '*'
      "t",               // no separator at all
      "::<",             // separators only
      std::string(1 << 16, 'x') + ":p99<5junk",  // oversized subject
  };
  for (const std::string& text : bad) {
    const auto specs = obs::ParseSloSpecs(text);
    EXPECT_FALSE(specs.ok()) << "accepted malformed SLO: '"
                             << text.substr(0, 64) << "'";
  }
  // And the happy path still round-trips.
  const auto ok = obs::ParseSloSpecs(" tenant0:p99<12.5ms , *:qdepth<32 ");
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value().size(), 2u);
  EXPECT_EQ(ok.value()[0].ToString(), "tenant0:p99<12.5ms");
}

// --- fault-plan grammar ----------------------------------------------------

TEST(FaultPlanAdversarialTest, MalformedPlansFailCleanly) {
  const std::vector<std::string> bad = {
      "=",             "seed",        "seed=",       "seed=abc",
      "seed=-1",       "seed=+1",     "seed=1,fail",
      "seed=1,fail=",  "fail=0.1",    "seed=1,fail=nan",
      "seed=1,fail=1e99999",          "seed=1,fail=-0.5",
      "seed=1,slow=2", "seed=1,x=inf","seed=1,epoch=-1",
      "unknown=1",
      std::string(1 << 16, 'k') + "=1",  // oversized key
  };
  for (const std::string& text : bad) {
    const auto plan = server::ParseFaultPlan(text);
    EXPECT_FALSE(plan.ok()) << "accepted malformed plan: '"
                            << text.substr(0, 64) << "'";
  }
  EXPECT_TRUE(server::ParseFaultPlan("").ok());
  EXPECT_TRUE(server::ParseFaultPlan("seed=7,fail=0.1,slow=0.2,x=2").ok());
}

// --- checkpoint snapshots --------------------------------------------------

TEST(SnapshotAdversarialTest, OutOfRangeMetricKindIsRejected) {
  server::CheckpointSnapshot snap;
  obs::MetricsRegistry reg;
  reg.Count("server.testing_total", 5);
  snap.metrics = reg.Snapshot();
  const std::string good = server::EncodeSnapshot(snap);
  // The kind byte follows the family name; re-seal the CRC after each
  // edit so only the kind range check stands between it and a decode.
  const std::string name = "server.testing_total";
  const size_t kind_at = good.find(name) + name.size();
  ASSERT_LT(kind_at, good.size());
  auto with_kind = [&](uint8_t kind) {
    std::string bytes = good;
    bytes[kind_at] = static_cast<char>(kind);
    const uint32_t crc =
        Crc32c(std::string_view(bytes).substr(0, bytes.size() - 4));
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    return bytes;
  };
  for (const uint8_t kind : {0, 1, 2}) {
    EXPECT_TRUE(server::DecodeSnapshot(with_kind(kind)).ok()) << int{kind};
  }
  for (const uint8_t kind : {3, 4, 0x7F, 0xFF}) {
    EXPECT_FALSE(server::DecodeSnapshot(with_kind(kind)).ok()) << int{kind};
  }
}

}  // namespace
}  // namespace uolap
