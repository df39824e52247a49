// Tests of crash-consistent serving (DESIGN.md §10). The headline test
// forks three children off one parent image — an uninterrupted run, a
// run killed by --crash-at mid-flight, and a resumed run — and asserts
// the resumed child's profile JSON is byte-identical to the
// uninterrupted one. Around it: CRC32C known-answer vectors, journal
// framing and torn-tail tolerance, snapshot encode/decode round-trips,
// pinned snapshot/journal/fingerprint bytes, bit-exact MetricsRegistry
// restore, and the recovery failure modes (missing directory, corrupt
// newest snapshot, nothing valid at all, out-of-range restored indices).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "obs/metrics.h"
#include "obs/profile_export.h"
#include "obs/slo.h"
#include "server/checkpoint.h"
#include "server/fault.h"
#include "server/journal.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

namespace uolap::server {
namespace {

/// Gives each test a fresh mkdtemp directory and removes it, with
/// everything in it, when the test ends. Forked children leave through
/// _Exit, so only the test process ever removes the directory.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/uolap_ckpt_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr) << "mkdtemp failed";
    dir_ = tmpl;
  }
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  /// The test's directory (no trailing slash).
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The canonical Castagnoli check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string_view("")), 0u);
  // 32 zero bytes, another published vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(std::string_view(zeros)), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(std::string_view(data));
  uint32_t chained = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    chained = Crc32c(data.data() + i, n, chained);
  }
  EXPECT_EQ(chained, whole);
}

// --- journal framing -------------------------------------------------------

class JournalTest : public TempDirTest {
 protected:
  void SetUp() override {
    ASSERT_NO_FATAL_FAILURE(TempDirTest::SetUp());
    path_ = dir() + "/j.wal";
  }
  std::string path_;
};

TEST_F(JournalTest, RoundTripsRecords) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  const std::vector<std::string> records = {
      "alpha", "", std::string("b\0c\xff" "d", 5), std::string(1000, 'x')};
  for (const std::string& r : records) {
    ASSERT_TRUE(w.AppendRecord(r).ok());
  }
  ASSERT_TRUE(w.Close().ok());

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, records);
  EXPECT_FALSE(read.value().torn_tail);
  const auto size = FileSize(path_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(read.value().valid_bytes, size.value());
}

TEST_F(JournalTest, MissingFileIsNotFound) {
  const auto read = ReadJournal(path_);
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(JournalTest, TornTailIsDetectedNotReplayed) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("keep-me").ok());
  ASSERT_TRUE(w.AppendRecord("and-me").ok());
  ASSERT_TRUE(w.Close().ok());
  const uint64_t clean_bytes = FileSize(path_).value();

  // A kill mid-append leaves a truncated frame: garbage header bytes.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn", f);
  std::fclose(f);

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads,
            (std::vector<std::string>{"keep-me", "and-me"}));
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_FALSE(read.value().tail_error.empty());
  EXPECT_EQ(read.value().valid_bytes, clean_bytes);
}

TEST_F(JournalTest, CorruptPayloadCrcIsDetected) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("first").ok());
  ASSERT_TRUE(w.AppendRecord("second").ok());
  ASSERT_TRUE(w.Close().ok());

  // Flip one byte inside the *last* frame's payload.
  auto content = ReadFileToString(path_);
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  bytes[bytes.size() - 1] ^= 0x40;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, (std::vector<std::string>{"first"}));
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_NE(read.value().tail_error.find("CRC"), std::string::npos);
}

TEST_F(JournalTest, AbsurdFrameLengthIsCorruptionNotAllocation) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t huge = 0xFFFFFFFFu;
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fclose(f);
  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().payloads.empty());
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_NE(read.value().tail_error.find("frame limit"), std::string::npos);
}

TEST_F(JournalTest, OpenForAppendTruncatesTornTail) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("one").ok());
  ASSERT_TRUE(w.Close().ok());
  const uint64_t clean_bytes = FileSize(path_).value();
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("xxxx-torn-tail", f);
  std::fclose(f);

  JournalWriter again;
  ASSERT_TRUE(again.OpenForAppend(path_, clean_bytes).ok());
  ASSERT_TRUE(again.AppendRecord("two").ok());
  ASSERT_TRUE(again.Close().ok());

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(read.value().torn_tail);
}

// --- journal events --------------------------------------------------------

TEST(JournalEventTest, EncodeDecodeRoundTrips) {
  JournalEvent ev;
  ev.type = JournalEventType::kTimeout;
  ev.seq = 0x0123456789ABCDEFull;
  ev.tenant = 3;
  ev.attempt = 2;
  ev.vtime_ms = 12.34375;
  const std::string payload = EncodeJournalEvent(ev);
  const auto back = DecodeJournalEvent(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), ev);
}

TEST(JournalEventTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeJournalEvent("").ok());
  EXPECT_FALSE(DecodeJournalEvent("short").ok());
  std::string payload = EncodeJournalEvent(JournalEvent{});
  payload[0] = 99;  // no such event type
  EXPECT_FALSE(DecodeJournalEvent(payload).ok());
  payload.push_back('\0');  // trailing junk
  EXPECT_FALSE(DecodeJournalEvent(payload).ok());
}

// --- snapshot encode/decode ------------------------------------------------

// The sample gives every field of every persisted struct a distinct
// non-default value (bools alternate across instances): a codec that
// drops, reorders or swaps two same-typed fields changes the pinned
// bytes, and a writer/reader mismatch breaks decoded == original.
QueryInstance SampleInstance(int k) {
  QueryInstance q;
  q.tenant = k;
  q.cls = 10 + static_cast<uint64_t>(k);
  q.client = 20 + k;
  q.seq = 1000 + static_cast<uint64_t>(k);
  q.sampled = k % 2 == 1;
  q.arrival = 100.5 + k;
  q.start = 101.25 + k;
  q.remaining = 0.375 + k / 64.0;
  q.scale_cycles = 7e5 + k;
  q.run_cycles = 8e5 + k;
  q.attempt = 3 + k;
  q.deadline = 9e6 + k;
  q.est_ms = 2.125 + k;
  q.cancel_remaining = 0.0625 + k / 128.0;
  q.retry_ready = 5e5 + k;
  q.will_fail = k % 2 == 0;
  q.slow = 1.75 + k;
  return q;
}

TenantLoopState SampleTenant(int k) {
  const uint64_t b = 100 * static_cast<uint64_t>(k);
  TenantLoopState t;
  t.rng = Rng(99 + b);
  t.rng.Next();
  t.cap = b + 1;
  t.submitted = b + 2;
  t.completed = b + 3;
  t.rejected = b + 4;
  t.shed = b + 5;
  t.timed_out = b + 6;
  t.failed = b + 7;
  t.retries = b + 8;
  t.next_open_arrival = 3.5e6 + k;
  t.client_wake = {1.5 + k, 2.5 + k};
  t.zipf_cdf = {0.25 + k / 8.0, 1.0};
  t.latencies_ms = {4.5 + k, 5.5 + k, 6.5 + k};
  t.histogram = {b + 9, b + 10};
  return t;
}

obs::WindowStat SampleWindow(const std::string& subject, int k) {
  obs::WindowStat w;
  w.subject = subject;
  w.completed = 30 + static_cast<uint64_t>(k);
  w.p50_ms = 1.125 + k;
  w.p95_ms = 2.25 + k;
  w.p99_ms = 3.375 + k;
  return w;
}

obs::MetricFamily SampleFamily(const std::string& name, obs::MetricKind kind,
                               int k) {
  obs::MetricFamily f;
  f.name = name;
  f.kind = kind;
  for (int i = 0; i < 2; ++i) {
    obs::MetricSeries s;
    s.label_key = "tenant";
    s.label_value = "t" + std::to_string(k) + std::to_string(i);
    s.counter = 40 + static_cast<uint64_t>(10 * k + i);
    s.gauge = 4.5 + k + i;
    s.histogram.buckets = {static_cast<uint64_t>(k + 1), 2, 3};
    s.histogram.count = 50 + static_cast<uint64_t>(k);
    s.histogram.sum_micro = 6000000 + static_cast<uint64_t>(k);
    f.series.push_back(std::move(s));
  }
  return f;
}

CheckpointSnapshot SampleSnapshot() {
  CheckpointSnapshot snap;
  snap.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
  snap.class_digest = 0x1234ABCDu;
  snap.epoch_index = 7;
  snap.freq_ghz = 2.2;

  LoopState& st = snap.state;
  st.vtime = 1.5e9;
  st.tenants = {SampleTenant(0), SampleTenant(1)};
  for (int c = 0; c < 2; ++c) {
    ClassLoopStats cs;
    cs.executions = 60 + static_cast<uint64_t>(c);
    cs.service_cycles = 6.25e5 + c;
    cs.scale_cycles = 6.5e5 + c;
    cs.run_cycles = 6.75e5 + c;
    st.classes.push_back(cs);
  }
  st.slots = {SampleInstance(0), SampleInstance(1)};
  st.queue = {SampleInstance(2), SampleInstance(3)};
  st.retry_queue = {SampleInstance(4)};
  st.queue_head = 1;
  st.queued_est_ms = 8.5;
  st.faults_injected = 71;
  st.slowdowns_injected = 72;
  st.brownout_downgrades = 73;
  st.total_bytes = 9.75e8;
  st.peak_gbps = 11.5;
  st.saturated = true;
  st.timeline = {obs::QueueSample{0.5, 1, 2}, obs::QueueSample{1.5, 3, 4}};
  st.engine_latencies = {{"rowstore", {12.5, 13.5}}, {"typer", {14.5}}};
  st.seq_counter = 74;
  for (int i = 0; i < 2; ++i) {
    obs::QuerySpan span;
    span.seq = 80 + static_cast<uint64_t>(i);
    span.tenant = "tenant" + std::to_string(i);
    span.cls = "typer/q" + std::to_string(i);
    span.arrival_ms = 15.5 + i;
    span.start_ms = 16.5 + i;
    span.end_ms = 17.5 + i;
    span.core = 1 + i;
    span.outcome = i == 0 ? "shed" : "timed_out";
    span.attempts = 2 + static_cast<uint32_t>(i);
    st.spans.push_back(span);
  }
  st.all_latencies = {18.5, 19.5, 20.5};
  st.cur_running = 75;
  st.cur_queued = 76;
  st.peak_queued = 77;
  st.acc.lat = {21.5, 22.5};
  st.acc.tenant_lat = {{"scans", {23.5}}, {"adhoc", {24.5, 25.5}}};
  st.acc.class_lat = {{"typer/q6", {26.5, 27.5}}};
  st.acc.max_running = 78;
  st.acc.max_queued = 79;
  st.epoch_index = 9;
  st.epoch_start = 2.75e6;
  for (int e = 0; e < 2; ++e) {
    obs::EpochRecord rec;
    rec.index = 5 + e;
    rec.start_ms = 28.5 + e;
    rec.end_ms = 29.75 + e;
    rec.completed = 90 + static_cast<uint64_t>(e);
    rec.p50_ms = 30.5 + e;
    rec.p95_ms = 31.5 + e;
    rec.p99_ms = 32.5 + e;
    rec.max_running = 92 + static_cast<uint32_t>(e);
    rec.max_queued = 94 + static_cast<uint32_t>(e);
    rec.tenants = {SampleWindow("adhoc", e), SampleWindow("scans", e + 2)};
    rec.classes = {SampleWindow("typer/q6", e + 4)};
    st.epochs.push_back(rec);
  }

  snap.admission_models = {AdmissionController::ClassModel{3.25, 9},
                           AdmissionController::ClassModel{4.75, 11}};
  snap.metrics.families = {
      SampleFamily("server.depth", obs::MetricKind::kGauge, 0),
      SampleFamily("server.latency_ms", obs::MetricKind::kHistogram, 1),
      SampleFamily("server.queries_total", obs::MetricKind::kCounter, 2)};
  return snap;
}

TEST(SnapshotTest, EncodeDecodeRoundTripsBitExactly) {
  const CheckpointSnapshot snap = SampleSnapshot();
  const std::string bytes = EncodeSnapshot(snap);
  const auto back = DecodeSnapshot(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), snap);
  EXPECT_EQ(EncodeSnapshot(back.value()), bytes);
}

// The on-disk format is pinned: an old checkpoint must keep resuming, so
// these goldens never move without a kSnapshotVersion bump.
TEST(SnapshotFormatTest, SnapshotBytesArePinned) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());
  EXPECT_EQ(bytes.size(), 2515u);
  // The CRC of the bytes before the trailing CRC32C, i.e. the stored CRC.
  // A CRC over the whole file, its own CRC included, is one constant for
  // every well-formed snapshot and would pin nothing.
  EXPECT_EQ(Crc32c(std::string_view(bytes).substr(0, bytes.size() - 4)),
            0x9E699A66u);
}

TEST(SnapshotFormatTest, JournalEventBytesArePinned) {
  constexpr std::array<uint32_t, 7> kCrc = {
      0xD9A6DE50u, 0x39E51793u, 0x419303EFu, 0xD4EADB76u,
      0x7F85897Cu, 0x891ACA77u, 0x1A466308u};
  for (uint8_t t = 1; t <= 7; ++t) {
    JournalEvent ev;
    ev.type = static_cast<JournalEventType>(t);
    ev.seq = 0x0102030405060708ull * t;
    ev.tenant = 10 + t;
    ev.attempt = 20u + t;
    ev.vtime_ms = 1.5 * t;
    const std::string payload = EncodeJournalEvent(ev);
    EXPECT_EQ(payload.size(), 25u) << JournalEventTypeName(ev.type);
    EXPECT_EQ(Crc32c(std::string_view(payload)), kCrc[t - 1u])
        << JournalEventTypeName(ev.type);
    const auto back = DecodeJournalEvent(payload);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), ev);
  }
}

TEST(SnapshotFormatTest, ServingConfigFingerprintIsPinned) {
  ServerConfig config;
  config.machine = core::MachineConfig::Broadwell();
  config.cores = 3;
  config.default_max_queries = 40;
  config.epoch_ms = 2.5;
  config.trace_sample_n = 4;
  config.slos = obs::ParseSloSpecs("*:p99<50ms,scans:p95<20ms").value();
  config.admission.policy = ShedPolicy::kBoth;
  config.admission.default_deadline_ms = 30;
  config.admission.safety_factor = 1.25;
  config.admission.tenant_shed_quota = 6;
  config.admission.protect_priority = 2;
  config.retry.max_retries = 2;
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_multiplier = 3;
  config.retry.backoff_jitter = 0.25;
  config.brownout.queue_depth = 5;
  config.brownout.downgrade = {{"rowstore", "typer"}};
  config.faults = ParseFaultPlan("seed=7,fail=0.1,slow=0.2,x=2,epoch=3")
                      .value();
  config.checkpoint.every_epochs = 4;
  TenantConfig scans;
  scans.name = "scans";
  scans.engine = "typer";
  scans.catalog = {engine::QuerySpec::Projection(4),
                   engine::QuerySpec::Q6(engine::MakeQ6Params())};
  scans.zipf_s = 0.5;
  scans.concurrency = 3;
  scans.think_ms = 0.05;
  scans.max_queries = 12;
  scans.seed = 7;
  scans.priority = 1;
  TenantConfig adhoc;
  adhoc.name = "adhoc";
  adhoc.engine = "rowstore";
  adhoc.catalog = {engine::QuerySpec::Projection(2)};
  adhoc.arrival_qps = 400;
  adhoc.seed = 8;
  EXPECT_EQ(ServingConfigFingerprint(config, {scans, adhoc}),
            0xEE96FFFB8858A451ull);
}

TEST(SnapshotTest, DetectsCorruptionTruncationAndWrongMagic) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());

  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeSnapshot(flipped).ok());

  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(DecodeSnapshot("").ok());

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(wrong_magic).ok());
}

// --- MetricsRegistry::Restore ----------------------------------------------

TEST(MetricsRestoreTest, SnapshotAfterRestoreIsIdentical) {
  obs::MetricsRegistry reg;
  reg.Count("server.queries_total", 3);
  reg.Count("server.queries_total", "tenant", "t0", 2);
  reg.SetGauge("server.depth", 4.5);
  // Values with fractional micro-parts: Restore must keep the
  // fixed-point sum_micro bit for bit, not re-round through doubles.
  reg.Observe("server.latency_ms", 0.123456);
  reg.Observe("server.latency_ms", 7.654321);
  const obs::MetricsSnapshot snap = reg.Snapshot();

  obs::MetricsRegistry fresh;
  fresh.Count("server.other_total", 1);  // must be dropped by Restore
  fresh.Restore(snap);
  EXPECT_EQ(fresh.Snapshot(), snap);

  // And restored registries keep accumulating correctly.
  fresh.Count("server.queries_total", 1);
  const obs::MetricsSnapshot after = fresh.Snapshot();
  EXPECT_EQ(after.Find("server.queries_total")->series[0].counter, 4u);
}

// --- end-to-end kill and resume --------------------------------------------

class CheckpointServeTest : public TempDirTest {
 protected:
  static void SetUpTestSuite() {
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    registry_ = new engine::EngineRegistry(*db_);
    harness::RegisterBuiltinEngines(*registry_);
  }

  static ServerConfig BaseConfig() {
    ServerConfig config;
    config.machine = core::MachineConfig::Broadwell();
    config.cores = 2;
    config.default_max_queries = 8;
    config.epoch_ms = 1.0;
    return config;
  }

  static void AddTenants(Server& server) {
    TenantConfig t;
    t.name = "scans";
    t.engine = "typer";
    t.catalog = {engine::QuerySpec::Projection(4),
                 engine::QuerySpec::Q6(engine::MakeQ6Params())};
    t.zipf_s = 0.5;
    t.concurrency = 3;
    t.think_ms = 0.05;
    t.seed = 7;
    server.AddTenant(t);
    TenantConfig u;
    u.name = "adhoc";
    u.engine = "rowstore";
    u.catalog = {engine::QuerySpec::Projection(2)};
    u.arrival_qps = 400;
    u.seed = 8;
    server.AddTenant(u);
  }

  struct ChildSpec {
    CheckpointConfig ckpt;
    std::string json_path;
    /// When non-empty the child also writes its final virtual clock (ms)
    /// as text, so tests can prove a crash point landed mid-run.
    std::string vtime_path;
  };

  /// Forks one serving child per spec, all back-to-back off a single
  /// parent image, each parked on a pipe until released. The solo class
  /// simulations are address-sensitive (real buffers feed the cache
  /// model), so children whose outputs are byte-compared must inherit an
  /// identical heap layout — forking them before the parent touches the
  /// heap again guarantees that; sequential fork-per-run does not.
  class ChildGroup {
   public:
    explicit ChildGroup(std::vector<ChildSpec> specs)
        : specs_(std::move(specs)),
          pids_(specs_.size(), -1),
          ran_(specs_.size(), false),
          pipes_(specs_.size(), std::array<int, 2>{-1, -1}) {
      for (auto& p : pipes_) {
        if (pipe(p.data()) != 0) {
          ADD_FAILURE() << "pipe() failed";
          return;
        }
      }
      // No heap allocation between here and the last fork.
      for (size_t i = 0; i < specs_.size(); ++i) {
        const pid_t pid = fork();
        if (pid == 0) {
          char go = 0;
          while (read(pipes_[i][0], &go, 1) != 1) {
          }
          ChildMain(specs_[i]);
        }
        pids_[i] = pid;
      }
    }

    ~ChildGroup() {
      for (size_t i = 0; i < pids_.size(); ++i) {
        if (pids_[i] > 0 && !ran_[i]) {
          kill(pids_[i], SIGKILL);
          waitpid(pids_[i], nullptr, 0);
        }
        if (pipes_[i][0] >= 0) close(pipes_[i][0]);
        if (pipes_[i][1] >= 0) close(pipes_[i][1]);
      }
    }

    /// Releases child `i`, waits for it, and returns its exit code.
    int Run(size_t i) {
      EXPECT_LT(i, pids_.size());
      EXPECT_FALSE(ran_[i]);
      ran_[i] = true;
      EXPECT_EQ(write(pipes_[i][1], "g", 1), 1);
      int status = 0;
      EXPECT_EQ(waitpid(pids_[i], &status, 0), pids_[i]);
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

   private:
    [[noreturn]] static void ChildMain(const ChildSpec& spec) {
      ServerConfig config = BaseConfig();
      config.checkpoint = spec.ckpt;
      obs::MetricsRegistry metrics;
      config.metrics = &metrics;
      Server server(config, *registry_);
      AddTenants(server);
      StatusOr<ServeResult> run = server.TryRun();
      if (!run.ok()) {
        // The failure lands where the profile would have, so tests can
        // assert on why the run refused.
        const std::string why = run.status().ToString();
        std::fprintf(stderr, "child: %s\n", why.c_str());
        std::_Exit(obs::WriteTextFile(spec.json_path, why).ok() ? 3 : 4);
      }
      obs::ProfileSession session;
      session.bench = "server_checkpoint_test";
      session.machine = "sim-broadwell-2.2GHz";
      session.freq_ghz = config.machine.freq_ghz;
      session.scale_factor = 0.01;
      session.seed = 42;
      session.server = run.value().record;
      for (obs::RunRecord& r : run.value().class_runs) {
        session.runs.push_back(std::move(r));
      }
      session.metrics = metrics.Snapshot();
      const Status written =
          obs::WriteTextFile(spec.json_path, obs::ProfileToJson(session));
      if (!written.ok()) std::_Exit(4);
      if (!spec.vtime_path.empty()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g\n",
                      run.value().record.vtime_ms);
        if (!obs::WriteTextFile(spec.vtime_path, buf).ok()) std::_Exit(4);
      }
      std::_Exit(0);
    }

    std::vector<ChildSpec> specs_;
    std::vector<pid_t> pids_;
    std::vector<bool> ran_;
    std::vector<std::array<int, 2>> pipes_;
  };

  /// Single-child convenience for tests without byte comparisons.
  static int RunChild(const CheckpointConfig& ckpt,
                      const std::string& json_path,
                      const std::string& vtime_path = "") {
    ChildGroup group({{ckpt, json_path, vtime_path}});
    return group.Run(0);
  }

  static std::string MustRead(const std::string& path) {
    auto content = ReadFileToString(path);
    EXPECT_TRUE(content.ok()) << content.status().ToString();
    return content.ok() ? content.value() : std::string();
  }

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* CheckpointServeTest::db_ = nullptr;
engine::EngineRegistry* CheckpointServeTest::registry_ = nullptr;

TEST_F(CheckpointServeTest, KillAndResumeIsByteIdentical) {
  const std::string& tmp = dir();

  // A: uninterrupted, checkpointing on. B: the same run killed mid-flight
  // by --crash-at. C: resume from B's checkpoint directory and finish.
  CheckpointConfig a;
  a.dir = tmp + "/ck_a";
  a.every_epochs = 2;
  CheckpointConfig b;
  b.dir = tmp + "/ck_b";
  b.every_epochs = 2;
  b.crash_at_ms = 40.0;
  CheckpointConfig c;
  c.dir = tmp + "/ck_b";
  c.every_epochs = 2;
  c.resume = true;
  ChildGroup group({{a, tmp + "/a.json", tmp + "/a.vtime"},
                    {b, tmp + "/b.json", ""},
                    {c, tmp + "/c.json", ""}});

  ASSERT_EQ(group.Run(0), 0);
  // A reports its final vtime, proving B's kill landed mid-run.
  const double total_ms = std::stod(MustRead(tmp + "/a.vtime"));
  ASSERT_GT(total_ms, b.crash_at_ms + 1.0);
  ASSERT_EQ(group.Run(1), 137);
  ASSERT_EQ(group.Run(2), 0);

  const std::string uninterrupted = MustRead(tmp + "/a.json");
  const std::string resumed = MustRead(tmp + "/c.json");
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(resumed, uninterrupted)
      << "resumed profile JSON must be byte-identical to the "
         "uninterrupted run's";
  // The killed child must not have produced a profile at all.
  EXPECT_EQ(ReadFileToString(tmp + "/b.json").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointServeTest, ResumeDiscardsTornJournalTailLoudly) {
  const std::string& tmp = dir();
  CheckpointConfig ref;
  ref.dir = tmp + "/ck_a";
  ref.every_epochs = 4;
  CheckpointConfig crash;
  crash.dir = tmp + "/ck_b";
  crash.every_epochs = 4;
  crash.crash_at_ms = 1.6;  // between epoch-boundary snapshots
  CheckpointConfig resume;
  resume.dir = crash.dir;
  resume.every_epochs = 4;
  resume.resume = true;
  ChildGroup group({{ref, tmp + "/a.json", ""},
                    {crash, tmp + "/b.json", ""},
                    {resume, tmp + "/c.json", ""}});

  ASSERT_EQ(group.Run(0), 0);
  ASSERT_EQ(group.Run(1), 137);

  // Corrupt the tail of the journal paired with the newest snapshot —
  // the bytes a real kill could have half-written.
  const auto summary = InspectCheckpointDir(crash.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().resume_index, 0);
  const std::string active =
      crash.dir + "/" + JournalFileName(summary.value().resume_index);
  std::FILE* f = std::fopen(active.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("GARBAGE-TAIL", f);
  std::fclose(f);

  ASSERT_EQ(group.Run(2), 0);
  EXPECT_EQ(MustRead(tmp + "/c.json"), MustRead(tmp + "/a.json"));
}

TEST_F(CheckpointServeTest, ResumeSkipsCorruptNewestSnapshot) {
  const std::string& tmp = dir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  CheckpointConfig resume = base;
  resume.resume = true;
  ChildGroup group({{base, tmp + "/a.json", ""}, {resume, tmp + "/c.json", ""}});
  ASSERT_EQ(group.Run(0), 0);

  const auto summary = InspectCheckpointDir(base.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().snapshots.size(), 2u);
  // Corrupt the newest snapshot's interior; recovery must fall back to
  // the next older one and still converge to the identical profile.
  const std::string newest =
      base.dir + "/" + SnapshotFileName(summary.value().resume_index);
  std::FILE* f = std::fopen(newest.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 64, SEEK_SET);
  std::fputs("\xde\xad\xbe\xef", f);
  std::fclose(f);

  ASSERT_EQ(group.Run(1), 0);
  EXPECT_EQ(MustRead(tmp + "/c.json"), MustRead(tmp + "/a.json"));
}

TEST_F(CheckpointServeTest, ResumeFailsCleanlyWithoutACheckpoint) {
  const std::string& tmp = dir();
  ServerConfig config = BaseConfig();
  config.checkpoint.dir = tmp + "/empty";
  config.checkpoint.resume = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(config, *registry_);
  AddTenants(server);
  const StatusOr<ServeResult> run = server.TryRun();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointServeTest, ResumeRejectsAMismatchedConfiguration) {
  const std::string& tmp = dir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  base.crash_at_ms = 1.6;
  ASSERT_EQ(RunChild(base, tmp + "/a.json"), 137);

  // Same directory, different serving configuration: recovery must
  // refuse rather than resume into divergence.
  ServerConfig config = BaseConfig();
  config.default_max_queries = 16;  // fingerprint-relevant change
  config.checkpoint.dir = base.dir;
  config.checkpoint.resume = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(config, *registry_);
  AddTenants(server);
  const StatusOr<ServeResult> run = server.TryRun();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointServeTest, ResumeRejectsOutOfRangeRestoredIndices) {
  // Each case decodes a real snapshot, corrupts one value the loop uses
  // as an index, and re-encodes it with a valid CRC. Resume must refuse
  // with a message naming the corrupted value instead of reading out of
  // bounds.
  using Corrupt = void (*)(CheckpointSnapshot&);
  struct Case {
    const char* name;  ///< must appear in the failure message
    Corrupt corrupt;
  };
  // Valid except for what each case changes: "adhoc" (tenant 1) is
  // open-loop, so client -1.
  static const auto valid = [](const CheckpointSnapshot& s) {
    QueryInstance q;
    q.tenant = 1;
    q.cls = s.state.classes.size() - 1;
    return q;
  };
  const std::vector<Case> cases = {
      {"slots[0].cls",
       [](CheckpointSnapshot& s) {
         s.state.slots[0] = valid(s);
         s.state.slots[0].cls = s.state.classes.size();
       }},
      {"queue[0].cls",
       [](CheckpointSnapshot& s) {
         s.state.queue.insert(s.state.queue.begin(), valid(s));
         s.state.queue[0].cls = s.state.classes.size();
       }},
      {"retry_queue[0].cls",
       [](CheckpointSnapshot& s) {
         s.state.retry_queue.insert(s.state.retry_queue.begin(), valid(s));
         s.state.retry_queue[0].cls = s.state.classes.size() + 7;
       }},
      {"queue[0].tenant",
       [](CheckpointSnapshot& s) {
         s.state.queue.insert(s.state.queue.begin(), valid(s));
         s.state.queue[0].tenant = 2;
       }},
      {"slots[0].client",
       [](CheckpointSnapshot& s) {
         s.state.slots[0] = valid(s);
         s.state.slots[0].tenant = 0;  // "scans": three closed-loop clients
         s.state.slots[0].client = 3;
       }},
      {"queue_head",
       [](CheckpointSnapshot& s) {
         s.state.queue_head = s.state.queue.size() + 1;
       }},
      {"tenants[0].zipf_cdf",
       [](CheckpointSnapshot& s) { s.state.tenants[0].zipf_cdf.pop_back(); }},
      {"admission_models",
       [](CheckpointSnapshot& s) { s.admission_models.pop_back(); }},
  };

  // Child 0 writes the checkpoints; child i > 0 resumes case i - 1. All
  // paths have one length, so every child allocates the same heap layout
  // and simulates the same class profiles (the class digest guard).
  const std::string& tmp = dir();
  std::vector<ChildSpec> specs;
  for (size_t i = 0; i <= cases.size(); ++i) {
    const std::string id = std::to_string(10 + i);
    CheckpointConfig ckpt;
    ckpt.dir = tmp + "/ck" + id;
    ckpt.every_epochs = 2;
    ckpt.resume = i > 0;
    specs.push_back({ckpt, tmp + "/out" + id + ".txt", ""});
  }
  const CheckpointConfig& base = specs[0].ckpt;
  ChildGroup group(specs);
  ASSERT_EQ(group.Run(0), 0);

  const auto summary = InspectCheckpointDir(base.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().resume_index, 0);
  const std::string bytes = MustRead(
      base.dir + "/" + SnapshotFileName(summary.value().resume_index));
  const auto original = DecodeSnapshot(bytes);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_GE(original.value().state.classes.size(), 1u);

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    CheckpointSnapshot crafted = original.value();
    cases[i].corrupt(crafted);
    ASSERT_TRUE(WriteSnapshotFile(specs[i + 1].ckpt.dir, crafted).ok());
    ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(crafted)).ok());
    EXPECT_EQ(group.Run(i + 1), 3);
    const std::string why = MustRead(specs[i + 1].json_path);
    EXPECT_NE(why.find("FailedPrecondition"), std::string::npos) << why;
    EXPECT_NE(why.find(cases[i].name), std::string::npos) << why;
  }
}

TEST_F(CheckpointServeTest, InspectSummarizesTheDirectory) {
  const std::string& tmp = dir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  ASSERT_EQ(RunChild(base, tmp + "/a.json"), 0);

  const auto summary = InspectCheckpointDir(base.dir);
  ASSERT_TRUE(summary.ok());
  EXPECT_GE(summary.value().snapshots.size(), 1u);
  EXPECT_GE(summary.value().resume_index, 0);
  for (const SnapshotFileInfo& s : summary.value().snapshots) {
    EXPECT_TRUE(s.valid) << s.error;
    EXPECT_GT(s.bytes, 0u);
  }
  for (const JournalFileInfo& j : summary.value().journals) {
    EXPECT_FALSE(j.torn_tail) << j.tail_error;
  }
  EXPECT_EQ(InspectCheckpointDir(tmp + "/missing").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace uolap::server
