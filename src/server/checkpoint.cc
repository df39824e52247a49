#include "server/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <type_traits>
#include <utility>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "server/journal.h"
#include "server/serving.h"

namespace uolap::server {
namespace {

constexpr char kSnapshotMagic[8] = {'U', 'O', 'L', 'A', 'P', 'C', 'K', 'P'};
constexpr uint32_t kSnapshotVersion = 1;

// --- bit-exact binary (de)serialization -----------------------------------
// Little-endian fixed-width fields; doubles travel as raw bit patterns so
// a restored state is bit-identical to the captured one. Each persisted
// struct lists its fields exactly once, in a Visit() below; BinWriter and
// BinReader are the two archives that walk that list, so the writer and
// the reader cannot disagree about a field. Field widths follow the C++
// types: bool and enums 1 byte, int32/uint32 4, uint64/double 8; strings,
// vectors and maps carry a uint32 count.

class BinWriter {
 public:
  template <class... T>
  void operator()(const T&... v) {
    (Field(v), ...);
  }
  /// Enums travel as one byte; [lo, hi] is the reader's valid range.
  template <class E>
  void Enum(const E& v, E /*lo*/, E /*hi*/) {
    Field(static_cast<uint8_t>(v));
  }
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  const std::string& str() const { return out_; }

 private:
  void Field(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Field(bool v) { Field(static_cast<uint8_t>(v ? 1 : 0)); }
  void Field(uint32_t v) { Raw(&v, sizeof(v)); }
  void Field(int32_t v) { Raw(&v, sizeof(v)); }
  void Field(uint64_t v) { Raw(&v, sizeof(v)); }
  void Field(double v) { Raw(&v, sizeof(v)); }
  void Field(std::string_view s) {
    Field(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Field(const std::string& s) { Field(std::string_view(s)); }
  void Field(const Rng& rng) {
    for (const uint64_t word : rng.SaveState()) Field(word);
  }
  template <class T>
  void Field(const std::vector<T>& v) {
    Field(static_cast<uint32_t>(v.size()));
    for (const T& x : v) Field(x);
  }
  template <class K, class V>
  void Field(const std::map<K, V>& m) {
    Field(static_cast<uint32_t>(m.size()));
    for (const auto& [key, value] : m) {
      Field(key);
      Field(value);
    }
  }
  template <class S>
  void Field(const S& s) {
    Visit(*this, s);
  }

  std::string out_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  template <class... T>
  void operator()(T&... v) {
    (Field(v), ...);
  }
  /// Fails the read when the stored byte is outside [lo, hi].
  template <class E>
  void Enum(E& v, E lo, E hi) {
    uint8_t raw = 0;
    Field(raw);
    if (raw < static_cast<uint8_t>(lo) || raw > static_cast<uint8_t>(hi)) {
      failed_ = true;
      return;
    }
    v = static_cast<E>(raw);
  }

  /// True when every byte was consumed and nothing failed.
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }

 private:
  void Field(uint8_t& v) { Take(&v, sizeof(v)); }
  void Field(bool& v) {
    uint8_t b = 0;
    Field(b);
    v = b != 0;
  }
  void Field(uint32_t& v) { Take(&v, sizeof(v)); }
  void Field(int32_t& v) { Take(&v, sizeof(v)); }
  void Field(uint64_t& v) { Take(&v, sizeof(v)); }
  void Field(double& v) { Take(&v, sizeof(v)); }
  void Field(std::string& s) {
    const size_t n = Count();
    if (failed_) return;
    s.assign(data_.data() + pos_, n);
    pos_ += n;
  }
  void Field(Rng& rng) {
    std::array<uint64_t, 4> state = {};
    for (uint64_t& word : state) Field(word);
    rng.LoadState(state);
  }
  // Containers grow one decoded element at a time, so their allocation
  // never runs ahead of the bytes actually present.
  template <class T>
  void Field(std::vector<T>& v) {
    const size_t n = Count();
    v.clear();
    for (size_t i = 0; i < n && !failed_; ++i) Field(v.emplace_back());
  }
  template <class K, class V>
  void Field(std::map<K, V>& m) {
    const size_t n = Count();
    m.clear();
    for (size_t i = 0; i < n && !failed_; ++i) {
      K key;
      Field(key);
      Field(m[std::move(key)]);
    }
  }
  template <class S>
  void Field(S& s) {
    Visit(*this, s);
  }

  /// A container count, bounded by the remaining bytes (every element is
  /// at least one byte) so corrupt data cannot force a huge allocation.
  size_t Count() {
    uint32_t n = 0;
    Field(n);
    if (!failed_ && n > data_.size() - pos_) failed_ = true;
    return failed_ ? 0 : n;
  }

  void Take(void* p, size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// --- the persisted field lists --------------------------------------------
// One Visit per struct: `S` is `const T` when encoding and `T` when
// decoding. The order of the fields is the file format.

template <class S, class T>
concept Persisted = std::is_same_v<std::remove_const_t<S>, T>;

template <class Ar, Persisted<QueryInstance> S>
void Visit(Ar& ar, S& q) {
  ar(q.tenant, q.cls, q.client, q.seq, q.sampled, q.arrival, q.start,
     q.remaining, q.scale_cycles, q.run_cycles, q.attempt, q.deadline,
     q.est_ms, q.cancel_remaining, q.retry_ready, q.will_fail, q.slow);
}

template <class Ar, Persisted<TenantLoopState> S>
void Visit(Ar& ar, S& t) {
  ar(t.rng, t.cap, t.submitted, t.completed, t.rejected, t.shed,
     t.timed_out, t.failed, t.retries, t.next_open_arrival, t.client_wake,
     t.zipf_cdf, t.latencies_ms, t.histogram);
}

template <class Ar, Persisted<ClassLoopStats> S>
void Visit(Ar& ar, S& c) {
  ar(c.executions, c.service_cycles, c.scale_cycles, c.run_cycles);
}

template <class Ar, Persisted<obs::QueueSample> S>
void Visit(Ar& ar, S& s) {
  ar(s.vtime_ms, s.running, s.queued);
}

template <class Ar, Persisted<obs::QuerySpan> S>
void Visit(Ar& ar, S& s) {
  ar(s.seq, s.tenant, s.cls, s.arrival_ms, s.start_ms, s.end_ms, s.core,
     s.outcome, s.attempts);
}

template <class Ar, Persisted<EpochAccState> S>
void Visit(Ar& ar, S& a) {
  ar(a.lat, a.tenant_lat, a.class_lat, a.max_running, a.max_queued);
}

template <class Ar, Persisted<obs::WindowStat> S>
void Visit(Ar& ar, S& w) {
  ar(w.subject, w.completed, w.p50_ms, w.p95_ms, w.p99_ms);
}

template <class Ar, Persisted<obs::EpochRecord> S>
void Visit(Ar& ar, S& e) {
  ar(e.index, e.start_ms, e.end_ms, e.completed, e.p50_ms, e.p95_ms,
     e.p99_ms, e.max_running, e.max_queued, e.tenants, e.classes);
}

template <class Ar, Persisted<LoopState> S>
void Visit(Ar& ar, S& st) {
  ar(st.vtime, st.tenants, st.classes, st.slots, st.queue, st.retry_queue,
     st.queue_head, st.queued_est_ms, st.faults_injected,
     st.slowdowns_injected, st.brownout_downgrades, st.total_bytes,
     st.peak_gbps, st.saturated, st.timeline, st.engine_latencies,
     st.seq_counter, st.spans, st.all_latencies, st.cur_running,
     st.cur_queued, st.peak_queued, st.acc, st.epoch_index, st.epoch_start,
     st.epochs);
}

template <class Ar, Persisted<AdmissionController::ClassModel> S>
void Visit(Ar& ar, S& m) {
  ar(m.est_ms, m.count);
}

template <class Ar, Persisted<obs::MetricSeries> S>
void Visit(Ar& ar, S& s) {
  ar(s.label_key, s.label_value, s.counter, s.gauge, s.histogram.buckets,
     s.histogram.count, s.histogram.sum_micro);
}

template <class Ar, Persisted<obs::MetricFamily> S>
void Visit(Ar& ar, S& f) {
  ar(f.name);
  ar.Enum(f.kind, obs::MetricKind::kCounter, obs::MetricKind::kHistogram);
  ar(f.series);
}

/// The snapshot payload between the magic + version header and the CRC.
template <class Ar, Persisted<CheckpointSnapshot> S>
void Visit(Ar& ar, S& s) {
  ar(s.config_fingerprint, s.class_digest, s.epoch_index, s.freq_ghz,
     s.state, s.admission_models, s.metrics.families);
}

template <class Ar, Persisted<JournalEvent> S>
void Visit(Ar& ar, S& e) {
  ar.Enum(e.type, JournalEventType::kAdmit, JournalEventType::kRetry);
  ar(e.seq, e.tenant, e.attempt, e.vtime_ms);
}

/// Parses "<prefix><8 digits><suffix>" file names; returns the index or
/// -1 when the name does not match.
int ParseIndexedName(const std::string& name, std::string_view prefix,
                     std::string_view suffix) {
  if (name.size() != prefix.size() + 8 + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(prefix.size() + 8, suffix.size(), suffix.data()) != 0) {
    return -1;
  }
  int index = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    index = index * 10 + (c - '0');
  }
  return index;
}

}  // namespace

std::string_view JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kAdmit:
      return "admit";
    case JournalEventType::kReject:
      return "reject";
    case JournalEventType::kShed:
      return "shed";
    case JournalEventType::kTimeout:
      return "timeout";
    case JournalEventType::kFail:
      return "fail";
    case JournalEventType::kComplete:
      return "complete";
    case JournalEventType::kRetry:
      return "retry";
  }
  return "unknown";
}

std::string EncodeJournalEvent(const JournalEvent& event) {
  BinWriter w;
  w(event);
  return w.str();
}

StatusOr<JournalEvent> DecodeJournalEvent(std::string_view payload) {
  BinReader r(payload);
  JournalEvent e;
  r(e);
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed journal event payload");
  }
  return e;
}

std::string EncodeSnapshot(const CheckpointSnapshot& snapshot) {
  BinWriter w;
  w.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w(kSnapshotVersion, snapshot);
  w(Crc32c(w.str()));
  return w.str();
}

StatusOr<CheckpointSnapshot> DecodeSnapshot(std::string_view bytes) {
  constexpr size_t kHeader = sizeof(kSnapshotMagic) + sizeof(uint32_t);
  if (bytes.size() < kHeader + sizeof(uint32_t)) {
    return Status::InvalidArgument("snapshot file too short (" +
                                   std::to_string(bytes.size()) + " bytes)");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const std::string_view body = bytes.substr(0, bytes.size() - sizeof(stored_crc));
  if (Crc32c(body) != stored_crc) {
    return Status::InvalidArgument("snapshot CRC mismatch");
  }
  if (std::memcmp(body.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint snapshot (bad magic)");
  }
  uint32_t version = 0;
  std::memcpy(&version, body.data() + sizeof(kSnapshotMagic), sizeof(version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  BinReader r(body.substr(kHeader));
  CheckpointSnapshot snap;
  r(snap);
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot payload truncated or malformed");
  }
  return snap;
}

std::string SnapshotFileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%08d.ckpt", index);
  return buf;
}

std::string JournalFileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%08d.wal", index);
  return buf;
}

Status WriteSnapshotFile(const std::string& dir,
                         const CheckpointSnapshot& snapshot) {
  Status made = EnsureDirectory(dir);
  if (!made.ok()) return made;
  return WriteFileAtomic(dir + "/" + SnapshotFileName(snapshot.epoch_index),
                         EncodeSnapshot(snapshot));
}

StatusOr<RecoveredCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  StatusOr<std::vector<std::string>> listing = ListDirectory(dir);
  if (!listing.ok()) return listing.status();
  std::vector<int> indices;
  for (const std::string& name : listing.value()) {
    const int index = ParseIndexedName(name, "snap-", ".ckpt");
    if (index >= 0) indices.push_back(index);
  }
  if (indices.empty()) {
    return Status::NotFound("no checkpoint snapshots in '" + dir + "'");
  }
  std::sort(indices.rbegin(), indices.rend());

  RecoveredCheckpoint out;
  bool loaded = false;
  std::string last_error;
  for (const int index : indices) {
    const std::string path = dir + "/" + SnapshotFileName(index);
    StatusOr<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) {
      ++out.skipped_snapshots;
      last_error = path + ": " + bytes.status().ToString();
      continue;
    }
    StatusOr<CheckpointSnapshot> snap = DecodeSnapshot(bytes.value());
    if (!snap.ok()) {
      ++out.skipped_snapshots;
      last_error = path + ": " + snap.status().ToString();
      continue;
    }
    out.snapshot = std::move(snap).value();
    loaded = true;
    break;
  }
  if (!loaded) {
    return Status::FailedPrecondition("no valid checkpoint snapshot in '" +
                                      dir + "' (last failure: " + last_error +
                                      ")");
  }
  out.skipped_note = last_error;

  const std::string journal_path =
      dir + "/" + JournalFileName(out.snapshot.epoch_index);
  StatusOr<JournalReadResult> journal = ReadJournal(journal_path);
  if (!journal.ok()) {
    // A snapshot written moments before the kill may not have a journal
    // yet; recovery starts one. Any other read failure is fatal.
    if (journal.status().code() != StatusCode::kNotFound) {
      return journal.status();
    }
  } else {
    out.journal_payloads = std::move(journal.value().payloads);
    out.journal_valid_bytes = journal.value().valid_bytes;
    out.journal_torn = journal.value().torn_tail;
    out.journal_tail_error = std::move(journal.value().tail_error);
  }
  return out;
}

uint64_t ServingConfigFingerprint(const ServerConfig& config,
                                  const std::vector<TenantConfig>& tenants) {
  const core::MachineConfig& m = config.machine;
  const AdmissionConfig& adm = config.admission;
  const RetryPolicy& retry = config.retry;
  std::vector<std::string> slos;
  for (const obs::SloSpec& slo : config.slos) slos.push_back(slo.ToString());
  BinWriter w;
  w(m.freq_ghz, m.cores_per_socket, m.SocketSeqBytesPerCycle(),
    m.SocketRandBytesPerCycle(), config.cores, config.default_max_queries,
    config.sample_interval_instructions, config.epoch_ms,
    config.trace_sample_n, slos, ShedPolicyName(adm.policy),
    adm.default_deadline_ms, adm.safety_factor, adm.tenant_shed_quota,
    adm.protect_priority, retry.max_retries, retry.backoff_base_ms,
    retry.backoff_multiplier, retry.backoff_jitter,
    config.brownout.queue_depth, config.brownout.downgrade,
    config.faults.ToString(), config.checkpoint.every_epochs,
    static_cast<uint32_t>(tenants.size()));
  for (const TenantConfig& t : tenants) {
    w(t.name, t.engine, static_cast<uint32_t>(t.catalog.size()));
    for (const engine::QuerySpec& spec : t.catalog) {
      w(spec.Label(), spec.deadline_ms, spec.cost_hint_ms);
    }
    w(t.zipf_s, t.arrival_qps, t.concurrency, t.think_ms, t.max_queries,
      t.seed, t.priority);
  }
  const std::string& data = w.str();
  return (static_cast<uint64_t>(Crc32c(data)) << 32) |
         Crc32c(data, 0x9E3779B9u);
}

StatusOr<CheckpointDirSummary> InspectCheckpointDir(const std::string& dir) {
  StatusOr<std::vector<std::string>> listing = ListDirectory(dir);
  if (!listing.ok()) return listing.status();
  CheckpointDirSummary out;
  for (const std::string& name : listing.value()) {
    const std::string path = dir + "/" + name;
    const int snap_index = ParseIndexedName(name, "snap-", ".ckpt");
    if (snap_index >= 0) {
      SnapshotFileInfo info;
      info.index = snap_index;
      StatusOr<std::string> bytes = ReadFileToString(path);
      if (!bytes.ok()) {
        info.error = bytes.status().ToString();
      } else {
        info.bytes = bytes.value().size();
        StatusOr<CheckpointSnapshot> snap = DecodeSnapshot(bytes.value());
        if (!snap.ok()) {
          info.error = snap.status().ToString();
        } else {
          info.valid = true;
          const LoopState& st = snap.value().state;
          const double freq = snap.value().freq_ghz;
          info.vtime_ms = freq > 0 ? st.vtime / (freq * 1e6) : 0;
          for (const TenantLoopState& t : st.tenants) {
            info.submitted += t.submitted;
          }
          info.epochs_closed = st.epoch_index;
          if (snap_index > out.resume_index) out.resume_index = snap_index;
        }
      }
      out.snapshots.push_back(std::move(info));
      continue;
    }
    const int wal_index = ParseIndexedName(name, "journal-", ".wal");
    if (wal_index >= 0) {
      JournalFileInfo info;
      info.index = wal_index;
      StatusOr<uint64_t> size = FileSize(path);
      info.bytes = size.ok() ? size.value() : 0;
      StatusOr<JournalReadResult> journal = ReadJournal(path);
      if (journal.ok()) {
        info.valid_bytes = journal.value().valid_bytes;
        info.records = journal.value().payloads.size();
        info.torn_tail = journal.value().torn_tail;
        info.tail_error = std::move(journal.value().tail_error);
      } else {
        info.torn_tail = true;
        info.tail_error = journal.status().ToString();
      }
      out.journals.push_back(std::move(info));
    }
  }
  if (out.snapshots.empty() && out.journals.empty()) {
    return Status::NotFound("no checkpoint files in '" + dir + "'");
  }
  return out;
}

}  // namespace uolap::server
