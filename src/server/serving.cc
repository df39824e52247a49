#include "server/serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "obs/attribution.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile_run.h"
#include "obs/slo.h"
#include "server/checkpoint.h"
#include "server/journal.h"
#include "server/loop_state.h"

namespace uolap::server {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Remaining-work threshold below which an instance counts as complete
/// (work is a fraction in [0, 1]; the epoch length is chosen so the
/// finishing instance lands within rounding error of zero).
constexpr double kDoneEps = 1e-9;
/// Stream salt separating backoff-jitter draws from the fault plan's own
/// hash chains ("BACKOFFS" in ASCII).
constexpr uint64_t kBackoffSalt = 0x4241434B4F464653ULL;

double CyclesToMs(double cycles, double freq_ghz) {
  return cycles / (freq_ghz * 1e6);
}

double MsToCycles(double ms, double freq_ghz) { return ms * freq_ghz * 1e6; }

/// Exponential draw with the given mean (<= 0 mean draws 0).
double ExpDraw(Rng& rng, double mean) {
  if (mean <= 0) return 0;
  // NextDouble() is in [0, 1), so the argument stays in (0, 1].
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

/// Log2 latency bucket: 0 counts < 1 ms, bucket i counts [2^(i-1), 2^i).
size_t HistBucket(double ms) {
  size_t bucket = 0;
  double edge = 1.0;
  while (ms >= edge && bucket < 63) {
    edge *= 2.0;
    ++bucket;
  }
  return bucket;
}

/// Nearest-rank percentile of an ascending-sorted list (q in (0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted[rank - 1];
}

/// Why a restored snapshot cannot drive this server's loop ("" when it
/// can). A valid CRC proves only that the bytes are the ones written, so
/// every restored value the loop uses as an index is bounds-checked here:
/// recovery fails loudly instead of reading out of range.
std::string RestoredStateError(const CheckpointSnapshot& snap,
                               const std::vector<TenantConfig>& tenants,
                               size_t num_classes, size_t cores) {
  const LoopState& st = snap.state;
  if (st.tenants.size() != tenants.size() ||
      st.classes.size() != num_classes || st.slots.size() != cores) {
    return "tenant/class/core-pool shape differs from this server's";
  }
  auto n = [](auto v) { return std::to_string(v); };
  if (snap.admission_models.size() != num_classes) {
    return "admission_models.size() " + n(snap.admission_models.size()) +
           " != " + n(num_classes) + " classes";
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (st.tenants[t].zipf_cdf.size() != tenants[t].catalog.size()) {
      return "tenants[" + n(t) + "].zipf_cdf.size() " +
             n(st.tenants[t].zipf_cdf.size()) + " != catalog size " +
             n(tenants[t].catalog.size());
    }
  }
  if (st.queue_head > st.queue.size()) {
    return "queue_head " + n(st.queue_head) + " > queue.size() " +
           n(st.queue.size());
  }
  auto instance_error = [&](const std::string& where,
                            const QueryInstance& q) -> std::string {
    if (q.tenant < 0 || static_cast<size_t>(q.tenant) >= tenants.size()) {
      return where + ".tenant " + n(q.tenant) + " outside [0, " +
             n(tenants.size()) + ")";
    }
    if (q.cls >= num_classes) {
      return where + ".cls " + n(q.cls) + " outside [0, " + n(num_classes) +
             ")";
    }
    const size_t clients = st.tenants[static_cast<size_t>(q.tenant)]
                               .client_wake.size();
    if (q.client < -1 ||
        (q.client >= 0 && static_cast<size_t>(q.client) >= clients)) {
      return where + ".client " + n(q.client) + " outside [-1, " +
             n(clients) + ")";
    }
    return "";
  };
  std::string err;
  for (size_t i = 0; i < st.slots.size() && err.empty(); ++i) {
    if (st.slots[i].tenant == -1) continue;  // a free core slot
    err = instance_error("slots[" + n(i) + "]", st.slots[i]);
  }
  for (size_t i = st.queue_head; i < st.queue.size() && err.empty(); ++i) {
    err = instance_error("queue[" + n(i) + "]", st.queue[i]);
  }
  for (size_t i = 0; i < st.retry_queue.size() && err.empty(); ++i) {
    err = instance_error("retry_queue[" + n(i) + "]", st.retry_queue[i]);
  }
  return err;
}

}  // namespace

Server::Server(const ServerConfig& config, engine::EngineRegistry& registry)
    : config_(config), registry_(registry) {
  UOLAP_CHECK_MSG(config_.cores >= 1, "server needs at least one core");
  UOLAP_CHECK_MSG(
      static_cast<uint32_t>(config_.cores) <=
          config_.machine.cores_per_socket,
      "server core pool exceeds the machine's cores per socket");
}

void Server::AddTenant(TenantConfig tenant) {
  UOLAP_CHECK_MSG(!tenant.catalog.empty(), "tenant catalog is empty");
  UOLAP_CHECK_MSG(registry_.Has(tenant.engine),
                  "tenant references an unknown engine key");
  const engine::OlapEngine& eng = *registry_.Get(tenant.engine).value();
  for (const engine::QuerySpec& spec : tenant.catalog) {
    UOLAP_CHECK_MSG(eng.Supports(spec.id),
                    "tenant catalog contains an unsupported query");
  }
  const bool open = tenant.arrival_qps > 0;
  const bool closed = tenant.concurrency > 0;
  UOLAP_CHECK_MSG(open != closed,
                  "tenant must be open-loop (arrival_qps) xor closed-loop "
                  "(concurrency)");
  tenants_.push_back(std::move(tenant));
  classes_ready_ = false;
}

void Server::EnsureClasses() {
  if (classes_ready_) return;
  // Classes are simulated in tenant/catalog order, deduplicated by label,
  // so the set of machine executions is a deterministic function of the
  // tenant list (and each class is executed exactly once per Server).
  std::map<std::string, size_t> by_label;
  for (const QueryClass& cls : classes_) {
    by_label[cls.label] = static_cast<size_t>(&cls - classes_.data());
  }
  tenant_classes_.clear();
  tenant_classes_.reserve(tenants_.size());
  for (const TenantConfig& tenant : tenants_) {
    std::vector<size_t> indices;
    indices.reserve(tenant.catalog.size());
    for (const engine::QuerySpec& spec : tenant.catalog) {
      const std::string label = tenant.engine + "/" + spec.Label();
      auto it = by_label.find(label);
      if (it == by_label.end()) {
        classes_.push_back(SimulateClass(tenant.engine, spec));
        it = by_label.emplace(label, classes_.size() - 1).first;
      }
      indices.push_back(it->second);
    }
    tenant_classes_.push_back(std::move(indices));
  }
  // Brown-out wiring: when brown-out is configured, resolve (and
  // solo-profile) the cheaper class for every class whose engine has a
  // downgrade mapping that supports the query. The two solo answers must
  // agree — the differential check that a brown-out degrades cost, never
  // correctness. Gated on the config so default runs simulate exactly the
  // classes they always did (bit-determinism).
  if (config_.brownout.queue_depth > 0) {
    for (size_t i = 0; i < classes_.size(); ++i) {
      auto mapped = config_.brownout.downgrade.find(classes_[i].engine);
      if (mapped == config_.brownout.downgrade.end()) continue;
      const std::string down_key = mapped->second;
      if (down_key == classes_[i].engine) continue;
      UOLAP_CHECK_MSG(registry_.Has(down_key),
                      "brown-out downgrade engine is not registered");
      engine::OlapEngine& down = *registry_.Get(down_key).value();
      if (!down.Supports(classes_[i].spec.id)) continue;
      const std::string label = down_key + "/" + classes_[i].spec.Label();
      auto at = by_label.find(label);
      if (at == by_label.end()) {
        classes_.push_back(SimulateClass(down_key, classes_[i].spec));
        at = by_label.emplace(label, classes_.size() - 1).first;
      }
      UOLAP_CHECK_MSG(classes_[i].result == classes_[at->second].result,
                      "brown-out downgrade changed the query answer");
      classes_[i].downgrade = static_cast<int>(at->second);
    }
  }
  classes_ready_ = true;
}

Server::QueryClass Server::SimulateClass(const std::string& engine_key,
                                         const engine::QuerySpec& spec) {
  QueryClass cls;
  cls.engine = engine_key;
  cls.spec = spec;
  cls.label = engine_key + "/" + spec.Label();
  engine::OlapEngine& eng = *registry_.Get(engine_key).value();

  // The solo execution: the engine really runs the query on a fresh
  // single-core machine through the dispatch API, profiled per region.
  obs::ProfiledRun solo = obs::ProfileRun(
      config_.machine, 1,
      obs::RegionProfiler::Options{config_.sample_interval_instructions},
      "serve/" + cls.label, [&](core::Machine& m) {
        engine::Workers w(m);
        cls.result = eng.Run(spec, w).value();
      });
  obs::RunRecord& run = solo.record;

  cls.counters = run.cores[0].whole.counters;
  cls.solo = run.cores[0].whole;
  // Byte classes mirror core::MultiCoreModel: prefetch waste and
  // writebacks ride the sequential stream.
  cls.bytes_seq =
      static_cast<double>(cls.counters.mem.dram_demand_bytes_seq +
                          cls.counters.mem.dram_prefetch_waste_bytes +
                          cls.counters.mem.dram_writeback_bytes);
  cls.bytes_rand =
      static_cast<double>(cls.counters.mem.dram_demand_bytes_rand);
  // Cancellation points (DESIGN.md §9): a timed-out query keeps running —
  // and contending — until the next top-level operator-region boundary of
  // its class, modeled as the cumulative Top-Down cycle fractions of the
  // solo run's depth-1 regions. A class without regions cancels only at
  // completion (and so effectively runs to the end, merely late).
  const obs::RegionTree& tree = run.cores[0].regions;
  if (cls.solo.total_cycles > 0 && !tree.nodes.empty()) {
    double cum = 0;
    for (const int child : tree.root().children) {
      cum += tree.nodes[static_cast<size_t>(child)].incl_cycles.Total();
      const double frac = cum / cls.solo.total_cycles;
      if (frac > kDoneEps && frac < 1.0 - kDoneEps) {
        cls.cancel_fractions.push_back(frac);
      }
    }
  }
  cls.cancel_fractions.push_back(1.0);
  cls.solo_run = std::move(run);
  return cls;
}

ServeResult Server::Run() { return TryRun().value(); }

StatusOr<ServeResult> Server::TryRun() {
  UOLAP_CHECK_MSG(!tenants_.empty(), "no tenants added");
  EnsureClasses();

  const core::MachineConfig& cfg = config_.machine;
  const double freq = cfg.freq_ghz;
  const core::TopDownModel model(cfg);
  const int cores = config_.cores;

  const CheckpointConfig& ck = config_.checkpoint;
  if (ck.enabled()) {
    UOLAP_CHECK_MSG(config_.epoch_ms > 0,
                    "checkpointing requires epoch windows (epoch_ms > 0)");
    UOLAP_CHECK_MSG(ck.every_epochs >= 1, "checkpoint-every must be >= 1");
  }

  // The loop's complete mutable state lives in one serializable struct
  // (server/loop_state.h) so epoch-boundary snapshots can capture it and
  // recovery can restore it bit for bit. The aliases and references below
  // keep the loop body reading as it did when the state was local.
  using Instance = QueryInstance;
  using TenantState = TenantLoopState;
  using ClassStats = ClassLoopStats;
  LoopState st;

  std::vector<TenantState>& tstates = st.tenants;
  tstates.resize(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const TenantConfig& tc = tenants_[t];
    TenantState& ts = tstates[t];
    ts.rng.Seed(tc.seed != 0 ? tc.seed : Mix64(0x5345525645ULL + t));
    ts.cap = tc.max_queries != 0 ? tc.max_queries
                                 : config_.default_max_queries;
    // Zipf CDF over the catalog order: P(i) proportional to 1/(i+1)^s.
    double norm = 0;
    ts.zipf_cdf.reserve(tc.catalog.size());
    for (size_t i = 0; i < tc.catalog.size(); ++i) {
      norm += std::pow(static_cast<double>(i + 1), -tc.zipf_s);
      ts.zipf_cdf.push_back(norm);
    }
    for (double& c : ts.zipf_cdf) c /= norm;
    if (tc.arrival_qps > 0) {
      ts.next_open_arrival =
          MsToCycles(ExpDraw(ts.rng, 1000.0 / tc.arrival_qps), freq);
    } else {
      ts.client_wake.resize(static_cast<size_t>(tc.concurrency));
      for (double& wake : ts.client_wake) {
        wake = MsToCycles(ExpDraw(ts.rng, tc.think_ms), freq);
      }
    }
  }
  std::vector<ClassStats>& cstats = st.classes;
  cstats.resize(classes_.size());

  // Returns the tenant's drawn *catalog index* (not class index): the
  // catalog spec carries the per-submission deadline, the class only the
  // workload identity.
  auto pick_entry = [&](size_t t) -> size_t {
    const TenantState& ts = tstates[t];
    const double u = tstates[t].rng.NextDouble();
    size_t i = 0;
    while (i + 1 < ts.zipf_cdf.size() && u >= ts.zipf_cdf[i]) ++i;
    return i;
  };

  // --- robustness state (DESIGN.md §9) --------------------------------
  const AdmissionConfig& adm = config_.admission;
  AdmissionController ctl(adm, cores);
  for (size_t i = 0; i < classes_.size(); ++i) {
    ctl.SeedClass(i, classes_[i].spec.cost_hint_ms > 0
                         ? classes_[i].spec.cost_hint_ms
                         : classes_[i].solo.time_ms);
  }
  const bool faults_on = config_.faults.enabled();
  UOLAP_CHECK_MSG(config_.retry.max_retries >= 0 &&
                      config_.retry.max_retries < 1024,
                  "retry budget outside the attempt-key space");
  // drained in (retry_ready, seq) order
  std::vector<Instance>& retry_queue = st.retry_queue;
  double& queued_est_ms = st.queued_est_ms;
  uint64_t& faults_injected = st.faults_injected;
  uint64_t& slowdowns_injected = st.slowdowns_injected;
  uint64_t& brownout_downgrades = st.brownout_downgrades;

  auto protected_tenant = [&](size_t t) {
    return tenants_[t].priority >= adm.protect_priority;
  };
  auto quota_ok = [&](const TenantState& ts) {
    return adm.tenant_shed_quota == 0 ||
           ts.rejected + ts.shed < adm.tenant_shed_quota;
  };
  const bool reject_on = adm.policy == ShedPolicy::kReject ||
                         adm.policy == ShedPolicy::kBoth;
  const bool shed_on = adm.policy == ShedPolicy::kShed ||
                       adm.policy == ShedPolicy::kBoth;

  std::vector<Instance>& slots = st.slots;
  slots.assign(static_cast<size_t>(cores), Instance{});
  std::vector<Instance>& queue = st.queue;  // FIFO; head pops from the front
  uint64_t& queue_head = st.queue_head;

  double& vtime = st.vtime;
  double& total_bytes = st.total_bytes;
  double& peak_gbps = st.peak_gbps;
  bool& saturated = st.saturated;
  std::vector<obs::QueueSample>& timeline = st.timeline;
  std::map<std::string, std::vector<double>>& engine_latencies =
      st.engine_latencies;

  // --- serving telemetry state (DESIGN.md §8) -------------------------
  obs::MetricsRegistry& metrics =
      config_.metrics != nullptr ? *config_.metrics
                                 : obs::MetricsRegistry::Global();
  uint64_t& seq_counter = st.seq_counter;
  std::vector<obs::QuerySpan>& spans = st.spans;
  std::vector<double>& all_latencies = st.all_latencies;
  uint32_t& cur_running = st.cur_running;
  uint32_t& cur_queued = st.cur_queued;
  uint32_t& peak_queued = st.peak_queued;

  // --- crash consistency (DESIGN.md §10) ------------------------------
  uint64_t config_fingerprint = 0;
  uint32_t class_digest = 0;
  if (ck.enabled()) {
    config_fingerprint = ServingConfigFingerprint(config_, tenants_);
    for (const QueryClass& qc : classes_) {
      class_digest = Crc32c(qc.label.data(), qc.label.size(), class_digest);
      const double vals[3] = {static_cast<double>(qc.solo.total_cycles),
                              qc.bytes_seq, qc.bytes_rand};
      class_digest = Crc32c(vals, sizeof(vals), class_digest);
    }
  }
  JournalWriter journal;
  std::vector<std::string> expected_events;  // resume: journal to verify
  size_t expected_pos = 0;
  bool snapshot_pending = false;
  Status ck_error;  // deferred journal error; surfaced at the loop top

  // Emits one per-query event. Fresh runs append it to the live journal;
  // a resumed run first *verifies* re-derived events against the crashed
  // run's journal (replay-as-verification: the runtime is deterministic,
  // so any divergence means the checkpoint belongs to a different
  // configuration) and only then starts appending new ones.
  auto journal_event = [&](JournalEventType type, const Instance& inst) {
    if (!ck.enabled()) return;
    // Counted before the verify/append split so a resumed run's counter
    // matches the uninterrupted one.
    metrics.Count(obs::metric_names::kServerJournalRecordsTotal);
    const std::string payload = EncodeJournalEvent(
        JournalEvent{type, inst.seq, inst.tenant,
                     static_cast<uint32_t>(inst.attempt),
                     CyclesToMs(vtime, freq)});
    if (expected_pos < expected_events.size()) {
      if (payload != expected_events[expected_pos] && ck_error.ok()) {
        std::string detail;
        StatusOr<JournalEvent> want =
            DecodeJournalEvent(expected_events[expected_pos]);
        if (want.ok()) {
          detail = " (journal has " +
                   std::string(JournalEventTypeName(want.value().type)) +
                   " seq=" + std::to_string(want.value().seq) +
                   ", re-derived " + std::string(JournalEventTypeName(type)) +
                   " seq=" + std::to_string(inst.seq) + ")";
        }
        ck_error = Status::Internal("journal replay divergence at record " +
                                    std::to_string(expected_pos) + detail);
      }
      ++expected_pos;
      return;
    }
    if (!journal.is_open()) return;  // events before the first snapshot
    const Status appended = journal.AppendRecord(payload);
    if (!appended.ok() && ck_error.ok()) ck_error = appended;
  };

  // Writes the epoch-boundary snapshot and rotates the journal: events
  // after this snapshot land in its paired journal file.
  auto write_snapshot = [&]() -> Status {
    // Counted before the registry capture so the snapshot's own metrics
    // include this write — a resumed run's final counter then matches the
    // uninterrupted one exactly.
    metrics.Count(obs::metric_names::kServerCheckpointsTotal);
    CheckpointSnapshot snap;
    snap.config_fingerprint = config_fingerprint;
    snap.class_digest = class_digest;
    snap.epoch_index = st.epoch_index;
    snap.freq_ghz = freq;
    snap.state = st;
    // The queue's popped prefix is dead weight; persist the live suffix.
    snap.state.queue.erase(
        snap.state.queue.begin(),
        snap.state.queue.begin() + static_cast<long>(st.queue_head));
    snap.state.queue_head = 0;
    snap.admission_models = ctl.models();
    snap.metrics = metrics.Snapshot();
    Status written = WriteSnapshotFile(ck.dir, snap);
    if (!written.ok()) return written;
    Status rotated = journal.Close();
    if (!rotated.ok()) return rotated;
    return journal.Create(ck.dir + "/" + JournalFileName(st.epoch_index));
  };

  // SLO epoch windows: fixed-width virtual-time buckets accumulating the
  // latencies completed inside them plus occupancy extremes. Epochs are
  // closed (and their percentiles frozen) the moment virtual time crosses
  // the boundary, so a completion exactly on a boundary starts the next
  // window — a deterministic tie rule.
  const double epoch_cycles =
      config_.epoch_ms > 0 ? MsToCycles(config_.epoch_ms, freq) : 0;
  EpochAccState& acc = st.acc;
  int& epoch_index = st.epoch_index;
  double& epoch_start = st.epoch_start;
  std::vector<obs::EpochRecord>& epochs = st.epochs;

  auto window_stats = [&](std::map<std::string, std::vector<double>>& lat) {
    std::vector<obs::WindowStat> out;
    for (auto& [subject, values] : lat) {
      std::sort(values.begin(), values.end());
      obs::WindowStat w;
      w.subject = subject;
      w.completed = values.size();
      w.p50_ms = Percentile(values, 0.50);
      w.p95_ms = Percentile(values, 0.95);
      w.p99_ms = Percentile(values, 0.99);
      out.push_back(std::move(w));
    }
    return out;
  };

  auto close_epoch = [&](double end_cycles) {
    obs::EpochRecord e;
    e.index = epoch_index;
    e.start_ms = CyclesToMs(epoch_start, freq);
    e.end_ms = CyclesToMs(end_cycles, freq);
    std::sort(acc.lat.begin(), acc.lat.end());
    e.completed = acc.lat.size();
    e.p50_ms = Percentile(acc.lat, 0.50);
    e.p95_ms = Percentile(acc.lat, 0.95);
    e.p99_ms = Percentile(acc.lat, 0.99);
    e.max_running = acc.max_running;
    e.max_queued = acc.max_queued;
    e.tenants = window_stats(acc.tenant_lat);
    e.classes = window_stats(acc.class_lat);
    epochs.push_back(std::move(e));
    acc = EpochAccState{};
    // Occupancy persists across the boundary; seed the new window's
    // extremes with the level it inherits.
    acc.max_running = cur_running;
    acc.max_queued = cur_queued;
    epoch_start = end_cycles;
    ++epoch_index;
    if (ck.enabled() && epoch_index % ck.every_epochs == 0) {
      // Snapshot at the next top-of-loop, once the boundary's completions
      // and arrivals are settled.
      snapshot_pending = true;
    }
  };

  auto roll_epochs = [&](double now) {
    if (epoch_cycles <= 0) return;
    while (now >= epoch_start + epoch_cycles) {
      close_epoch(epoch_start + epoch_cycles);
    }
  };

  auto sample_queue = [&]() {
    uint32_t running = 0;
    for (const Instance& inst : slots) running += inst.tenant >= 0 ? 1 : 0;
    const uint32_t queued =
        static_cast<uint32_t>(queue.size() - queue_head);
    cur_running = running;
    cur_queued = queued;
    peak_queued = std::max(peak_queued, queued);
    acc.max_running = std::max(acc.max_running, running);
    acc.max_queued = std::max(acc.max_queued, queued);
    if (!timeline.empty() && timeline.back().running == running &&
        timeline.back().queued == queued) {
      return;
    }
    timeline.push_back(
        obs::QueueSample{CyclesToMs(vtime, freq), running, queued});
  };

  // Terminal non-completion outcomes (rejected/shed/timed_out/failed):
  // count, publish, span, and — for closed-loop clients — schedule the
  // next think wake (a failed query still releases its client).
  // `core` is the slot the attempt ran on, -1 when it never started.
  auto terminal = [&](const Instance& inst, engine::QueryOutcome outcome,
                      int core) {
    const size_t t = static_cast<size_t>(inst.tenant);
    const TenantConfig& tc = tenants_[t];
    TenantState& ts = tstates[t];
    namespace mn = obs::metric_names;
    switch (outcome) {
      case engine::QueryOutcome::kRejected:
        ++ts.rejected;
        metrics.Count(mn::kServerQueriesRejected, "tenant", tc.name);
        break;
      case engine::QueryOutcome::kShed:
        ++ts.shed;
        metrics.Count(mn::kServerQueriesShed, "tenant", tc.name);
        break;
      case engine::QueryOutcome::kTimedOut:
        ++ts.timed_out;
        metrics.Count(mn::kServerQueriesTimedOut, "tenant", tc.name);
        break;
      case engine::QueryOutcome::kFailed:
        ++ts.failed;
        metrics.Count(mn::kServerQueriesFailed, "tenant", tc.name);
        break;
      case engine::QueryOutcome::kOk:
        break;
    }
    JournalEventType ev = JournalEventType::kFail;
    switch (outcome) {
      case engine::QueryOutcome::kRejected:
        ev = JournalEventType::kReject;
        break;
      case engine::QueryOutcome::kShed:
        ev = JournalEventType::kShed;
        break;
      case engine::QueryOutcome::kTimedOut:
        ev = JournalEventType::kTimeout;
        break;
      case engine::QueryOutcome::kFailed:
      case engine::QueryOutcome::kOk:  // terminal() is never called with kOk
        break;
    }
    journal_event(ev, inst);
    if (inst.sampled) {
      obs::QuerySpan span;
      span.seq = inst.seq;
      span.tenant = tc.name;
      span.cls = classes_[inst.cls].label;
      span.arrival_ms = CyclesToMs(inst.arrival, freq);
      span.start_ms = CyclesToMs(core >= 0 ? inst.start : vtime, freq);
      span.end_ms = CyclesToMs(vtime, freq);
      span.core = core;
      span.outcome = std::string(engine::QueryOutcomeName(outcome));
      span.attempts = static_cast<uint32_t>(inst.attempt);
      spans.push_back(std::move(span));
    }
    if (inst.client >= 0) {
      ts.client_wake[static_cast<size_t>(inst.client)] =
          vtime + MsToCycles(ExpDraw(ts.rng, tc.think_ms), freq);
    }
  };

  // Returns false when the query was rejected at admission (the caller's
  // closed-loop client got its next wake from terminal()).
  auto submit = [&](size_t t, int client) -> bool {
    TenantState& ts = tstates[t];
    const TenantConfig& tc = tenants_[t];
    const size_t entry = pick_entry(t);
    const engine::QuerySpec& qspec = tc.catalog[entry];
    Instance inst;
    inst.tenant = static_cast<int>(t);
    inst.cls = tenant_classes_[t][entry];
    inst.client = client;
    inst.seq = seq_counter++;
    inst.sampled = config_.trace_sample_n > 0 &&
                   inst.seq % config_.trace_sample_n == 0;
    inst.arrival = vtime;
    const double deadline_ms =
        qspec.deadline_ms > 0 ? qspec.deadline_ms : adm.default_deadline_ms;
    if (deadline_ms > 0) {
      inst.deadline = vtime + MsToCycles(deadline_ms, freq);
    }
    ++ts.submitted;
    metrics.Count(obs::metric_names::kServerQueriesSubmitted, "tenant",
                  tc.name);
    // Deadline-aware admission: refuse on arrival when the load model
    // (queued work draining across the pool, then one mean service time)
    // predicts a deadline miss.
    if (reject_on && deadline_ms > 0 && !protected_tenant(t) &&
        quota_ok(ts) &&
        ctl.WouldMissDeadline(inst.cls, queued_est_ms, deadline_ms)) {
      terminal(inst, engine::QueryOutcome::kRejected, /*core=*/-1);
      return false;
    }
    inst.est_ms = ctl.MeanServiceMs(inst.cls);
    queued_est_ms += inst.est_ms;
    queue.push_back(inst);
    journal_event(JournalEventType::kAdmit, inst);
    return true;
  };

  // Processes every arrival stream whose next event is due. Tenants are
  // visited in index order and closed-loop clients in client order, so
  // ties admit in a deterministic order.
  auto process_arrivals = [&]() {
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantConfig& tc = tenants_[t];
      TenantState& ts = tstates[t];
      if (tc.arrival_qps > 0) {
        while (ts.submitted < ts.cap && ts.next_open_arrival <= vtime) {
          submit(t, /*client=*/-1);
          ts.next_open_arrival +=
              MsToCycles(ExpDraw(ts.rng, 1000.0 / tc.arrival_qps), freq);
        }
        if (ts.submitted >= ts.cap) ts.next_open_arrival = kInf;
      } else {
        for (size_t c = 0; c < ts.client_wake.size(); ++c) {
          if (ts.client_wake[c] > vtime) continue;
          if (ts.submitted < ts.cap) {
            if (submit(t, static_cast<int>(c))) {
              ts.client_wake[c] = kInf;  // sleeps until its query drains
            }
            // Rejected: terminal() scheduled the client's next think wake.
          } else {
            ts.client_wake[c] = kInf;  // retired
          }
        }
      }
    }
  };

  // Damped fixed point (mirrors core::MultiCoreModel::Analyze): find the
  // bandwidth scale at which the running set's aggregate DRAM byte rate
  // fits the blended socket ceiling, then report each instance's
  // service-time total g at that scale.
  auto solve_epoch = [&](const std::vector<Instance*>& running,
                         std::vector<double>* g_out) -> double {
    double seq_bytes = 0;
    double rand_bytes = 0;
    for (const Instance* inst : running) {
      seq_bytes += classes_[inst->cls].bytes_seq;
      rand_bytes += classes_[inst->cls].bytes_rand;
    }
    const double class_bytes = seq_bytes + rand_bytes;
    const double seq_frac = class_bytes > 0 ? seq_bytes / class_bytes : 1.0;
    const double socket_bpc =
        seq_frac * cfg.SocketSeqBytesPerCycle() +
        (1.0 - seq_frac) * cfg.SocketRandBytesPerCycle();

    double scale = 1.0;
    g_out->assign(running.size(), 0.0);
    for (int iter = 0; iter < 40; ++iter) {
      double demand_bpc = 0;
      for (size_t i = 0; i < running.size(); ++i) {
        const QueryClass& cls = classes_[running[i]->cls];
        // A fault-plan slowdown dilates the class's service time, which
        // also thins its DRAM byte rate proportionally.
        (*g_out)[i] =
            model.Analyze(cls.counters, scale).total_cycles *
            running[i]->slow;
        demand_bpc += (cls.bytes_seq + cls.bytes_rand) / (*g_out)[i];
      }
      if (demand_bpc <= socket_bpc * 1.001) {
        if (scale >= 0.999 || demand_bpc >= socket_bpc * 0.98) break;
        // Undershooting after an earlier cut: relax (damped).
        scale = std::min(1.0, scale * 1.05);
        continue;
      }
      scale *= std::pow(socket_bpc / demand_bpc, 0.7);
    }
    return scale;
  };

  std::vector<Instance*> running;
  std::vector<double> g;
  uint64_t total_submitted = 0;
  uint64_t total_completed = 0;

  if (ck.enabled() && ck.resume) {
    // Recovery: restore the newest valid snapshot and re-enter the loop
    // at the exact top-of-loop point the snapshot was written at. The
    // crashed run's journal becomes the verification stream.
    StatusOr<RecoveredCheckpoint> recovered = LoadLatestCheckpoint(ck.dir);
    if (!recovered.ok()) return recovered.status();
    RecoveredCheckpoint& rec = recovered.value();
    if (rec.snapshot.config_fingerprint != config_fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint in '" + ck.dir +
          "' was written under a different serving configuration");
    }
    if (rec.snapshot.class_digest != class_digest) {
      return Status::FailedPrecondition(
          "checkpoint in '" + ck.dir +
          "' was written against different class profiles");
    }
    const std::string invalid =
        RestoredStateError(rec.snapshot, tenants_, classes_.size(),
                           static_cast<size_t>(cores));
    if (!invalid.empty()) {
      return Status::FailedPrecondition(
          "checkpoint in '" + ck.dir + "' is inconsistent: " + invalid);
    }
    if (rec.skipped_snapshots > 0) {
      std::fprintf(stderr,
                   "# recovery: skipped %d invalid snapshot(s) in %s "
                   "(last: %s)\n",
                   rec.skipped_snapshots, ck.dir.c_str(),
                   rec.skipped_note.c_str());
    }
    if (rec.journal_torn) {
      std::fprintf(stderr,
                   "# recovery: discarding torn journal tail after byte "
                   "%llu: %s\n",
                   static_cast<unsigned long long>(rec.journal_valid_bytes),
                   rec.journal_tail_error.c_str());
    }
    st = rec.snapshot.state;
    ctl.RestoreModels(std::move(rec.snapshot.admission_models));
    metrics.Restore(rec.snapshot.metrics);
    expected_events = std::move(rec.journal_payloads);
    Status opened = journal.OpenForAppend(
        ck.dir + "/" + JournalFileName(rec.snapshot.epoch_index),
        rec.journal_valid_bytes);
    if (!opened.ok()) return opened;
    std::fprintf(stderr,
                 "# resume: snapshot %d at virtual %.3f ms, %zu journal "
                 "record(s) to verify\n",
                 rec.snapshot.epoch_index, CyclesToMs(vtime, freq),
                 expected_events.size());
  } else {
    process_arrivals();  // admit anything due at virtual time zero
    sample_queue();
    // Snapshot 0 is written at loop entry, after the time-zero arrivals,
    // so every snapshot (including the first) captures a top-of-loop
    // state and resume re-enters uniformly.
    if (ck.enabled()) snapshot_pending = true;
  }

  while (true) {
    if (!ck_error.ok()) return ck_error;
    if (snapshot_pending) {
      snapshot_pending = false;
      Status snapped = write_snapshot();
      if (!snapped.ok()) return snapped;
    }
    if (ck.crash_at_ms > 0 && CyclesToMs(vtime, freq) >= ck.crash_at_ms) {
      // Deterministic self-kill for crash testing: no destructors, no
      // atexit handlers — the closest in-process stand-in for SIGKILL.
      std::fprintf(stderr, "# crash-at: exiting at virtual %.3f ms\n",
                   CyclesToMs(vtime, freq));
      std::_Exit(137);
    }
    // Promote due retries to the queue tail, in (ready, seq) order —
    // retried queries requeue like fresh work, deterministically.
    if (!retry_queue.empty()) {
      std::sort(retry_queue.begin(), retry_queue.end(),
                [](const Instance& a, const Instance& b) {
                  return a.retry_ready != b.retry_ready
                             ? a.retry_ready < b.retry_ready
                             : a.seq < b.seq;
                });
      size_t due = 0;
      while (due < retry_queue.size() &&
             retry_queue[due].retry_ready <= vtime) {
        Instance inst = retry_queue[due++];
        inst.est_ms = ctl.MeanServiceMs(inst.cls);
        queued_est_ms += inst.est_ms;
        queue.push_back(inst);
      }
      retry_queue.erase(retry_queue.begin(),
                        retry_queue.begin() + static_cast<long>(due));
    }

    // Schedule: fill free core slots from the FIFO queue. Pop-time
    // policies, in order: an already-expired deadline times the query
    // out, the shed policy drops predicted deadline misses, brown-out
    // swaps in the cheaper class, and the fault plan decides this
    // attempt's fate.
    for (Instance& slot : slots) {
      if (slot.tenant >= 0) continue;
      while (queue_head < queue.size()) {
        const uint32_t depth =
            static_cast<uint32_t>(queue.size() - queue_head);
        Instance inst = queue[queue_head++];
        queued_est_ms = std::max(0.0, queued_est_ms - inst.est_ms);
        const size_t t = static_cast<size_t>(inst.tenant);
        if (inst.deadline < kInf && vtime >= inst.deadline) {
          terminal(inst, engine::QueryOutcome::kTimedOut, /*core=*/-1);
          continue;
        }
        if (shed_on && inst.deadline < kInf && !protected_tenant(t) &&
            quota_ok(tstates[t]) &&
            ctl.WouldMissDeadline(inst.cls, /*queued_work_ms=*/0,
                                  CyclesToMs(inst.deadline - vtime, freq))) {
          terminal(inst, engine::QueryOutcome::kShed, /*core=*/-1);
          continue;
        }
        if (config_.brownout.queue_depth > 0 &&
            depth >= static_cast<uint32_t>(config_.brownout.queue_depth) &&
            classes_[inst.cls].downgrade >= 0) {
          inst.cls = static_cast<size_t>(classes_[inst.cls].downgrade);
          ++brownout_downgrades;
          metrics.Count(obs::metric_names::kServerBrownoutDowngrades,
                        "tenant", tenants_[t].name);
        }
        if (faults_on) {
          const uint64_t fault_epoch = static_cast<uint64_t>(
              CyclesToMs(vtime, freq) / config_.faults.epoch_ms);
          const FaultDecision draw = EvalFault(
              config_.faults, inst.tenant, fault_epoch,
              inst.seq * 1024 + static_cast<uint64_t>(inst.attempt));
          inst.will_fail = draw.fail;
          inst.slow = draw.slow_factor;
          if (draw.fail) {
            ++faults_injected;
            metrics.Count(obs::metric_names::kServerFaultsInjected,
                          "tenant", tenants_[t].name);
          }
          if (draw.slow_factor > 1.0) {
            ++slowdowns_injected;
            metrics.Count(obs::metric_names::kServerSlowdownsInjected,
                          "tenant", tenants_[t].name);
          }
        }
        inst.start = vtime;
        slot = inst;
        break;
      }
    }
    if (queue_head > 0 && queue_head == queue.size()) {
      queue.clear();
      queue_head = 0;
    }

    running.clear();
    for (Instance& slot : slots) {
      if (slot.tenant >= 0) running.push_back(&slot);
    }

    double next_arrival = kInf;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantState& ts = tstates[t];
      if (ts.submitted >= ts.cap) continue;
      next_arrival = std::min(next_arrival, ts.next_open_arrival);
      for (const double wake : ts.client_wake) {
        next_arrival = std::min(next_arrival, wake);
      }
    }

    double next_retry = kInf;
    for (const Instance& inst : retry_queue) {
      next_retry = std::min(next_retry, inst.retry_ready);
    }

    if (running.empty()) {
      const double wake = std::min(next_arrival, next_retry);
      if (wake == kInf) break;  // drained: no work, no arrivals, no retries
      vtime = std::max(vtime, wake);
      roll_epochs(vtime);
      process_arrivals();
      sample_queue();
      continue;
    }

    const double scale = solve_epoch(running, &g);
    double next_completion = kInf;
    double next_deadline = kInf;
    for (size_t i = 0; i < running.size(); ++i) {
      // A cancelling query stops at its boundary fraction, not at drain.
      const double target =
          running[i]->cancel_remaining >= 0 ? running[i]->cancel_remaining : 0;
      next_completion = std::min(
          next_completion,
          vtime + (running[i]->remaining - target) * g[i]);
      // A running query crossing its deadline is an event: it must be
      // marked for boundary cancellation at that instant.
      if (running[i]->cancel_remaining < 0 &&
          running[i]->deadline < kInf && running[i]->deadline > vtime) {
        next_deadline = std::min(next_deadline, running[i]->deadline);
      }
    }
    const double next_event = std::min(
        std::min(next_completion, next_arrival),
        std::min(next_deadline, next_retry));
    const double dt = next_event - vtime;
    if (dt > 0) {
      double rate_bpc = 0;
      for (size_t i = 0; i < running.size(); ++i) {
        const QueryClass& cls = classes_[running[i]->cls];
        rate_bpc += (cls.bytes_seq + cls.bytes_rand) / g[i];
        running[i]->remaining -= dt / g[i];
        running[i]->scale_cycles += scale * dt;
        running[i]->run_cycles += dt;
      }
      total_bytes += rate_bpc * dt;
      peak_gbps = std::max(peak_gbps, rate_bpc * freq);
      if (scale < 0.999) saturated = true;
    }
    vtime = next_event;
    roll_epochs(vtime);

    // Deadline crossings: a running query past its deadline is marked to
    // cancel at the next top-level operator-region boundary of its class —
    // it keeps running (and contending) until its progress reaches that
    // fraction. A boundary of 1.0 means the query finishes late instead.
    for (Instance& slot : slots) {
      if (slot.tenant < 0 || slot.cancel_remaining >= 0) continue;
      if (slot.deadline == kInf || vtime < slot.deadline) continue;
      const double progress = 1.0 - slot.remaining;
      double boundary = 1.0;
      for (const double f : classes_[slot.cls].cancel_fractions) {
        if (f > progress + kDoneEps) {
          boundary = f;
          break;
        }
      }
      slot.cancel_remaining = 1.0 - boundary;
    }

    // Completions first (slot order), then arrivals at the same instant.
    for (size_t slot_index = 0; slot_index < slots.size(); ++slot_index) {
      Instance& slot = slots[slot_index];
      if (slot.tenant < 0) continue;
      const bool done = slot.remaining <= kDoneEps;
      const bool cancelled =
          slot.cancel_remaining >= 0 &&
          slot.remaining <= slot.cancel_remaining + kDoneEps;
      if (!done && !cancelled) continue;
      const size_t t = static_cast<size_t>(slot.tenant);
      const TenantConfig& tc = tenants_[t];
      TenantState& ts = tstates[t];
      if (done && slot.will_fail) {
        // The attempt ran to completion and then failed transiently (the
        // full contention cost was paid). Retry with backoff if budget
        // remains, else the query fails terminally.
        if (slot.attempt <= config_.retry.max_retries) {
          ++ts.retries;
          metrics.Count(obs::metric_names::kServerRetriesTotal, "tenant",
                        tc.name);
          Rng jitter_rng(Mix64(config_.faults.seed ^ kBackoffSalt) +
                         slot.seq * 1024 +
                         static_cast<uint64_t>(slot.attempt));
          const double backoff_ms = RetryBackoffMs(
              config_.retry, slot.attempt, jitter_rng.NextDouble());
          metrics.Observe(obs::metric_names::kServerBackoffMs, "tenant",
                          tc.name, backoff_ms);
          Instance again = slot;
          ++again.attempt;
          again.remaining = 1.0;
          again.cancel_remaining = -1;
          again.will_fail = false;
          again.slow = 1.0;
          again.scale_cycles = 0;
          again.run_cycles = 0;
          again.retry_ready = vtime + MsToCycles(backoff_ms, freq);
          retry_queue.push_back(again);
          journal_event(JournalEventType::kRetry, again);
        } else {
          terminal(slot, engine::QueryOutcome::kFailed,
                   static_cast<int>(slot_index));
        }
        slot = Instance{};
        continue;
      }
      if (!done && cancelled) {
        terminal(slot, engine::QueryOutcome::kTimedOut,
                 static_cast<int>(slot_index));
        slot = Instance{};
        continue;
      }
      const double latency_ms = CyclesToMs(vtime - slot.arrival, freq);
      ts.latencies_ms.push_back(latency_ms);
      const size_t bucket = HistBucket(latency_ms);
      if (ts.histogram.size() <= bucket) ts.histogram.resize(bucket + 1, 0);
      ++ts.histogram[bucket];
      ++ts.completed;
      engine_latencies[classes_[slot.cls].engine].push_back(latency_ms);
      ClassStats& cs = cstats[slot.cls];
      ++cs.executions;
      cs.service_cycles += vtime - slot.start;
      cs.scale_cycles += slot.scale_cycles;
      cs.run_cycles += slot.run_cycles;
      all_latencies.push_back(latency_ms);
      if (epoch_cycles > 0) {
        acc.lat.push_back(latency_ms);
        acc.tenant_lat[tc.name].push_back(latency_ms);
        acc.class_lat[classes_[slot.cls].label].push_back(latency_ms);
      }
      ctl.RecordCompletion(slot.cls, CyclesToMs(vtime - slot.start, freq));
      metrics.Count(obs::metric_names::kServerQueriesCompleted, "tenant",
                    tc.name);
      metrics.Observe(obs::metric_names::kServerLatencyMs, "tenant", tc.name,
                      latency_ms);
      metrics.Observe(obs::metric_names::kServerQueueWaitMs, "tenant",
                      tc.name, CyclesToMs(slot.start - slot.arrival, freq));
      journal_event(JournalEventType::kComplete, slot);
      if (slot.sampled) {
        obs::QuerySpan span;
        span.seq = slot.seq;
        span.tenant = tc.name;
        span.cls = classes_[slot.cls].label;
        span.arrival_ms = CyclesToMs(slot.arrival, freq);
        span.start_ms = CyclesToMs(slot.start, freq);
        span.end_ms = CyclesToMs(vtime, freq);
        span.core = static_cast<int>(slot_index);
        span.attempts = static_cast<uint32_t>(slot.attempt);
        spans.push_back(std::move(span));
      }
      if (slot.client >= 0) {
        ts.client_wake[static_cast<size_t>(slot.client)] =
            vtime + MsToCycles(ExpDraw(ts.rng, tc.think_ms), freq);
      }
      slot = Instance{};  // frees the slot (tenant = -1)
    }
    process_arrivals();
    sample_queue();
  }

  if (!ck_error.ok()) return ck_error;
  if (ck.enabled()) {
    if (expected_pos < expected_events.size()) {
      return Status::Internal(
          "journal replay incomplete: " +
          std::to_string(expected_events.size() - expected_pos) +
          " journaled record(s) were never re-derived");
    }
    Status closed = journal.Close();
    if (!closed.ok()) return closed;
  }

  // --- assemble the record -------------------------------------------
  // Close the trailing partial epoch so late completions are windowed.
  if (epoch_cycles > 0 && (vtime > epoch_start || epochs.empty())) {
    close_epoch(vtime);
  }

  ServeResult result;
  obs::ServerRecord& record = result.record;
  record.enabled = true;
  record.cores = cores;
  record.vtime_ms = CyclesToMs(vtime, freq);
  const double vtime_s = record.vtime_ms / 1000.0;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    TenantState& ts = tstates[t];
    total_submitted += ts.submitted;
    total_completed += ts.completed;
    obs::TenantRecord rec;
    rec.name = tenants_[t].name;
    rec.engine = tenants_[t].engine;
    rec.submitted = ts.submitted;
    rec.completed = ts.completed;
    rec.admitted = ts.submitted - ts.rejected;
    rec.rejected = ts.rejected;
    rec.shed = ts.shed;
    rec.timed_out = ts.timed_out;
    rec.failed = ts.failed;
    rec.retries = ts.retries;
    // The admission accounting invariant: every admitted query reaches
    // exactly one terminal disposition.
    UOLAP_CHECK_MSG(
        rec.admitted == rec.completed + rec.shed + rec.timed_out + rec.failed,
        "serving accounting: admitted != completed + shed + timed_out + "
        "failed");
    record.admitted += rec.admitted;
    record.rejected += rec.rejected;
    record.shed += rec.shed;
    record.timed_out += rec.timed_out;
    record.failed += rec.failed;
    record.retries += rec.retries;
    std::vector<double> sorted = ts.latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (const double l : sorted) sum += l;
    rec.mean_ms = sorted.empty() ? 0 : sum / static_cast<double>(sorted.size());
    rec.p50_ms = Percentile(sorted, 0.50);
    rec.p95_ms = Percentile(sorted, 0.95);
    rec.p99_ms = Percentile(sorted, 0.99);
    rec.throughput_qps =
        vtime_s > 0 ? static_cast<double>(ts.completed) / vtime_s : 0;
    rec.latency_histogram = std::move(ts.histogram);
    record.tenants.push_back(std::move(rec));
  }
  record.submitted = total_submitted;
  record.completed = total_completed;
  record.faults_injected = faults_injected;
  record.slowdowns_injected = slowdowns_injected;
  record.brownout_downgrades = brownout_downgrades;
  record.shed_policy = std::string(ShedPolicyName(adm.policy));
  record.fault_plan = config_.faults.ToString();
  record.throughput_qps =
      vtime_s > 0 ? static_cast<double>(total_completed) / vtime_s : 0;
  record.avg_socket_gbps = vtime > 0 ? total_bytes * freq / vtime : 0;
  record.peak_socket_gbps = peak_gbps;
  record.saturated = saturated;
  std::sort(all_latencies.begin(), all_latencies.end());
  record.p50_ms = Percentile(all_latencies, 0.50);
  record.p95_ms = Percentile(all_latencies, 0.95);
  record.p99_ms = Percentile(all_latencies, 0.99);

  for (auto& [key, latencies] : engine_latencies) {
    std::sort(latencies.begin(), latencies.end());
    obs::EngineLoadRecord rec;
    rec.engine = key;
    rec.completed = latencies.size();
    rec.p50_ms = Percentile(latencies, 0.50);
    rec.p95_ms = Percentile(latencies, 0.95);
    rec.p99_ms = Percentile(latencies, 0.99);
    rec.throughput_qps =
        vtime_s > 0 ? static_cast<double>(latencies.size()) / vtime_s : 0;
    record.engines.push_back(std::move(rec));
  }

  for (size_t i = 0; i < classes_.size(); ++i) {
    const QueryClass& cls = classes_[i];
    const ClassStats& cs = cstats[i];
    obs::QueryClassRecord rec;
    rec.label = cls.label;
    rec.engine = cls.engine;
    rec.executions = cs.executions;
    rec.solo_ms = cls.solo.time_ms;
    rec.corun_ms =
        cs.executions > 0
            ? CyclesToMs(cs.service_cycles /
                             static_cast<double>(cs.executions),
                         freq)
            : 0;
    rec.avg_bw_scale =
        cs.run_cycles > 0 ? cs.scale_cycles / cs.run_cycles : 1.0;
    rec.solo_dcache_frac = cls.solo.cycles.Frac(cls.solo.cycles.dcache);
    const core::ProfileResult corun =
        model.Analyze(cls.counters, rec.avg_bw_scale);
    rec.corun_dcache_frac = corun.cycles.Frac(corun.cycles.dcache);
    record.classes.push_back(rec);

    result.class_runs.push_back(cls.solo_run);
    if (cs.executions > 0 && rec.avg_bw_scale < 0.999) {
      // Re-analysis of the solo profile at the contention scale the class
      // actually observed — the co-run Top-Down view of the same counters.
      obs::RunRecord corun_run = cls.solo_run;
      corun_run.label += " [corun]";
      corun_run.bw_scale = rec.avg_bw_scale;
      corun_run.cores[0].whole = corun;
      obs::AnalyzeTree(cfg, &corun_run.cores[0].regions, rec.avg_bw_scale);
      corun_run.makespan_cycles = corun.total_cycles;
      corun_run.time_ms = corun.time_ms;
      corun_run.socket_bandwidth_gbps = corun.bandwidth_gbps;
      // The audit covered the solo machine state, not this re-analysis.
      corun_run.audited = false;
      corun_run.audit_checks = 0;
      corun_run.violations.clear();
      result.class_runs.push_back(std::move(corun_run));
    }
  }

  record.queue_timeline = std::move(timeline);

  // Serving telemetry: epoch windows, sampled spans (admission order),
  // SLO verdicts, and the run-level metric rollups.
  record.epoch_ms = config_.epoch_ms;
  record.epochs = std::move(epochs);
  record.trace_sample_n = config_.trace_sample_n;
  std::sort(spans.begin(), spans.end(),
            [](const obs::QuerySpan& a, const obs::QuerySpan& b) {
              return a.seq < b.seq;
            });
  record.spans = std::move(spans);
  record.slos = config_.slos;
  record.slo_results = obs::EvaluateSlos(config_.slos, record);

  namespace mn = obs::metric_names;
  metrics.SetGauge(mn::kServerVtimeMs, record.vtime_ms);
  metrics.MaxGauge(mn::kServerSocketGbpsPeak, record.peak_socket_gbps);
  metrics.MaxGauge(mn::kServerQueueDepthPeak,
                   static_cast<double>(peak_queued));
  metrics.Count(mn::kServerEpochsTotal, record.epochs.size());
  metrics.Count(mn::kServerSpansRecorded, record.spans.size());
  for (const obs::SloResult& r : record.slo_results) {
    if (!r.pass) {
      metrics.Count(mn::kServerSloViolations, "slo", r.spec.ToString());
    }
  }
  return result;
}

}  // namespace uolap::server
