#ifndef UOLAP_HOSTBENCH_WORKLOADS_H_
#define UOLAP_HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/counters.h"
#include "engine/query_spec.h"
#include "trace.h"

namespace uolap::hostbench {

/// The workloads, in the order README.md describes them.
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"scan", "multicore",
                                                 "serve"};
  return names;
}

/// Host seconds of one set-up, split by layer.
struct SetupTimes {
  double total_s = 0;
  double dbgen_s = 0;      ///< tpch::DbGen::Generate
  double construct_s = 0;  ///< EngineRegistry::Get of every engine used
  double class_sim_s = 0;  ///< serve: cold Server::Run minus a warm one
  /// serve: simulated instructions the class simulation retired.
  uint64_t class_sim_instructions = 0;
};

/// kFull is the measured pass. kBare drops one layer so the traced run can
/// price it: engine workloads run without a RegionProfiler attached (and
/// skip its Finish/AnalyzeTree); serve runs a second server with
/// checkpointing off, built (outside the pass's clock) on the first kBare
/// pass after a set-up.
enum class PassKind { kFull, kBare };

/// One operation of a pass and everything checked or measured about it.
struct OpOutcome {
  std::string label;       ///< "<engine>/<spec label>[/xN]" or "serve/run"
  std::string answer_key;  ///< ops with equal keys must agree on `answer`
  std::optional<engine::QueryResult> answer;
  bool ok = true;
  std::string error;
  double host_ms = 0;
  /// True when the op drove an engine through simulated cores (false for a
  /// warm serve run, whose `counters` are the per-class solo profiles
  /// simulated in set-up).
  bool engine_work = true;
  core::CoreCounters counters;  ///< summed over the op's cores
  double sim_cycles = 0;        ///< makespan (serve: virtual makespan)
  /// Serve: the run's virtual-time outputs (makespan ms, p99 ms, queries
  /// submitted, completed). Warm runs of one Server repeat them exactly.
  std::vector<double> virtual_outputs;
};

/// One pass over a workload's fixed operation list.
struct PassStats {
  PassKind kind = PassKind::kFull;
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU seconds over the pass
  std::vector<OpOutcome> ops;
  uint64_t json_bytes = 0;  ///< engine workloads: the pass's profile JSON
  // serve only
  uint64_t vqueries = 0;  ///< virtual queries submitted over the pass
  double vp99_ms = 0;     ///< virtual-time p99 of the last run
  uint64_t checkpoint_bytes = 0;  ///< per run
  uint64_t checkpoint_files = 0;  ///< per run
  size_t span_begin = 0;  ///< the pass's spans in the tracer
  size_t span_end = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the database for `seed` and constructs the engines (and,
  /// for serve, the checkpointing server). Replaces any earlier set-up.
  virtual SetupTimes Setup(uint64_t seed, Tracer* tracer) = 0;

  /// Runs the fixed operation list once. `next_op` numbers operations
  /// across passes (span ids).
  virtual PassStats RunPass(PassKind kind, Tracer* tracer,
                            uint64_t* next_op) = 0;

  /// Scale factor in use.
  virtual double sf() const = 0;
};

/// Returns null for an unknown name. The serve workload creates (and
/// removes) its per-operation checkpoint directories under `out_dir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& out_dir);

/// Marks as failed every op whose answer differs from the first answer
/// seen under the same answer key (the other engines' answer to the same
/// spec). `reference` carries answers across passes; pass an empty map for
/// the first pass. Returns the number of ops newly marked failed.
size_t CheckAnswers(std::vector<OpOutcome>* ops,
                    std::map<std::string, engine::QueryResult>* reference);

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_WORKLOADS_H_
