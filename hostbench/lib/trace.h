#ifndef UOLAP_HOSTBENCH_TRACE_H_
#define UOLAP_HOSTBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace uolap::hostbench {

/// One host-time span around a call into a uolap layer. Spans of one
/// benchmark operation share `op`; `parent` is the index of the enclosing
/// span (-1 at top level).
struct Span {
  std::string name;
  uint64_t op = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans are opened and
/// closed on the benchmark's own thread (the calls it wraps may fan out to
/// a thread pool inside), so nesting is a stack. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Operation id stamped on spans opened from now on.
  void SetOp(uint64_t op) { op_ = op; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(std::string_view name);
  /// Closes the span Begin returned; `index` must be the innermost open.
  void End(int index);

  /// Appends an already-timed span (used by tests).
  int Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its direct children (overlapping children counted once).
  std::vector<int64_t> SelfTimesNs() const;

  /// Self time summed by span name over spans [begin, end).
  std::map<std::string, int64_t> SelfNsByName(size_t begin,
                                               size_t end) const;

  /// Writes every span as one tab-separated line:
  /// op, name, parent, start_ns, end_ns, self_ns.
  Status WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Monotonic host clock in nanoseconds.
int64_t NowNs();

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_TRACE_H_
