#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/macros.h"

namespace uolap::hostbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.op = op_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (!enabled_) return;
  UOLAP_CHECK_MSG(!open_.empty() && open_.back() == index,
                  "spans must close innermost first");
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

int Tracer::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> Tracer::SelfNsByName(size_t begin,
                                                    size_t end) const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, int64_t> out;
  for (size_t i = begin; i < end && i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const std::vector<int64_t> self = SelfTimesNs();
  std::fprintf(f, "op\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%s\t%d\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.op), s.name.c_str(),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace uolap::hostbench
