#ifndef LSS_WORKLOAD_TRACE_H_
#define LSS_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace lss {

/// One page I/O in a collected trace.
struct TraceRecord {
  enum class Op : uint8_t { kWrite = 0, kDelete = 1 };
  Op op = Op::kWrite;
  PageId page = kInvalidPage;
  uint32_t bytes = 0;  // 0 = store default page size
};

/// A page-level write trace, the interface between the TPC-C/B+-tree
/// substrate and the cleaning simulator (paper §6.3: "After collecting
/// the I/O traces, we replayed them using the simulator"). Traces can be
/// saved/loaded in a small binary format so expensive trace generation is
/// paid once per bench run.
class Trace {
 public:
  Trace() = default;

  void Append(TraceRecord r) { records_.push_back(r); }
  void AppendWrite(PageId page, uint32_t bytes = 0) {
    records_.push_back(TraceRecord{TraceRecord::Op::kWrite, page, bytes});
  }
  void AppendDelete(PageId page) {
    records_.push_back(TraceRecord{TraceRecord::Op::kDelete, page, 0});
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t Size() const { return records_.size(); }
  bool Empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }

  /// Largest page id referenced + 1 (0 for an empty trace).
  PageId MaxPageId() const;

  /// Per-page exact update frequency over records [begin, end), normalised
  /// to mean 1 across pages that appear. This is how the paper's TPC-C
  /// experiment obtains oracle frequencies for multi-log-opt / MDC-opt:
  /// "By pre-analyzing page update frequencies" (§6.3).
  std::vector<double> ComputeExactFrequencies(size_t begin, size_t end) const;

  /// Binary serialisation. Returns false (and logs nothing) on I/O error.
  bool SaveTo(const std::string& path) const;
  bool LoadFrom(const std::string& path);

 private:
  std::vector<TraceRecord> records_;
};

/// A trace pre-split by replay shard: sub-trace `s` holds exactly the
/// subsequence of records that PageShard routes to shard `s`, in trace
/// order, with the measure_from boundary translated into each
/// subsequence. ReplayTraceParallel replays these sub-traces, one shard
/// thread each; splitting once at generation time lets every parallel
/// replay of the same trace reuse the split.
struct ShardedTrace {
  uint32_t shards = 0;  // 0 = not split
  std::vector<Trace> sub;
  /// Per-shard index of the first measured record in `sub[s]` (== that
  /// sub-trace's size when every routed record precedes the boundary).
  std::vector<size_t> measure_from;

  bool Valid() const {
    return shards > 0 && sub.size() == shards &&
           measure_from.size() == shards;
  }
};

/// Splits `trace` for `shards`-way replay (PageShard routing, the same
/// function ShardedStore routes pages with).
ShardedTrace SplitTrace(const Trace& trace, size_t measure_from,
                        uint32_t shards);

}  // namespace lss

#endif  // LSS_WORKLOAD_TRACE_H_
