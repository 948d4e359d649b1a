#ifndef LSS_WORKLOAD_RUNNER_H_
#define LSS_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "core/stats.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace lss {

/// Parameters of one simulation run, mirroring the paper's methodology
/// (§6.2): fill the store, run updates until write amplification
/// stabilises, then measure.
struct RunSpec {
  /// User-visible pages / physical pages (paper's F).
  double fill_factor = 0.8;
  /// Warm-up updates, as a multiple of the user page count.
  double warmup_multiplier = 6.0;
  /// Measured updates, as a multiple of the user page count.
  double measure_multiplier = 12.0;
  uint64_t seed = 42;
};

/// Outcome of a run.
struct RunResult {
  Status status;
  /// Paper figure label of the variant.
  std::string variant;
  /// Measured write amplification (Equation 2).
  double wamp = 0.0;
  /// Mean segment emptiness at clean time during measurement.
  double mean_clean_emptiness = 0.0;
  /// Updates performed in the measurement phase.
  uint64_t measured_updates = 0;
  /// Live-bytes / device-bytes at the end (should track fill_factor).
  double effective_fill = 0.0;
  uint32_t threads = 0;
  uint32_t shards = 0;
  /// Wall-clock seconds spent in the measurement phase.
  double measure_seconds = 0.0;
  /// Measured logical updates per wall-clock second across all threads.
  double updates_per_second = 0.0;
  /// Per-shard measured write amplification, indexed by shard id.
  std::vector<double> shard_wamp;
  /// Measurement-phase counters merged across shards (device, seal
  /// pipeline and checkpoint counters included; the device ones are all
  /// zero on the null backend).
  StoreStats stats;
};

/// Builds a ShardedStore with `shards` shards (0 means one per thread)
/// for `variant` (applying its placement conventions to `config`),
/// installs the generator's exact-frequency oracle when the variant
/// needs one, and runs load -> warm-up -> measure with `threads` worker
/// threads drawing updates from `workload`. Each thread has its own
/// deterministic RNG stream (thread 0 uses spec.seed unchanged), and a
/// 1-thread run executes on the calling thread, so threads == 1 with
/// shards == 1 is the paper's single-threaded simulator, reproducible
/// bit for bit. The measurement phase is timed. The store is destroyed
/// on return.
RunResult RunSynthetic(const StoreConfig& config, Variant variant,
                       const WorkloadGenerator& workload, const RunSpec& spec,
                       uint32_t threads = 1, uint32_t shards = 0);

/// Replays `trace` through a ShardedStore with `shards` shards for
/// `variant` (see ReplayTraceParallel). Records before `measure_from`
/// (e.g. the population phase) run as warm-up; measurement covers
/// [measure_from, end). When the variant needs an oracle the frequencies
/// are pre-analysed from the measured suffix of the trace, as the paper
/// does for TPC-C (§6.3). `config` supplies the device geometry (choose
/// num_segments to hit the desired fill factor). `presplit` (optional)
/// is a SplitTrace result computed once and reused across runs.
RunResult RunTrace(const StoreConfig& config, Variant variant,
                   const Trace& trace, size_t measure_from,
                   uint32_t shards = 1,
                   const ShardedTrace* presplit = nullptr);

/// The replay engine under RunTrace, operating on a caller-created store
/// (which the caller can then inspect). Each shard replays, on its own
/// thread, exactly the subsequence of records PageShard routes to it, in
/// trace order — the sub-traces of `presplit` when its shard count
/// matches, otherwise those of a SplitTrace made here. A page maps to
/// exactly one shard, so per-page operation order is preserved, and a
/// shard's state depends only on its own subsequence: the per-shard
/// stats and final page states equal those of a serial replay of the
/// whole trace through an equally-sharded store. With one shard the
/// trace is replayed in place on the calling thread.
///
/// Every shard applies its warm-up records, then all shards meet at a
/// barrier, reset their counters and apply their measured suffix, so
/// per-shard counters cover exactly the records with global index >=
/// measure_from. `measure_seconds_out` (optional) receives the
/// wall-clock time from that barrier to the last shard finishing.
/// Returns the first store error.
Status ReplayTraceParallel(ShardedStore* store, const Trace& trace,
                           size_t measure_from,
                           double* measure_seconds_out = nullptr,
                           const ShardedTrace* presplit = nullptr);

/// Convenience: a StoreConfig scaled so that `user_pages` occupy fill
/// factor `f` of the device, with trigger/batch/buffer kept at the
/// bench defaults (segment_bytes/page_bytes from `base`).
StoreConfig ScaleConfigForFill(const StoreConfig& base, uint64_t user_pages,
                               double f);

}  // namespace lss

#endif  // LSS_WORKLOAD_RUNNER_H_
