#ifndef LSS_WORKLOAD_RUNNER_H_
#define LSS_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "core/store.h"
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
  /// Measured write amplification (Equation 2).
  double wamp = 0.0;
  /// Mean segment emptiness at clean time during measurement.
  double mean_clean_emptiness = 0.0;
  /// Updates performed in the measurement phase.
  uint64_t measured_updates = 0;
  /// Live-bytes / device-bytes at the end (should track fill_factor).
  double effective_fill = 0.0;
  /// Paper figure label of the variant.
  std::string variant;

  // --- Device-side measurements (all zero on the null backend) --------

  /// Bytes the backend physically wrote during the measurement phase.
  uint64_t device_bytes_written = 0;
  /// Measured device bytes per logical user byte — the device analogue
  /// of the simulator's 1 + Wamp prediction (plus segment-tail and
  /// metadata overhead).
  double device_bytes_per_user_byte = 0.0;
  /// fsync calls during measurement.
  uint64_t device_fsyncs = 0;
  /// Seconds the thread driving the backend spent *blocked* on device
  /// work during measurement (StoreStats::BackendBlockingSeconds): for
  /// the file backend its pwrite + fsync time, for the uring backend
  /// submit + CQE-wait time — the difference at equal fsync policy is
  /// the overlap the ring bought.
  double backend_blocking_seconds = 0.0;
  /// Shards whose io_uring capability probe found a working ring (zero
  /// on other backends or when the kernel/seccomp disallows io_uring).
  uint64_t uring_available = 0;
  /// Payload-write SQEs submitted during measurement (uring backend).
  uint64_t uring_submitted = 0;

  // --- Async seal pipeline (zero in synchronous mode) -----------------

  /// Group-commit fsync rounds issued by the per-shard I/O threads.
  uint64_t group_fsyncs = 0;
  /// Times a writer blocked on a full seal queue (backpressure).
  uint64_t seal_queue_stalls = 0;
  /// Open-segment checkpoint records persisted.
  uint64_t checkpoints_written = 0;
  /// Checkpoint rounds taken (periodic or barrier-driven sweeps over the
  /// open segments).
  uint64_t checkpoint_rounds = 0;
  /// Full (whole-prefix) checkpoint records among checkpoints_written.
  uint64_t checkpoint_full_records = 0;
  /// Delta (suffix-only) checkpoint records among checkpoints_written.
  uint64_t checkpoint_delta_records = 0;
  /// Device bytes spent on checkpointing alone (payload suffix or full
  /// rewrite plus the metadata record).
  uint64_t checkpoint_bytes_written = 0;
  /// Withheld-slot reuses that re-homed the slot's still-needed entries
  /// under a durable record before overwriting it.
  uint64_t withheld_slot_reuses_rehomed = 0;
  /// Withheld-slot reuses where nothing needed re-homing.
  uint64_t withheld_slot_reuses_plain = 0;

  // --- Durable-record accounting (for device-byte predictions) --------

  /// Segments sealed (user + GC) during measurement.
  uint64_t segments_sealed = 0;
  /// Victim segments reclaimed by the cleaner during measurement.
  uint64_t segments_cleaned = 0;
  /// Entries persisted under re-homing records during measurement.
  uint64_t rehome_entries_written = 0;
};

/// Builds a store for `variant` (applying its placement conventions to
/// `config`), installs the generator's exact-frequency oracle when the
/// variant needs one, and runs load -> warm-up -> measure with updates
/// drawn from `workload`. The store is destroyed on return.
RunResult RunSynthetic(const StoreConfig& config, Variant variant,
                       const WorkloadGenerator& workload, const RunSpec& spec);

/// Outcome of a parallel run over a ShardedStore.
struct ParallelRunResult {
  /// Aggregated view (status, write amplification, emptiness, fill),
  /// merged across shards — same fields as a single-threaded run.
  RunResult result;
  uint32_t threads = 0;
  uint32_t shards = 0;
  /// Wall-clock seconds spent in the measurement phase.
  double measure_seconds = 0.0;
  /// Measured logical updates per wall-clock second across all threads.
  double updates_per_second = 0.0;
  /// Per-shard measured write amplification, indexed by shard id.
  std::vector<double> shard_wamp;
};

/// Parallel counterpart of RunSynthetic: a ShardedStore with `shards`
/// shards (0 means one per thread) hammered by `threads` worker threads.
/// Each thread draws updates from `workload` with its own deterministic
/// RNG stream (seed + thread id), so a run with threads == 1 and
/// shards == 1 executes the exact update sequence of RunSynthetic and
/// reproduces its write amplification bit-for-bit — the determinism the
/// sharded-store tests pin down. The measurement phase is timed, giving
/// the throughput numbers bench/scale_threads.cc sweeps.
ParallelRunResult RunSyntheticParallel(const StoreConfig& config,
                                       Variant variant,
                                       const WorkloadGenerator& workload,
                                       const RunSpec& spec, uint32_t threads,
                                       uint32_t shards = 0);

/// Replays `trace` through a store for `variant`. Records before
/// `measure_from` (e.g. the population phase) run as warm-up; measurement
/// covers [measure_from, end). When the variant needs an oracle the
/// frequencies are pre-analysed from the measured suffix of the trace, as
/// the paper does for TPC-C (§6.3). `config` supplies the device geometry
/// (choose num_segments to hit the desired fill factor).
RunResult RunTrace(const StoreConfig& config, Variant variant,
                   const Trace& trace, size_t measure_from);

/// Parallel trace replay: the trace streams through a ShardedStore with
/// `shards` shards and one replay thread per shard. A single router
/// thread walks the trace in order and appends each record to the
/// owning shard's bounded FIFO queue (batched, with backpressure), so
/// every shard applies exactly the subsequence of records routed to it,
/// in trace order — and since a page maps to exactly one shard, per-page
/// operation order is preserved. A shard's state evolution depends only
/// on its own op subsequence, so a parallel replay produces bit-for-bit
/// the per-shard stats and final page states of a serial replay of the
/// same trace through an equally-sharded store (the determinism test
/// pins this; with shards == 1 that serial store is RunTrace's).
///
/// Measurement parity with RunTrace: the router injects a reset marker
/// at the measure_from boundary of each shard's queue, so per-shard
/// counters cover exactly the records with global index >= measure_from.
/// Timing starts when the router crosses measure_from (warm-up records
/// still in flight then are bounded by the queue depth) and ends when
/// the last shard drains, giving the updates_per_second throughput
/// numbers alongside RunSyntheticParallel's.
///
/// `presplit` (optional) is a ShardedTrace computed once by SplitTrace —
/// when its shard count matches, replay takes the zero-router fast path:
/// each shard thread streams its own pre-split sub-trace directly, with
/// no routing work, no queue hand-offs and no backpressure stalls. The
/// per-shard record subsequences are identical to what the router would
/// deliver, so results are bit-for-bit the same (the parity test pins
/// this); only the measurement clock differs — the fast path starts it
/// at a clean barrier once every shard has applied its warm-up records.
ParallelRunResult RunTraceParallel(const StoreConfig& config, Variant variant,
                                   const Trace& trace, size_t measure_from,
                                   uint32_t shards,
                                   const ShardedTrace* presplit = nullptr);

/// The replay engine under RunTraceParallel, operating on a
/// caller-created store (which the caller can then inspect — the
/// determinism tests compare per-page final state against a serial
/// replay). Runs router + per-shard replay threads as described above
/// (or the pre-split fast path when `presplit` matches);
/// `measure_seconds_out` (optional) receives the wall-clock time from
/// the measure_from boundary to the last shard draining. Returns the
/// first store error.
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
