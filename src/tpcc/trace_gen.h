#ifndef LSS_TPCC_TRACE_GEN_H_
#define LSS_TPCC_TRACE_GEN_H_

#include <cstdint>

#include "tpcc/tpcc_db.h"
#include "workload/trace.h"

namespace lss::tpcc {

/// Version of the trace *generator* (engine layout + collection
/// pipeline), bumped whenever a change alters the traces it emits —
/// partitioned tables, merge order, format changes, and so on. Cache
/// keys (bench/fig6_tpcc.cc's $TMPDIR trace cache) must mix this in so
/// stale cached traces regenerate instead of silently replaying old
/// data.
inline constexpr uint32_t kTpccTraceFormatVersion = 4;

/// Output of a TPC-C trace-collection run (the paper's §6.3 pipeline:
/// run TPC-C on the B+-tree engine, collect page-write I/O, then replay
/// through the cleaning simulator).
struct TpccTraceResult {
  Trace trace;
  /// Trace index where the measurement phase begins (after population
  /// and warm-up, mirroring "the write amplification was measured during
  /// running phase").
  size_t measure_from = 0;
  /// Database pages right after population.
  uint64_t pages_after_load = 0;
  /// Database pages at the end of the run (TPC-C storage grows over
  /// time, §6.3); size the simulated device as pages_final / fill_factor.
  uint64_t pages_final = 0;
  /// Transactions executed in warm-up + measurement.
  uint64_t transactions = 0;
  /// Worker threads that generated the trace (config.workers; the
  /// latch-coupled engine lets workers exceed warehouses).
  uint32_t workers = 1;
  /// Wall-clock seconds spent generating (populate + all transactions).
  double generation_seconds = 0.0;

  /// Buffer-pool behaviour over the whole generation run (population
  /// through final checkpoint) — how well the cache absorbed the
  /// workload under config.pool_policy. Surfaced by fig6_tpcc's JSON.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_write_backs = 0;
  uint64_t pool_latch_acquisitions = 0;

  /// Pre-split replay feeds (empty unless requested): sub-trace per
  /// replay shard, computed once here so every replay of a cached trace
  /// skips ReplayTraceParallel's own SplitTrace.
  ShardedTrace presplit;
};

/// Populates a TPC-C database and runs `warm_txns + measure_txns`
/// transactions of the standard mix, recording every buffer-pool page
/// write-back. `checkpoint_every` > 0 additionally flushes all dirty
/// pages every that-many transactions (a fuzzy checkpoint), which is how
/// cold dirty pages reach storage in engines whose cache would otherwise
/// absorb them. A final checkpoint closes the trace.
///
/// config.workers > 1 generates in parallel: population and the
/// transaction phases fan out over that many threads (per-warehouse
/// affinity, see TpccDb), each thread records the write-backs *it*
/// triggers into its own buffer, and the buffers are merged with a
/// stable round-robin order at each phase boundary (approximating the
/// temporal interleaving of the streams without cross-thread
/// synchronisation on the trace itself). Checkpoints are driven off a
/// global transaction counter so their cadence matches the serial run.
/// Which thread evicts which page depends on scheduling, so parallel
/// generation is *not* bit-reproducible run to run — downstream replay
/// is a pure function of the trace, which is why benches cache the
/// generated trace on disk.
///
/// `presplit_shards` > 0 additionally splits the finished trace into
/// that many per-shard sub-traces (SplitTrace), stored in
/// result.presplit; benches cache the split alongside the trace so
/// parallel replays never pay the split.
TpccTraceResult GenerateTpccTrace(const TpccConfig& config,
                                  uint64_t warm_txns, uint64_t measure_txns,
                                  uint64_t checkpoint_every = 0,
                                  uint32_t presplit_shards = 0);

}  // namespace lss::tpcc

#endif  // LSS_TPCC_TRACE_GEN_H_
