#include "tpcc/trace_gen.h"

#include <chrono>

namespace lss::tpcc {

TpccTraceResult GenerateTpccTrace(const TpccConfig& config,
                                  uint64_t warm_txns, uint64_t measure_txns,
                                  uint64_t checkpoint_every,
                                  uint32_t presplit_shards) {
  const auto t0 = std::chrono::steady_clock::now();
  TpccTraceResult result;
  TpccDb db(config, &result.trace);
  db.Populate();
  // Push the populated database to storage so the load phase of the
  // trace writes every page at least once (the replaying store needs the
  // full data set resident before steady-state measurement).
  db.Checkpoint();
  result.pages_after_load = db.PageCount();

  uint64_t since_checkpoint = 0;
  auto run = [&](uint64_t txns) {
    for (uint64_t i = 0; i < txns; ++i) {
      db.RunNextTransaction();
      if (checkpoint_every > 0 && ++since_checkpoint >= checkpoint_every) {
        db.Checkpoint();
        since_checkpoint = 0;
      }
    }
  };
  run(warm_txns);
  result.measure_from = result.trace.Size();
  run(measure_txns);
  db.Checkpoint();
  result.pages_final = db.PageCount();
  result.transactions = warm_txns + measure_txns;

  const BufferPool& pool = db.pool();
  result.pool_hits = pool.hits();
  result.pool_misses = pool.misses();
  result.pool_evictions = pool.evictions();
  result.pool_write_backs = pool.write_backs();

  if (presplit_shards > 0) {
    result.presplit =
        SplitTrace(result.trace, result.measure_from, presplit_shards);
  }
  result.generation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace lss::tpcc
