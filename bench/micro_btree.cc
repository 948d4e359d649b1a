// Micro-benchmarks for the B+-tree storage engine substrate: point ops
// and scans through a small buffer pool, and TPC-C transaction
// throughput. Explains the cost of regenerating the Figure 6 trace.

#include <string>

#include <benchmark/benchmark.h>

#include "btree/btree.h"
#include "tpcc/tpcc_db.h"
#include "util/rng.h"

namespace lss {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_BtreeInsert(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  uint64_t i = 0;
  const std::string value(120, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(Key(i++), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeGet(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  const std::string value(120, 'v');
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) tree.Insert(Key(i), value).ok();
  Rng rng(1);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(Key(rng.NextBounded(kN)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeGet);

void BM_BtreeScan100(benchmark::State& state) {
  Pager pager;
  BufferPool pool(&pager, 4096);
  BTree tree(&pool);
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) tree.Insert(Key(i), "v").ok();
  Rng rng(2);
  for (auto _ : state) {
    auto it = tree.Seek(Key(rng.NextBounded(kN - 200)));
    int n = 0;
    while (it.Valid() && n < 100) {
      benchmark::DoNotOptimize(it.key().data());
      it.Next();
      ++n;
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BtreeScan100);

void BM_TpccTransaction(benchmark::State& state) {
  tpcc::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 10;
  cfg.customers_per_district = 300;
  cfg.items = 2000;
  cfg.orders_per_district = 300;
  cfg.buffer_pool_pages = 1024;
  tpcc::TpccDb db(cfg);
  db.Populate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.RunNextTransaction());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccTransaction);

}  // namespace
}  // namespace lss

BENCHMARK_MAIN();
