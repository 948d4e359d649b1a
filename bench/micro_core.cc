// Micro-benchmarks (google-benchmark) for the store's hot paths: write
// throughput per cleaning policy, sharded writes from 1-4 client threads,
// page-table lookups, victim-selection cost vs device size, and Zipfian
// sampling. Not from the paper — these quantify simulator overheads so
// the table/figure benches' runtimes are explainable.

#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/uniform_model.h"
#include "bench/bench_common.h"
#include "core/page_table.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/zipf.h"
#include "workload/runner.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

void BM_StoreWrite(benchmark::State& state) {
  const Variant v = static_cast<Variant>(state.range(0));
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = 256;
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 8;
  ApplyVariantConfig(v, &cfg);
  auto store = ShardedStore::Create(cfg, 1, [v] { return MakePolicy(v); });
  if (VariantNeedsOracle(v)) {
    store->SetExactFrequencyOracle([](PageId) { return 1.0; });
  }
  const uint64_t user_pages = bench::UserPagesFor(cfg, 0.8);
  for (PageId p = 0; p < user_pages; ++p) {
    benchmark::DoNotOptimize(store->Write(p));
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Write(rng.NextBounded(user_pages)));
  }
  state.SetLabel(VariantName(v));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreWrite)
    ->Arg(static_cast<int>(Variant::kGreedy))
    ->Arg(static_cast<int>(Variant::kCostBenefit))
    ->Arg(static_cast<int>(Variant::kMultiLog))
    ->Arg(static_cast<int>(Variant::kMdc));

// Uniform writes from 1, 2 and 4 client threads into one 8-shard store at
// fill 0.8, so every thread pays inline flushes and cleaning under its
// shard's mutex. Real time: the threads' aggregate rate is the result.
void BM_StoreWriteSharded(benchmark::State& state) {
  static std::unique_ptr<ShardedStore> store;
  static uint64_t user_pages = 0;
  if (state.thread_index() == 0) {
    StoreConfig cfg;
    cfg.page_bytes = 4096;
    cfg.segment_bytes = 128 * 4096;
    cfg.num_segments = 2048;
    cfg.clean_trigger_segments = 4;
    cfg.clean_batch_segments = 8;
    cfg.write_buffer_segments = 8;
    ApplyVariantConfig(Variant::kMdc, &cfg);
    store = ShardedStore::Create(cfg, 8,
                                 [] { return MakePolicy(Variant::kMdc); });
    user_pages = bench::UserPagesFor(cfg, 0.8);
    for (PageId p = 0; p < user_pages; ++p) {
      benchmark::DoNotOptimize(store->Write(p));
    }
  }
  Rng rng(7 + state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Write(rng.NextBounded(user_pages)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) store.reset();
}
BENCHMARK(BM_StoreWriteSharded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// Random lookups into a table of `range(0)` present pages: the
// shard-held read a write or a relocation makes.
void BM_PageTableGet(benchmark::State& state) {
  const PageId pages = static_cast<PageId>(state.range(0));
  PageTable table;
  for (PageId p = 0; p < pages; ++p) {
    table.Ensure(p).loc = PageLocation{0, static_cast<uint32_t>(p)};
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(rng.NextBounded(pages)).loc.index);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableGet)->Arg(1 << 16)->Arg(1 << 20);

void BM_VictimSelection(benchmark::State& state) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 64 * 4096;
  cfg.num_segments = static_cast<uint32_t>(state.range(0));
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 4;
  auto store = ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  const uint64_t user_pages = bench::UserPagesFor(cfg, 0.8);
  Rng rng(2);
  for (PageId p = 0; p < user_pages; ++p) store->Write(p).ok();
  for (uint64_t i = 0; i < 2 * user_pages; ++i) {
    store->Write(rng.NextBounded(user_pages)).ok();
  }
  const auto& policy = store->shard(0).policy();
  std::vector<SegmentId> victims;
  for (auto _ : state) {
    victims.clear();
    policy.SelectVictims(store->shard(0), 0, 16, &victims);
    benchmark::DoNotOptimize(victims.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VictimSelection)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator z(1u << 20, 0.99);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_UniformModelFixpoint(benchmark::State& state) {
  double f = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSteadyStateEmptiness(f));
    f = f < 0.95 ? f + 0.01 : 0.5;
  }
}
BENCHMARK(BM_UniformModelFixpoint);

}  // namespace
}  // namespace lss

BENCHMARK_MAIN();
