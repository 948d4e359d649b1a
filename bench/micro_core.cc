// Micro-benchmarks (google-benchmark) for the store's hot paths: write
// throughput per cleaning policy, sharded writes from 1-4 client threads,
// an uncontended shard lock against a plain mutex, page-table lookups,
// victim-selection cost vs device size, the metadata-log replay a
// recovering Open pays, the flush's hottest-first ordering of a full
// write buffer, one flush with its inline cleaning, and Zipfian
// sampling. Not from the paper — these quantify simulator overheads so the
// table/figure benches' runtimes are explainable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "analysis/uniform_model.h"
#include "bench/bench_common.h"
#include "core/io_backend.h"
#include "core/page_table.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "core/write_buffer.h"
#include "util/radix_order.h"
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
// shard's lock. Real time: the threads' aggregate rate is the result.
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

// An uncontended write through ShardedStore::Write, which takes the
// shard's ShardLock (one CAS to acquire, one to release), against the
// same write made on the shard directly under a plain std::mutex. The two
// arms alternate 4,096-write chunks of uniform page ids on one 1-shard
// store, so they share its state and flush schedule; which arm goes
// first alternates too. Counters: ns per write of each arm and the
// lock's cost over the mutex (`lock_over_mutex_ns`).
void BM_ShardLockOverMutex(benchmark::State& state) {
  // glibc's mutex skips its atomics until a process first starts a
  // second thread; start one, so the mutex arm pays what it pays under a
  // store's client threads.
  std::thread([] {}).join();
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = 256;
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 8;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  auto store =
      ShardedStore::Create(cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  const uint64_t user_pages = bench::UserPagesFor(cfg, 0.8);
  for (PageId p = 0; p < user_pages; ++p) {
    benchmark::DoNotOptimize(store->Write(p));
  }
  std::mutex mu;
  Rng rng(5);
  std::vector<PageId> pages(4096);
  double lock_ns = 0;
  double mutex_ns = 0;
  bool lock_first = true;
  for (auto _ : state) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool lock_arm = (arm == 0) == lock_first;
      state.PauseTiming();
      for (PageId& p : pages) p = rng.NextBounded(user_pages);
      const auto start = std::chrono::steady_clock::now();
      state.ResumeTiming();
      if (lock_arm) {
        for (PageId p : pages) benchmark::DoNotOptimize(store->Write(p));
      } else {
        for (PageId p : pages) {
          std::lock_guard<std::mutex> hold(mu);
          benchmark::DoNotOptimize(store->shard(0).Write(p));
        }
      }
      state.PauseTiming();
      (lock_arm ? lock_ns : mutex_ns) +=
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
      state.ResumeTiming();
    }
    lock_first = !lock_first;
  }
  const double writes =
      static_cast<double>(state.iterations()) * static_cast<double>(pages.size());
  state.counters["lock_ns_per_write"] = lock_ns / writes;
  state.counters["mutex_ns_per_write"] = mutex_ns / writes;
  state.counters["lock_over_mutex_ns"] = (lock_ns - mutex_ns) / writes;
}
BENCHMARK(BM_ShardLockOverMutex)->Unit(benchmark::kMicrosecond);

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

#ifndef _WIN32
// A FileBackend whose metadata log keeps its whole write history, the
// log a store without compaction replays: every append is deferred,
// Sync() is dropped (fsync is off, so nothing is promised anyway), and
// the compaction a re-homing record's own sync point may start is
// refused at its first step, before it touches the log.
class HistoryFileBackend : public SegmentBackend {
 public:
  Status Open(const StoreConfig& config, uint32_t shard_id,
              uint32_t num_shards, StoreStats* stats, bool recover) override {
    base_.SetCompactionStepHook([this](FileBackend::CompactionStep) {
      refused_ = true;
      return false;
    });
    Status s = base_.Open(config, shard_id, num_shards, stats, recover);
    base_.SetDeferredSync(true);
    return s;
  }
  Status SealSegment(const BackendSegmentRecord& r) override {
    return base_.SealSegment(r);
  }
  Status Checkpoint(const BackendSegmentRecord& r) override {
    return base_.Checkpoint(r);
  }
  Status CheckpointDelta(const BackendSegmentRecord& r) override {
    return base_.CheckpointDelta(r);
  }
  Status RehomeEntries(const BackendSegmentRecord& r) override {
    refused_ = false;
    const Status s = base_.RehomeEntries(r);
    return refused_ ? Status::OK() : s;
  }
  Status Sync() override { return Status::OK(); }
  void SetDeferredSync(bool) override {}
  Status ReclaimSegment(SegmentId id, UpdateCount unow) override {
    return base_.ReclaimSegment(id, unow);
  }
  Status RecordDelete(PageId page, uint64_t seq, UpdateCount unow) override {
    return base_.RecordDelete(page, seq, unow);
  }
  Status ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                         uint32_t bytes, std::vector<uint8_t>* out) override {
    return base_.ReadPagePayload(id, offset, page, bytes, out);
  }
  Status Scan(BackendRecovery* out) override { return base_.Scan(out); }
  Status Close() override { return base_.Close(); }
  std::string name() const override { return "history"; }

 private:
  FileBackend base_;
  bool refused_ = false;
};

// One shard's metadata log of about 8 MiB, written once per process by
// an MDC churn with deletes and periodic checkpoints on the file backend
// (fsync off, no compaction), and removed at exit.
struct RecoverScanLog {
  StoreConfig cfg;
  std::string dir;
  uint64_t bytes = 0;
  std::string error;

  RecoverScanLog() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/lss_scan_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      error = "mkdtemp failed";
      return;
    }
    dir = buf.data();
    cfg.page_bytes = 512;
    cfg.segment_bytes = 32 * 512;
    cfg.num_segments = 128;
    cfg.clean_trigger_segments = 4;
    cfg.clean_batch_segments = 16;
    cfg.write_buffer_segments = 16;
    cfg.backend = BackendKind::kFile;
    cfg.backend_dir = dir;
    cfg.backend_fsync = false;
    cfg.checkpoint_interval_ops = 64;
    ApplyVariantConfig(Variant::kMdc, &cfg);
    Status s;
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &s,
        [](uint32_t) { return std::make_unique<HistoryFileBackend>(); });
    if (store == nullptr) {
      error = s.ToString();
      return;
    }
    const uint64_t user_pages = bench::UserPagesFor(cfg, 0.8);
    const std::string meta = FileBackend::MetaPath(dir, 0);
    Rng rng(11);
    for (uint64_t i = 0; s.ok(); ++i) {
      const PageId p = i < user_pages ? i : rng.NextBounded(user_pages);
      s = store->Contains(p) && rng.NextBool(0.05) ? store->Delete(p)
                                                   : store->Write(p);
      struct stat st;
      if (i % 4096 == 0 && ::stat(meta.c_str(), &st) == 0 &&
          st.st_size >= (8 << 20)) {
        break;
      }
    }
    if (s.ok()) s = store->Close();
    if (!s.ok()) error = s.ToString();
    struct stat st;
    if (::stat(meta.c_str(), &st) == 0) bytes = st.st_size;
  }

  RecoverScanLog(const RecoverScanLog&) = delete;
  RecoverScanLog& operator=(const RecoverScanLog&) = delete;

  ~RecoverScanLog() {
    if (dir.empty()) return;
    ::unlink(FileBackend::DataPath(dir, 0).c_str());
    ::unlink(FileBackend::MetaPath(dir, 0).c_str());
    ::unlink(FileBackend::MetaTempPath(dir, 0).c_str());
    ::rmdir(dir.c_str());
  }
};

// The log above, built on first use and shared by the recovery benches.
const RecoverScanLog& SharedScanLog() {
  static RecoverScanLog log;
  return log;
}

// FileBackend::Scan over that log, then ResolveRecovery on the result
// when `resolve`: the per-shard replay cost of a recovering Open without
// and with its chain fold and newest-wins resolution, reported in log
// bytes per second.
void RecoverBench(benchmark::State& state, bool resolve) {
  const RecoverScanLog& log = SharedScanLog();
  if (!log.error.empty()) {
    state.SkipWithError(log.error.c_str());
    return;
  }
  FileBackend backend;
  StoreStats stats;
  if (!backend.Open(log.cfg, 0, 1, &stats, /*recover=*/true).ok()) {
    state.SkipWithError("cannot reopen the log");
    return;
  }
  for (auto _ : state) {
    BackendRecovery rec;
    Status s = backend.Scan(&rec);
    if (s.ok() && resolve) {
      ResolvedRecovery resolved;
      s = ResolveRecovery(std::move(rec), log.cfg.num_segments, &resolved);
      benchmark::DoNotOptimize(resolved.slots.data());
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(rec.max_seq);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * log.bytes));
  (void)backend.Close();
}
void BM_RecoverScan(benchmark::State& state) { RecoverBench(state, false); }
void BM_RecoverResolve(benchmark::State& state) { RecoverBench(state, true); }
BENCHMARK(BM_RecoverScan)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecoverResolve)->Unit(benchmark::kMillisecond);
#endif

// One full write buffer as an MDC flush sees it: 2,048 entries of an
// 80-20 Zipfian update stream (factor 0.99) over 64 Ki pages, each
// carrying its up2 estimate by the store's rules (§5.2.2): a re-write
// moves up2 halfway to the update clock, a re-update of a buffered page
// is absorbed into its slot, and first writes take the batch's oldest
// up2 at flush time.
std::vector<BufferedWrite> MakeFlushBatch() {
  constexpr uint64_t kPages = 1 << 16;
  constexpr size_t kBatch = 2048;
  ZipfGenerator zipf(kPages, 0.99);
  Rng rng(7);
  std::vector<double> up2(kPages, -1.0);  // -1: never written
  double unow = 0;
  auto update = [&](uint64_t page) {
    ++unow;
    const bool first = up2[page] < 0;
    up2[page] = first ? 0.0 : up2[page] + 0.5 * (unow - up2[page]);
    return first;
  };
  for (int i = 0; i < (1 << 20); ++i) update(zipf.Next(rng));

  std::vector<BufferedWrite> batch;
  std::vector<int64_t> slot(kPages, -1);
  while (batch.size() < kBatch) {
    const uint64_t page = zipf.Next(rng);
    const bool first = update(page);
    if (slot[page] >= 0) {
      batch[static_cast<size_t>(slot[page])].up2 = up2[page];
      batch[static_cast<size_t>(slot[page])].first_write = false;
      continue;
    }
    slot[page] = static_cast<int64_t>(batch.size());
    BufferedWrite w;
    w.page = page;
    w.bytes = 512;
    w.up2 = up2[page];
    w.first_write = first;
    batch.push_back(w);
  }
  double oldest = unow;
  for (const BufferedWrite& w : batch) {
    if (!w.first_write) oldest = std::min(oldest, w.up2);
  }
  for (BufferedWrite& w : batch) {
    if (w.first_write) w.up2 = oldest;
  }
  return batch;
}

bool HotterUp2(const BufferedWrite& a, const BufferedWrite& b) {
  return a.up2 > b.up2;
}

// Orders that batch hottest first, as StoreShard::FlushUserBuffer does:
// Arg 0 with the radix kernel it uses, Arg 1 with the std::stable_sort
// of the entries it replaced (whose time includes re-copying the
// unsorted batch, about 80 KiB, each iteration). Before timing, checks
// that both give the same order and fails the run if not.
void BM_FlushOrder(benchmark::State& state) {
  static const std::vector<BufferedWrite> batch = MakeFlushBatch();
  const bool radix = state.range(0) == 0;
  RadixOrder order;
  auto radix_order = [&order]() -> const std::vector<uint32_t>& {
    std::vector<uint64_t>& keys = order.keys();
    keys.clear();
    for (const BufferedWrite& w : batch) keys.push_back(DescendingKey(w.up2));
    return order.Sort();
  };
  std::vector<BufferedWrite> sorted = batch;
  std::stable_sort(sorted.begin(), sorted.end(), HotterUp2);
  const std::vector<uint32_t>& perm = radix_order();
  for (size_t k = 0; k < batch.size(); ++k) {
    if (batch[perm[k]].page != sorted[k].page) {
      state.SkipWithError("radix order differs from std::stable_sort");
      return;
    }
  }
  for (auto _ : state) {
    if (radix) {
      benchmark::DoNotOptimize(radix_order().data());
    } else {
      sorted = batch;
      std::stable_sort(sorted.begin(), sorted.end(), HotterUp2);
      benchmark::DoNotOptimize(sorted.data());
    }
  }
  state.SetLabel(radix ? "radix" : "stable_sort");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_FlushOrder)->Arg(0)->Arg(1);

// One user-buffer flush with the cleaning it triggers, in zipf80-1t's
// shape on a smaller device: one MDC shard of 256 x 512 KiB segments,
// 4 KiB pages, a 16-segment write buffer, clean batch 16, trigger 4, and
// 80-20 Zipfian updates (factor 0.99) at fill 0.8, warmed up by four
// update passes. The buffer is emptied before timing, so each iteration's
// 2,048 writes fill it exactly once and the last one flushes it. Page ids
// are drawn outside the timed region. Counters: ns per flush cycle (the
// 2,048 writes and the flush) and pages the cleaner moved per flush.
void BM_FlushCycle(benchmark::State& state) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = 256;
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 16;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  auto store =
      ShardedStore::Create(cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  const uint64_t user_pages = bench::UserPagesFor(cfg, 0.8);
  const ZipfianWorkload zipf(user_pages, 0.99);
  Rng rng(1);
  for (PageId p = 0; p < user_pages; ++p) {
    benchmark::DoNotOptimize(store->Write(p));
  }
  for (uint64_t i = 0; i < 4 * user_pages; ++i) {
    benchmark::DoNotOptimize(store->Write(zipf.NextPage(rng)));
  }
  if (!store->Flush().ok()) {
    state.SkipWithError("warm-up flush failed");
    return;
  }
  const size_t per_flush = static_cast<size_t>(cfg.write_buffer_segments) *
                           cfg.PagesPerSegment();
  std::vector<PageId> pages(per_flush);
  const uint64_t moved_before = store->AggregatedStats().gc_pages_written;
  double ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (PageId& p : pages) p = zipf.NextPage(rng);
    const auto start = std::chrono::steady_clock::now();
    state.ResumeTiming();
    for (PageId p : pages) {
      if (!store->Write(p).ok()) {
        state.SkipWithError("write failed");
        return;
      }
    }
    state.PauseTiming();
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    state.ResumeTiming();
  }
  const double flushes = static_cast<double>(state.iterations());
  state.counters["ns_per_flush"] = ns / flushes;
  state.counters["pages_moved_per_flush"] =
      static_cast<double>(store->AggregatedStats().gc_pages_written -
                          moved_before) /
      flushes;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(per_flush));
}
BENCHMARK(BM_FlushCycle)->Unit(benchmark::kMicrosecond);

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
