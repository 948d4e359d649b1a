#include "core/sharded_store.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "util/rng.h"
#include "workload/runner.h"

namespace lss {
namespace {

StoreConfig SmallConfig() {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 256;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 2;
  return c;
}

PolicyFactory FactoryFor(Variant v) {
  return [v] { return MakePolicy(v); };
}

// A backend that sleeps per seal. Behind an async seal pipeline the
// shard's writer outruns the I/O thread, so the bounded queue must exert
// backpressure (counted stalls) while every op still applies exactly
// once, in order; in sync mode the seal holds the shard lock, as a flush
// to a real device does.
class SlowBackend : public NullBackend {
 public:
  explicit SlowBackend(
      std::chrono::microseconds delay = std::chrono::milliseconds(2))
      : delay_(delay) {}
  Status SealSegment(const BackendSegmentRecord& record) override {
    std::this_thread::sleep_for(delay_);
    ++seals_;
    return NullBackend::SealSegment(record);
  }
  std::atomic<int64_t> seals_{0};

 private:
  std::chrono::microseconds delay_;
};

// Builds a SlowBackend per shard and leaves a pointer to the last one in
// `*out` (single-shard tests inspect it after the run).
BackendFactory SlowBackendFactory(SlowBackend** out) {
  return [out](uint32_t) {
    auto backend = std::make_unique<SlowBackend>();
    *out = backend.get();
    return backend;
  };
}

TEST(ShardedStoreTest, CreateValidatesGeometry) {
  Status st;
  // 256 segments over 4 shards -> 64 per shard, fine.
  auto ok = ShardedStore::Create(SmallConfig(), 4, FactoryFor(Variant::kGreedy),
                                 &st);
  ASSERT_NE(ok, nullptr) << st.ToString();
  EXPECT_EQ(ok->num_shards(), 4u);
  EXPECT_EQ(ok->shard_config().num_segments, 64u);

  // 256 segments over 64 shards -> 4 per shard, but the clean trigger (2)
  // then violates "trigger < num_segments / 2".
  auto bad = ShardedStore::Create(SmallConfig(), 64,
                                  FactoryFor(Variant::kGreedy), &st);
  EXPECT_EQ(bad, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);

  auto no_factory = ShardedStore::Create(SmallConfig(), 2, nullptr, &st);
  EXPECT_EQ(no_factory, nullptr);
}

TEST(ShardedStoreTest, RoutingCoversAllShards) {
  constexpr uint32_t kShards = 8;
  std::vector<uint64_t> per_shard(kShards, 0);
  constexpr PageId kPages = 10000;
  for (PageId p = 0; p < kPages; ++p) ++per_shard[PageShard(p, kShards)];
  for (uint32_t s = 0; s < kShards; ++s) {
    // A fair hash puts roughly 1/8 of the pages on each shard; anything
    // within 2x of fair detects gross skew without being flaky.
    EXPECT_GT(per_shard[s], kPages / (2 * kShards)) << "shard " << s;
    EXPECT_LT(per_shard[s], kPages * 2 / kShards) << "shard " << s;
  }
}

TEST(ShardedStoreTest, WritesRouteToOwningShard) {
  Status st;
  auto store = ShardedStore::Create(SmallConfig(), 4,
                                    FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 200; ++p) {
    ASSERT_TRUE(store->Write(p).ok());
    EXPECT_TRUE(store->Contains(p));
    EXPECT_EQ(store->PageSize(p), 4096u);
  }
  // Every page's meta is interpreted by exactly the shard it hashes to.
  for (PageId p = 0; p < 200; ++p) {
    const StoreShard& shard = store->shard(store->ShardOf(p));
    EXPECT_TRUE(shard.OwnsPage(p));
    EXPECT_TRUE(shard.Contains(p));
  }
  // Each shard saw exactly its routed updates; the aggregate sees all.
  uint64_t sum = 0;
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_GT(store->shard(i).stats().user_updates, 0u) << "idle shard " << i;
    sum += store->shard(i).stats().user_updates;
  }
  EXPECT_EQ(sum, 200u);
  EXPECT_EQ(store->AggregatedStats().user_updates, 200u);
}

TEST(ShardedStoreTest, DeleteAndFlushWork) {
  Status st;
  auto store = ShardedStore::Create(SmallConfig(), 2,
                                    FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 100; ++p) ASSERT_TRUE(store->Write(p).ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->LivePageCount(), 100u);
  for (PageId p = 0; p < 50; ++p) ASSERT_TRUE(store->Delete(p).ok());
  EXPECT_EQ(store->Delete(17).code(), Status::Code::kNotFound);
  EXPECT_EQ(store->LivePageCount(), 50u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// The paper's single-threaded simulator is a 1-shard ShardedStore. Its
// counters are pinned to golden values recorded from the standalone
// single-shard store before that store was folded into ShardedStore, so
// any change to the simulation shows up here. Doubles are hex-float
// literals: the comparison is bit for bit.
TEST(ShardedStoreTest, OneShardMatchesGoldenCounters) {
  struct Golden {
    Variant v;
    uint64_t user_pages_written;
    uint64_t gc_pages_written;
    uint64_t segments_cleaned;
    uint64_t cleanings;
    double wamp;
    double mean_clean_emptiness;
  };
  const Golden kGolden[] = {
      {Variant::kGreedy, 22000, 3551, 1344, 336, 0x1.4a90d975da643p-3,
       0x1.ab73cf3cf3cf4p-1},
      {Variant::kMultiLog, 22000, 4131, 1388, 1388, 0x1.808efcd5bc9a3p-3,
       0x1.a0c2c43df89f6p-1},
      {Variant::kMdc, 21984, 3495, 1340, 335, 0x1.4596eac283e9ap-3,
       0x1.ac898d5f85bb4p-1},
  };
  for (const Golden& g : kGolden) {
    StoreConfig cfg = SmallConfig();
    ApplyVariantConfig(g.v, &cfg);
    Status st;
    auto store = ShardedStore::Create(cfg, 1, FactoryFor(g.v), &st);
    ASSERT_NE(store, nullptr) << st.ToString();

    const PageId pages = 2000;
    for (PageId p = 0; p < pages; ++p) ASSERT_TRUE(store->Write(p).ok());
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(pages)).ok());
    }

    const StoreStats s = store->AggregatedStats();
    const std::string name = VariantName(g.v);
    EXPECT_EQ(s.user_updates, 22000u) << name;
    EXPECT_EQ(s.user_pages_written, g.user_pages_written) << name;
    EXPECT_EQ(s.gc_pages_written, g.gc_pages_written) << name;
    EXPECT_EQ(s.segments_cleaned, g.segments_cleaned) << name;
    EXPECT_EQ(s.cleanings, g.cleanings) << name;
    EXPECT_EQ(s.WriteAmplification(), g.wamp) << name;
    EXPECT_EQ(s.MeanCleanEmptiness(), g.mean_clean_emptiness) << name;
    EXPECT_TRUE(store->CheckInvariants().ok());
  }
}

// The same property through the runner (what the benches call): a
// 1-thread, 1-shard RunSynthetic reproduces the golden counters of the
// single-threaded run loop it replaced.
TEST(ShardedStoreTest, RunSyntheticOneThreadMatchesGoldenCounters) {
  StoreConfig cfg = SmallConfig();
  UniformWorkload workload(2500);
  RunSpec spec;
  spec.fill_factor = 0.75;
  spec.warmup_multiplier = 3;
  spec.measure_multiplier = 4;
  spec.seed = 11;

  const RunResult r = RunSynthetic(cfg, Variant::kMdc, workload, spec,
                                   /*threads=*/1, /*shards=*/1);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.shards, 1u);
  EXPECT_EQ(r.measured_updates, 10000u);
  EXPECT_EQ(r.stats.user_updates, 10000u);
  EXPECT_EQ(r.stats.gc_pages_written, 4410u);
  EXPECT_EQ(r.stats.segments_cleaned, 904u);
  EXPECT_EQ(r.stats.cleanings, 226u);
  EXPECT_EQ(r.wamp, 0x1.c2dcd4a6d98f2p-2);
  EXPECT_EQ(r.mean_clean_emptiness, 0x1.63e4d06cbe4dp-1);
  EXPECT_EQ(r.effective_fill, 0x1.388p-1);
}

// Concurrency stress: many threads hammer a sharded store with writes,
// deletes and flushes, then every shard must pass its full invariant
// cross-check. Run under TSan (scripts/check.sh --tsan) this doubles as
// the data-race detector for the lock-free page table and shard locking.
TEST(ShardedStoreTest, MultiThreadedStressKeepsInvariants) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPages = 4000;
  constexpr int kOpsPerThread = 30000;
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> deletes_applied{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const PageId p = rng.NextBounded(kPages);
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 90) {
          if (!store->Write(p).ok()) failed.store(true);
          writes.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 97) {
          const Status s = store->Delete(p);
          if (s.ok()) {
            deletes_applied.fetch_add(1, std::memory_order_relaxed);
          } else if (s.code() != Status::Code::kNotFound) {
            failed.store(true);
          }
        } else {
          if (!store->Flush().ok()) failed.store(true);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(failed.load()) << "a store operation failed mid-stress";

  // Every logical op must be accounted for in the aggregated counters...
  const StoreStats total = store->AggregatedStats();
  EXPECT_EQ(total.user_updates, writes.load());
  EXPECT_EQ(total.deletes, deletes_applied.load());
  // ...and every shard must be internally consistent, including the
  // shared page table cross-check.
  EXPECT_TRUE(store->CheckInvariants().ok());
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_TRUE(store->shard(i).CheckInvariants().ok()) << "shard " << i;
  }
}

// Write-behind under heavy contention: eight writers on two shards with a
// one-segment write buffer and seals that sleep under the shard lock, so
// a shard is flushing much of the time and writes find it busy and queue
// for the lock holder, also while it applies earlier queued writes. Every
// write must be applied exactly once and, per page, in program order.
TEST(ShardedStoreTest, ContendedWritesApplyOnceInOrder) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  cfg.write_buffer_segments = 1;
  Status st;
  auto store = ShardedStore::Create(
      cfg, 2, FactoryFor(Variant::kMdc), &st, [](uint32_t) {
        return std::make_unique<SlowBackend>(std::chrono::microseconds(50));
      });
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPagesPerThread = 100;
  constexpr uint32_t kWritesPerThread = 5000;
  // last[p]: the bytes of page p's last write, by its owning thread.
  std::vector<uint32_t> last(kThreads * kPagesPerThread, 0);
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> stale_sizes{0};
  std::atomic<uint32_t> started{0};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      Rng rng(3000 + t);
      const PageId base = t * kPagesPerThread;
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        const PageId p = base + rng.NextBounded(kPagesPerThread);
        const uint32_t bytes = 4096 + i;  // distinct within the thread
        if (!store->Write(p, bytes).ok()) failures.fetch_add(1);
        last[p] = bytes;
        // A later call on the shard sees the thread's own queued writes.
        if (i % 2 == 0 && store->PageSize(p) != bytes) {
          stale_sizes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(stale_sizes.load(), 0u);

  // Read the shards directly: no call below applies a queue, so anything
  // still queued after the join would show up as missing.
  uint64_t applied = 0;
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    applied += store->shard(i).stats().user_updates;
  }
  EXPECT_EQ(applied, uint64_t{kThreads} * kWritesPerThread);
  for (PageId p = 0; p < last.size(); ++p) {
    EXPECT_EQ(store->shard(store->ShardOf(p)).PageSize(p), last[p])
        << "page " << p;
  }
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// Builds a FaultInjectionBackend for shard `failing` (its seals fail after
// `seals_ok` succeed) and a plain null backend for every other shard.
BackendFactory FailingSealsOn(uint32_t failing, int64_t seals_ok) {
  return [failing,
          seals_ok](uint32_t shard) -> std::unique_ptr<SegmentBackend> {
    if (shard != failing) return std::make_unique<NullBackend>();
    auto backend = std::make_unique<FaultInjectionBackend>();
    backend->FailSealsAfter(seals_ok,
                            Status::Corruption("injected seal failure"));
    return backend;
  };
}

// A queued write that fails when the holder applies it was already
// acknowledged, so its error must come back from the shard's later calls
// and no later Checkpoint may report OK.
TEST(ShardedStoreTest, QueuedWriteFailureIsReportedByLaterCalls) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;  // the inbox then holds one segment: 16
  cfg.num_segments = 64;
  Status st;
  auto store = ShardedStore::Create(cfg, 1, FactoryFor(Variant::kGreedy), &st,
                                    FailingSealsOn(0, 0));
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 10; ++p) ASSERT_TRUE(store->Write(p).ok());

  // While this thread holds the shard, another thread's writes queue and
  // return OK at once; they fill the open segment, whose seal fails when
  // the holder applies them on release.
  std::vector<Status> queued(16);
  store->WithShardLocked(0, [&](StoreShard&) {
    std::thread writer([&] {
      for (PageId p = 0; p < 16; ++p) queued[p] = store->Write(10 + p);
    });
    writer.join();
    return 0;
  });
  for (const Status& s : queued) EXPECT_TRUE(s.ok()) << s.ToString();

  const std::string injected = "injected seal failure";
  EXPECT_EQ(store->Checkpoint().message(), injected);
  EXPECT_EQ(store->Flush().message(), injected);
  EXPECT_EQ(store->Write(0).message(), injected);
  EXPECT_EQ(store->Delete(0).message(), injected);
  std::vector<uint8_t> data;
  EXPECT_EQ(store->ReadPage(0, &data).message(), injected);
  EXPECT_EQ(store->Checkpoint().message(), injected);
  EXPECT_FALSE(store->Close().ok());
}

// A backend whose first seal runs `hook` on the sealing thread, that is,
// under the shard lock.
class HookedSealBackend : public NullBackend {
 public:
  explicit HookedSealBackend(std::function<void()> hook)
      : hook_(std::move(hook)) {}
  Status SealSegment(const BackendSegmentRecord& record) override {
    if (hook_) std::exchange(hook_, nullptr)();
    return NullBackend::SealSegment(record);
  }

 private:
  std::function<void()> hook_;
};

// The hand-off, made deterministic: a write that queues while the holder
// is applying the inbox must be applied by that holder before it lets go
// of the shard, not left for whoever takes the lock next.
TEST(ShardedStoreTest, WriteQueuedDuringHandOffIsApplied) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;  // the inbox then holds one segment: 16
  cfg.num_segments = 64;
  ShardedStore* raw = nullptr;
  Status late;
  Status st;
  auto store = ShardedStore::Create(
      cfg, 1, FactoryFor(Variant::kGreedy), &st, [&](uint32_t) {
        return std::make_unique<HookedSealBackend>([&] {
          std::thread([&] { late = raw->Write(100, 1234); }).join();
        });
      });
  ASSERT_NE(store, nullptr) << st.ToString();
  raw = store.get();
  for (PageId p = 0; p < 10; ++p) ASSERT_TRUE(store->Write(p).ok());

  // Sixteen writes queue behind this thread's hold; applying them on
  // release fills and seals a segment, and the seal queues one more.
  store->WithShardLocked(0, [&](StoreShard&) {
    std::thread([&] {
      for (PageId p = 10; p < 26; ++p) ASSERT_TRUE(store->Write(p).ok());
    }).join();
    return 0;
  });
  EXPECT_TRUE(late.ok()) << late.ToString();
  // Read the shard directly: nothing below applies a queue.
  EXPECT_EQ(store->shard(0).stats().user_updates, 27u);
  EXPECT_EQ(store->shard(0).PageSize(100), 1234u);
}

// A write that finds the ring full waits for the lock instead of
// queueing. With the ring filled under a hold, a second thread's further
// writes wait; after the release every write is applied exactly once, and
// each page ends at its last write.
TEST(ShardedStoreTest, WritesBeyondAFullRingWaitAndApplyOnceInOrder) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;  // the ring then holds one segment: 16
  cfg.num_segments = 64;
  Status st;
  auto store = ShardedStore::Create(cfg, 1, FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kWrites = 40;
  constexpr PageId kPages = 5;
  std::atomic<uint32_t> returned{0};
  std::thread writer;
  store->WithShardLocked(0, [&](StoreShard&) {
    writer = std::thread([&] {
      for (uint32_t i = 0; i < kWrites; ++i) {
        EXPECT_TRUE(store->Write(i % kPages, 4096 - kWrites + i).ok());
        returned.fetch_add(1);
      }
    });
    while (returned.load() < 16) std::this_thread::yield();
    // The seventeenth write finds the ring full and waits for the lock.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(returned.load(), 16u);
    return 0;
  });
  writer.join();
  EXPECT_EQ(store->shard(0).stats().user_updates, kWrites);
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(store->shard(0).PageSize(p), 4096 - kPages + p) << "page " << p;
  }
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// A Delete or ReadPage that arrives during a hold waits (well past the
// spin, so it sleeps) and runs after the release, behind the writes
// another thread queued before it: the Delete finds the page those
// writes created, and the read finds its page in the segment they
// filled and sealed.
TEST(ShardedStoreTest, ParkedDeleteAndReadRunAfterEarlierQueuedWrites) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;  // ReadPage reads sealed pages only
  cfg.num_segments = 64;
  Status st;
  auto store = ShardedStore::Create(cfg, 1, FactoryFor(Variant::kGreedy), &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 6; ++p) ASSERT_TRUE(store->Write(p).ok());

  Status deleted = Status::Corruption("not run");
  Status read = Status::Corruption("not run");
  std::vector<uint8_t> data;
  std::atomic<int> done{0};
  std::thread deleter;
  std::thread reader;
  store->WithShardLocked(0, [&](StoreShard&) {
    // Pages 7, 8 and 20..29 queue; the 16th page seals the segment.
    std::thread([&] {
      EXPECT_TRUE(store->Write(7).ok());
      EXPECT_TRUE(store->Write(8).ok());
      for (PageId p = 20; p < 30; ++p) EXPECT_TRUE(store->Write(p).ok());
    }).join();
    deleter = std::thread([&] {
      deleted = store->Delete(7);
      done.fetch_add(1);
    });
    reader = std::thread([&] {
      read = store->ReadPage(8, &data);
      done.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(done.load(), 0);
    return 0;
  });
  deleter.join();
  reader.join();
  EXPECT_TRUE(deleted.ok()) << deleted.ToString();
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(data.size(), cfg.page_bytes);
  EXPECT_FALSE(store->Contains(7));
  EXPECT_EQ(store->shard(0).stats().user_updates, 18u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

// The same contract under real contention: writers race a checkpointing
// thread on two shards while shard 1's seals start failing. Once any call
// has reported the failure, no Checkpoint may return OK again.
TEST(ShardedStoreTest, ContendedSealFailureNeverHidesBehindCheckpoint) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 1;
  Status st;
  auto store = ShardedStore::Create(cfg, 2, FactoryFor(Variant::kGreedy), &st,
                                    FailingSealsOn(1, 20));
  ASSERT_NE(store, nullptr) << st.ToString();

  std::atomic<bool> failure_seen{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> ok_after_failure{0};
  std::thread checkpointer([&] {
    while (!done.load()) {
      const bool seen = failure_seen.load();
      const Status s = store->Checkpoint();
      if (seen && s.ok()) ok_after_failure.fetch_add(1);
      if (!s.ok()) failure_seen.store(true);
    }
  });
  std::vector<Status> first_error(4);
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(4000 + t);
      for (int i = 0; i < 20000; ++i) {
        first_error[t] = store->Write(rng.NextBounded(2000));
        if (!first_error[t].ok()) {
          failure_seen.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& th : writers) th.join();
  done.store(true);
  checkpointer.join();

  EXPECT_TRUE(failure_seen.load());
  EXPECT_EQ(ok_after_failure.load(), 0u);
  for (const Status& s : first_error) {
    if (!s.ok()) {
      EXPECT_EQ(s.message(), "injected seal failure");
    }
  }
  EXPECT_EQ(store->Checkpoint().message(), "injected seal failure");
  // Shard 0 is healthy and keeps accepting writes.
  PageId healthy = 0;
  while (store->ShardOf(healthy) != 0) ++healthy;
  EXPECT_TRUE(store->Write(healthy).ok());
}

// Concurrent growth of the shared lock-free page table from many threads:
// disjoint page ranges ensured in parallel must all be present and hold
// their values afterwards.
TEST(PageTableConcurrencyTest, ParallelEnsureAndReadback) {
  PageTable table;
  constexpr uint32_t kThreads = 8;
  constexpr PageId kPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&table, t] {
      for (PageId i = 0; i < kPerThread; ++i) {
        const PageId p = t * kPerThread + i;
        PageMeta& m = table.Ensure(p);
        m.loc = PageLocation{static_cast<SegmentId>(t), 0};
        m.bytes = 512 + t;
        m.last_update = p + 1;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_EQ(table.Size(), kThreads * kPerThread);
  EXPECT_EQ(table.CountPresent(), kThreads * kPerThread);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (PageId i = 0; i < kPerThread; i += 997) {
      const PageId p = t * kPerThread + i;
      ASSERT_TRUE(table.Present(p));
      EXPECT_EQ(table.Get(p).loc.segment, t);
      EXPECT_EQ(table.Get(p).bytes, 512 + t);
      EXPECT_EQ(table.Get(p).last_update, p + 1);
    }
  }
}

// The async seal pipeline must not perturb a single placement decision:
// the same update sequence with async_seal on and off produces identical
// simulation counters (only *when* backend I/O happens changes, never
// what is written where).
TEST(ShardedStoreTest, AsyncSealKeepsSimulationCountersBitForBit) {
  // Checkpointing changes allocation (withheld slots are skipped), so
  // compare like with like: async vs sync at the same checkpoint
  // setting, once plain and once with checkpointing on.
  struct Case {
    Variant v;
    uint32_t checkpoint_interval;
  };
  for (const Case c : {Case{Variant::kGreedy, 0}, Case{Variant::kGreedy, 16},
                       Case{Variant::kMdc, 0}, Case{Variant::kMdc, 16}}) {
    const Variant v = c.v;
    StoreConfig sync_cfg = SmallConfig();
    ApplyVariantConfig(v, &sync_cfg);
    sync_cfg.checkpoint_interval_ops = c.checkpoint_interval;
    StoreConfig async_cfg = sync_cfg;
    async_cfg.async_seal = true;
    async_cfg.seal_queue_depth = 2;

    auto drive = [](const StoreConfig& cfg, Variant var) {
      auto store = ShardedStore::Create(cfg, 1, FactoryFor(var));
      EXPECT_NE(store, nullptr);
      for (PageId p = 0; p < 1500; ++p) EXPECT_TRUE(store->Write(p).ok());
      Rng rng(19);
      for (int i = 0; i < 15000; ++i) {
        EXPECT_TRUE(store->Write(rng.NextBounded(1500)).ok());
      }
      return store;
    };
    auto sync_store = drive(sync_cfg, v);
    auto async_store = drive(async_cfg, v);
    const StoreStats& a = sync_store->shard(0).stats();
    const StoreStats& b = async_store->shard(0).stats();
    EXPECT_EQ(a.user_updates, b.user_updates) << VariantName(v);
    EXPECT_EQ(a.user_pages_written, b.user_pages_written) << VariantName(v);
    EXPECT_EQ(a.gc_pages_written, b.gc_pages_written) << VariantName(v);
    EXPECT_EQ(a.user_segments_sealed, b.user_segments_sealed) << VariantName(v);
    EXPECT_EQ(a.gc_segments_sealed, b.gc_segments_sealed) << VariantName(v);
    EXPECT_EQ(a.segments_cleaned, b.segments_cleaned) << VariantName(v);
    EXPECT_EQ(a.cleanings, b.cleanings) << VariantName(v);
    EXPECT_EQ(a.WriteAmplification(), b.WriteAmplification()) << VariantName(v);
    EXPECT_EQ(a.MeanCleanEmptiness(), b.MeanCleanEmptiness()) << VariantName(v);
    // And the pipeline actually ran.
    EXPECT_GT(async_store->AggregatedStats().seal_queue_enqueued, 0u);
    EXPECT_EQ(sync_store->AggregatedStats().seal_queue_enqueued, 0u);
    EXPECT_TRUE(async_store->CheckInvariants().ok());
  }
}

TEST(ShardedStoreTest, AsyncSealBackpressureBoundsTheQueue) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;
  cfg.num_segments = 64;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 1;
  SlowBackend* slow = nullptr;
  Status st;
  auto store = ShardedStore::Create(cfg, 1, FactoryFor(Variant::kGreedy), &st,
                                    SlowBackendFactory(&slow));
  ASSERT_NE(store, nullptr) << st.ToString();

  // ~48 seals at 2 ms each, produced far faster than they drain: with a
  // queue of one, the writer must stall many times.
  for (PageId p = 0; p < 48 * 16; ++p) {
    ASSERT_TRUE(store->Write(p % 768).ok());
  }
  ASSERT_TRUE(store->Close().ok());
  const StoreStats s = store->AggregatedStats();
  EXPECT_GT(s.seal_queue_stalls, 0u);
  EXPECT_GE(s.seal_queue_enqueued, static_cast<uint64_t>(slow->seals_.load()));
  EXPECT_GT(slow->seals_.load(), 10);
}

// Close must drain in-flight seals before the backend shuts: every op
// the store acknowledged reaches the backend even when Close races a
// full queue.
TEST(ShardedStoreTest, CloseDrainsTheSealQueue) {
  StoreConfig cfg = SmallConfig();
  cfg.write_buffer_segments = 0;
  cfg.num_segments = 64;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 2;
  SlowBackend* slow = nullptr;
  Status st;
  auto store = ShardedStore::Create(cfg, 1, FactoryFor(Variant::kGreedy), &st,
                                    SlowBackendFactory(&slow));
  ASSERT_NE(store, nullptr) << st.ToString();
  for (PageId p = 0; p < 12 * 16; ++p) {
    ASSERT_TRUE(store->Write(p).ok());
  }
  // Several seals are still queued behind the slow backend right now.
  ASSERT_TRUE(store->Close().ok());
  const StoreStats s = store->AggregatedStats();
  // Every emitted op was applied — nothing was dropped at shutdown.
  EXPECT_EQ(s.seal_queue_enqueued, static_cast<uint64_t>(slow->seals_.load()));
  EXPECT_GE(slow->seals_.load(), 12);
}

// Async-seal stress under ThreadSanitizer: many writer threads, four
// shards, each with its own I/O thread, plus concurrent reads, deletes,
// checkpoints and stats aggregation — the race detector for the whole
// pipeline (scripts/check.sh --tsan runs this suite).
TEST(ShardedStoreTest, AsyncSealMultiThreadedStressKeepsInvariants) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 512;
  cfg.async_seal = true;
  cfg.seal_queue_depth = 4;
  cfg.checkpoint_interval_ops = 32;
  Status st;
  auto store = ShardedStore::Create(cfg, 4, FactoryFor(Variant::kMdc), &st);
  ASSERT_NE(store, nullptr) << st.ToString();

  constexpr uint32_t kThreads = 8;
  constexpr PageId kPages = 4000;
  constexpr int kOpsPerThread = 15000;
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> deletes_applied{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const PageId p = rng.NextBounded(kPages);
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 85) {
          if (!store->Write(p).ok()) failed.store(true);
          writes.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 92) {
          const Status s = store->Delete(p);
          if (s.ok()) {
            deletes_applied.fetch_add(1, std::memory_order_relaxed);
          } else if (s.code() != Status::Code::kNotFound) {
            failed.store(true);
          }
        } else if (dice < 96) {
          std::vector<uint8_t> data;
          const Status s = store->ReadPage(p, &data);
          if (!s.ok() && s.code() != Status::Code::kNotFound &&
              s.code() != Status::Code::kInvalidArgument) {
            failed.store(true);
          }
        } else if (dice < 99) {
          if (!store->Flush().ok()) failed.store(true);
        } else {
          if (!store->Checkpoint().ok()) failed.store(true);
        }
        if (i % 4096 == 0) (void)store->AggregatedStats();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(failed.load()) << "a store operation failed mid-stress";

  const StoreStats total = store->AggregatedStats();
  EXPECT_EQ(total.user_updates, writes.load());
  EXPECT_EQ(total.deletes, deletes_applied.load());
  EXPECT_GT(total.seal_queue_enqueued, 0u);
  ASSERT_TRUE(store->Close().ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_TRUE(store->shard(i).CheckInvariants().ok()) << "shard " << i;
  }
}

// Multi-threaded parallel runner end to end: aggregate write-amp within a
// few percent of the single-threaded run on the same workload (identical
// update *distribution*, different interleaving), and every shard's
// write-amp close to the shared value.
TEST(ShardedStoreTest, ParallelRunMatchesSingleThreadedWamp) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 32 * 4096;
  cfg.num_segments = 512;
  cfg.clean_trigger_segments = 2;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 4;

  UniformWorkload workload(10000);
  RunSpec spec;
  spec.fill_factor = 0.7;
  spec.warmup_multiplier = 4;
  spec.measure_multiplier = 6;
  spec.seed = 3;

  const RunResult single = RunSynthetic(cfg, Variant::kGreedy, workload, spec);
  ASSERT_TRUE(single.status.ok()) << single.status.ToString();
  const RunResult par = RunSynthetic(cfg, Variant::kGreedy, workload, spec,
                                     /*threads=*/4, /*shards=*/4);
  ASSERT_TRUE(par.status.ok()) << par.status.ToString();

  EXPECT_NEAR(par.wamp, single.wamp, 0.05 * single.wamp + 0.05);
  ASSERT_EQ(par.shard_wamp.size(), 4u);
  for (double w : par.shard_wamp) {
    EXPECT_NEAR(w, single.wamp, 0.10 * single.wamp + 0.10);
  }
}

}  // namespace
}  // namespace lss
