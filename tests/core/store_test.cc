#include "core/sharded_store.h"

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "util/rng.h"

namespace lss {
namespace {

// Small geometry so cleaning kicks in quickly: 16 segments of 4 pages.
StoreConfig SmallConfig() {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 4 * 4096;
  c.num_segments = 16;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  return c;
}

std::unique_ptr<ShardedStore> MakeStore(const StoreConfig& cfg,
                                        Variant v = Variant::kGreedy) {
  Status st;
  auto store = ShardedStore::Create(cfg, 1, [v] { return MakePolicy(v); }, &st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return store;
}

TEST(StoreCreateTest, RejectsInvalidConfig) {
  StoreConfig c = SmallConfig();
  c.num_segments = 1;
  Status st;
  EXPECT_EQ(ShardedStore::Create(
                c, 1, [] { return MakePolicy(Variant::kAge); }, &st),
            nullptr);
  EXPECT_FALSE(st.ok());
}

TEST(StoreCreateTest, RejectsNullPolicy) {
  Status st;
  EXPECT_EQ(ShardedStore::Create(
                SmallConfig(), 1,
                []() -> std::unique_ptr<CleaningPolicy> { return nullptr; },
                &st),
            nullptr);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST(StoreTest, FreshStoreIsEmpty) {
  auto store = MakeStore(SmallConfig());
  EXPECT_EQ(store->shard(0).FreeSegmentCount(), 16u);
  EXPECT_EQ(store->LivePageCount(), 0u);
  EXPECT_EQ(store->shard(0).unow(), 0u);
  EXPECT_FALSE(store->Contains(0));
}

TEST(StoreTest, WriteMakesPagePresent) {
  auto store = MakeStore(SmallConfig());
  ASSERT_TRUE(store->Write(5).ok());
  EXPECT_TRUE(store->Contains(5));
  EXPECT_EQ(store->PageSize(5), 4096u);
  EXPECT_EQ(store->shard(0).unow(), 1u);
  EXPECT_EQ(store->shard(0).stats().user_updates, 1u);
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 1u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, RewriteKillsOldVersion) {
  auto store = MakeStore(SmallConfig());
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(1).ok());
  EXPECT_TRUE(store->Contains(1));
  // Exactly one live copy exists across all segments.
  uint64_t live = 0;
  for (const auto& s : store->shard(0).segments()) live += s.live_count();
  EXPECT_EQ(live, 1u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, VariablePageSizes) {
  auto store = MakeStore(SmallConfig());
  ASSERT_TRUE(store->Write(1, 100).ok());
  EXPECT_EQ(store->PageSize(1), 100u);
  ASSERT_TRUE(store->Write(1, 9000).ok());
  EXPECT_EQ(store->PageSize(1), 9000u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, RejectsPageLargerThanSegment) {
  auto store = MakeStore(SmallConfig());
  EXPECT_EQ(store->Write(1, 4 * 4096 + 1).code(),
            Status::Code::kInvalidArgument);
}

TEST(StoreTest, RejectsPageIdsBeyondTheTable) {
  auto store = MakeStore(SmallConfig());
  EXPECT_EQ(store->Write(PageTable::kMaxPages).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(store->Write(kInvalidPage).code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(store->Contains(PageTable::kMaxPages));
  EXPECT_TRUE(store->Write(3).ok());  // rejections leave the store usable
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, DeleteRemovesPage) {
  auto store = MakeStore(SmallConfig());
  ASSERT_TRUE(store->Write(3).ok());
  ASSERT_TRUE(store->Delete(3).ok());
  EXPECT_FALSE(store->Contains(3));
  EXPECT_EQ(store->shard(0).stats().deletes, 1u);
  EXPECT_EQ(store->Delete(3).code(), Status::Code::kNotFound);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, CleaningReclaimsSpace) {
  auto store = MakeStore(SmallConfig());
  // 16 segments * 4 pages = 64 physical pages. Use 32 pages (F = 0.5) and
  // update them many times: cleaning must kick in and keep the store live.
  for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
  }
  EXPECT_GT(store->shard(0).stats().cleanings, 0u);
  EXPECT_GT(store->shard(0).stats().gc_pages_written, 0u);
  EXPECT_EQ(store->LivePageCount(), 32u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, OutOfSpaceWhenFull) {
  auto store = MakeStore(SmallConfig());
  // Fill beyond what cleaning can ever reclaim (every physical page live).
  Status last;
  PageId p = 0;
  for (; p < 200; ++p) {
    last = store->Write(p);
    if (!last.ok()) break;
  }
  EXPECT_EQ(last.code(), Status::Code::kOutOfSpace);
  // The error is sticky: later writes keep failing rather than corrupting.
  EXPECT_EQ(store->Write(0).code(), Status::Code::kOutOfSpace);
}

TEST(StoreTest, RewriteWhileBufferedCountsEachWriteByDefault) {
  // Paper accounting: every update becomes a physical page write even if
  // the previous version never left the buffer.
  StoreConfig c = SmallConfig();
  c.write_buffer_segments = 2;
  auto store = MakeStore(c);
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 2u);
  uint64_t live = 0;
  for (const auto& s : store->shard(0).segments()) live += s.live_count();
  EXPECT_EQ(live, 1u);  // only one live version
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, BufferedWritesAreAbsorbed) {
  StoreConfig c = SmallConfig();
  c.write_buffer_segments = 2;
  c.absorb_buffered_rewrites = true;
  auto store = MakeStore(c);
  // Two writes to the same page while it fits in the buffer: only one
  // physical page write should result.
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(1).ok());
  EXPECT_EQ(store->shard(0).stats().user_updates, 2u);
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 1u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, FlushDrainsBuffer) {
  StoreConfig c = SmallConfig();
  c.write_buffer_segments = 4;
  auto store = MakeStore(c);
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(2).ok());
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 0u);  // buffered
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 2u);
  EXPECT_FALSE(store->page_table().Get(1).loc.InBuffer());
}

TEST(StoreTest, DeleteWhileBuffered) {
  StoreConfig c = SmallConfig();
  c.write_buffer_segments = 4;
  auto store = MakeStore(c);
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_FALSE(store->Contains(1));
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->shard(0).stats().user_pages_written, 0u);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST(StoreTest, EstimateUpfUsesLastUpdateInterval) {
  auto store = MakeStore(SmallConfig());
  ASSERT_TRUE(store->Write(1).ok());  // unow = 1
  ASSERT_TRUE(store->Write(2).ok());
  ASSERT_TRUE(store->Write(3).ok());
  ASSERT_TRUE(store->Write(4).ok());  // unow = 4
  EXPECT_DOUBLE_EQ(store->shard(0).EstimateUpf(1), 1.0 / 3.0);
  EXPECT_EQ(store->shard(0).EstimateUpf(99), 0.0);
}

TEST(StoreTest, OracleOverridesEstimate) {
  auto store = MakeStore(SmallConfig());
  store->SetExactFrequencyOracle([](PageId p) { return p == 1 ? 4.0 : 0.5; });
  EXPECT_TRUE(store->shard(0).HasOracle());
  EXPECT_DOUBLE_EQ(store->shard(0).EstimateUpf(1), 4.0);
  EXPECT_DOUBLE_EQ(store->shard(0).EstimateUpf(2), 0.5);
}

TEST(StoreTest, FillFactorTracksLiveBytes) {
  auto store = MakeStore(SmallConfig());
  for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
  EXPECT_NEAR(store->CurrentFillFactor(), 0.5, 0.01);
}

TEST(StoreTest, WampZeroWithoutCleaning) {
  auto store = MakeStore(SmallConfig());
  for (PageId p = 0; p < 8; ++p) ASSERT_TRUE(store->Write(p).ok());
  EXPECT_EQ(store->shard(0).stats().WriteAmplification(), 0.0);
}

// Long-running churn across many policies must preserve all invariants.
class StoreChurnTest : public ::testing::TestWithParam<Variant> {};

TEST_P(StoreChurnTest, InvariantsHoldUnderChurn) {
  StoreConfig c = SmallConfig();
  c.num_segments = 32;
  ApplyVariantConfig(GetParam(), &c);
  auto store = MakeStore(c, GetParam());
  if (VariantNeedsOracle(GetParam())) {
    store->SetExactFrequencyOracle([](PageId) { return 1.0; });
  }
  constexpr PageId kPages = 64;  // F = 0.5 of 128 physical pages
  for (PageId p = 0; p < kPages; ++p) ASSERT_TRUE(store->Write(p).ok());
  Rng rng(GetParam() == Variant::kAge ? 1 : 2);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(kPages)).ok()) << "i=" << i;
    if (i % 500 == 0) {
      ASSERT_TRUE(store->CheckInvariants().ok()) << "i=" << i;
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->LivePageCount(), kPages);
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_GT(store->shard(0).stats().cleanings, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, StoreChurnTest, ::testing::ValuesIn(AllVariants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string n = VariantName(info.param);
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

// --- Backend failure paths (FaultInjectionBackend) -------------------
//
// A persistence backend can fail on any state transition: seal (the
// write path and Flush), reclaim (cleaning) and delete. Every failure
// must surface as the operation's status AND poison the store (sticky),
// exactly like out-of-space does — a store that lost durability must not
// keep accepting writes.

std::unique_ptr<ShardedStore> MakeFaultyStore(
    const StoreConfig& cfg, FaultInjectionBackend** handle,
    Variant v = Variant::kGreedy) {
  Status st;
  auto store = ShardedStore::Create(
      cfg, 1, [v] { return MakePolicy(v); }, &st, [handle](uint32_t) {
        auto backend = std::make_unique<FaultInjectionBackend>();
        *handle = backend.get();
        return backend;
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return store;
}

TEST(StoreBackendFailureTest, SealFailurePoisonsUnbufferedWrites) {
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(SmallConfig(), &fault);
  fault->FailSealsAfter(0, Status::Corruption("injected seal failure"));
  // 4 pages fill the first segment; the 4th write seals it and must fail.
  Status last = Status::OK();
  PageId p = 0;
  for (; p < 16 && last.ok(); ++p) last = store->Write(p);
  EXPECT_EQ(last.code(), Status::Code::kCorruption);
  // Sticky: the store refuses further work with the original error.
  EXPECT_EQ(store->Write(100).code(), Status::Code::kCorruption);
  EXPECT_EQ(store->Flush().code(), Status::Code::kCorruption);
}

TEST(StoreBackendFailureTest, SealFailureSurfacesThroughFlush) {
  StoreConfig c = SmallConfig();
  c.write_buffer_segments = 2;
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(c, &fault, Variant::kMdc);
  fault->FailSealsAfter(0, Status::Corruption("injected seal failure"));
  // Stay under the buffer-full threshold so the failure comes from the
  // explicit Flush, not the write path.
  for (PageId p = 0; p < 4; ++p) ASSERT_TRUE(store->Write(p).ok());
  EXPECT_EQ(store->Flush().code(), Status::Code::kCorruption);
  EXPECT_EQ(store->Write(0).code(), Status::Code::kCorruption);
}

TEST(StoreBackendFailureTest, BackendOutOfSpaceSurfacesAsOutOfSpace) {
  // A real device running out of room (ENOSPC) must look exactly like
  // the simulator's cleaning-cannot-reclaim condition.
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(SmallConfig(), &fault);
  fault->FailSealsAfter(3, Status::OutOfSpace("injected ENOSPC"));
  Status last = Status::OK();
  for (PageId p = 0; p < 64 && last.ok(); ++p) last = store->Write(p);
  EXPECT_EQ(last.code(), Status::Code::kOutOfSpace);
  EXPECT_EQ(store->Write(0).code(), Status::Code::kOutOfSpace);
}

TEST(StoreBackendFailureTest, ReclaimFailureAbortsCleaning) {
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(SmallConfig(), &fault);
  fault->FailReclaimsAfter(0, Status::Corruption("injected reclaim failure"));
  // Half-fill, then churn until the cleaner runs; its first reclaim
  // fails and the error must reach the writer (not be swallowed into a
  // best-effort retry or a bogus out-of-space).
  for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
  Rng rng(1);
  Status last = Status::OK();
  for (int i = 0; i < 2000 && last.ok(); ++i) {
    last = store->Write(rng.NextBounded(32));
  }
  EXPECT_EQ(last.code(), Status::Code::kCorruption);
  EXPECT_NE(last.message().find("reclaim"), std::string::npos);
  EXPECT_EQ(store->Write(0).code(), Status::Code::kCorruption);
}

TEST(StoreBackendFailureTest, DeleteFailureIsSticky) {
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(SmallConfig(), &fault);
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(2).ok());
  fault->FailDeletesAfter(0, Status::Corruption("injected delete failure"));
  EXPECT_EQ(store->Delete(1).code(), Status::Code::kCorruption);
  EXPECT_EQ(store->Write(3).code(), Status::Code::kCorruption);
}

TEST(StoreBackendFailureTest, HealthyFaultBackendCountsOperations) {
  FaultInjectionBackend* fault = nullptr;
  auto store = MakeFaultyStore(SmallConfig(), &fault);
  for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
  }
  ASSERT_TRUE(store->Delete(0).ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  // Close seals the remaining open segments and releases any withheld
  // victim reclaims, after which the backend has seen every operation.
  ASSERT_TRUE(store->Close().ok());
  const StoreStats& stats = store->shard(0).stats();
  EXPECT_EQ(fault->seals(), static_cast<int64_t>(stats.user_segments_sealed +
                                                 stats.gc_segments_sealed));
  EXPECT_EQ(fault->reclaims(), static_cast<int64_t>(stats.segments_cleaned));
  EXPECT_EQ(fault->deletes(), 1);
}

// Mixed insert/update/delete churn with variable sizes.
TEST(StoreTest, MixedWorkloadWithDeletesAndVariableSizes) {
  StoreConfig c = SmallConfig();
  c.num_segments = 32;
  c.write_buffer_segments = 2;
  auto store = MakeStore(c, Variant::kMdc);
  Rng rng(7);
  std::vector<bool> present(64, false);
  size_t live = 0;
  for (int i = 0; i < 5000; ++i) {
    const PageId p = rng.NextBounded(64);
    if (present[p] && rng.NextBool(0.2)) {
      ASSERT_TRUE(store->Delete(p).ok());
      present[p] = false;
      --live;
    } else {
      const uint32_t bytes = 64 + static_cast<uint32_t>(rng.NextBounded(8000));
      ASSERT_TRUE(store->Write(p, bytes).ok());
      if (!present[p]) {
        present[p] = true;
        ++live;
      }
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->LivePageCount(), live);
  EXPECT_TRUE(store->CheckInvariants().ok());
}

}  // namespace
}  // namespace lss
