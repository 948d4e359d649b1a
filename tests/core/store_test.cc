#include "core/sharded_store.h"

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

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

// A buffered MDC-opt store whose previous versions sit in every place a
// rewrite can find them: a sealed or open segment, or an earlier slot of
// the write buffer.
StoreConfig BufferedOracleConfig() {
  StoreConfig c = SmallConfig();
  c.segment_bytes = 8 * 4096;
  c.num_segments = 24;
  c.write_buffer_segments = 2;
  ApplyVariantConfig(Variant::kMdcOpt, &c);
  return c;
}

double TestOracle(PageId p) {
  return 0.25 + 0.15 * static_cast<double>((p * 37) % 11);
}

uint32_t TestPageBytes(Rng& rng) {
  return 512 + static_cast<uint32_t>(rng.NextBounded(7600));
}

// Every segment's liveness counters and estimates, and the final
// counters, after buffered churn that rewrites pages inside the buffer,
// deletes both buffered and stored pages and checkpoints mid-buffer. The
// values pin the order and the arithmetic of every kill and up2 carry
// (exact_upf_sum is a floating-point sum, so a kill moved across another
// changes its bits).
TEST(StoreTest, BufferedChurnSegmentStateMatchesGolden) {
  auto store = MakeStore(BufferedOracleConfig(), Variant::kMdcOpt);
  store->SetExactFrequencyOracle(TestOracle);
  constexpr PageId kPages = 96;
  Rng rng(13);
  std::vector<bool> present(kPages, false);
  int buffered_deletes = 0;
  int stored_deletes = 0;
  for (int i = 0; i < 4000; ++i) {
    // Half the ops go to 8 hot pages, so rewrites often find the
    // previous version still buffered.
    const PageId p = rng.NextBool(0.5) ? rng.NextBounded(8)
                                       : rng.NextBounded(kPages);
    if (present[p] && rng.NextBool(0.08)) {
      const bool buffered = store->page_table().Get(p).loc.InBuffer();
      ASSERT_TRUE(store->Delete(p).ok()) << "i=" << i;
      (buffered ? buffered_deletes : stored_deletes)++;
      present[p] = false;
    } else {
      ASSERT_TRUE(store->Write(p, TestPageBytes(rng)).ok()) << "i=" << i;
      present[p] = true;
    }
    if (i == 1500 || i == 2900) {
      ASSERT_TRUE(store->Checkpoint().ok()) << "i=" << i;
    }
  }
  EXPECT_GT(buffered_deletes, 0);
  EXPECT_GT(stored_deletes, 0);
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->CheckInvariants().ok());

  struct Row {
    uint32_t live_count;
    uint32_t live_bytes;
    double exact_upf_sum;
    double up2;
  };
  const Row kGolden[] = {
      {3, 2859, 0x1.599999999999ap+1, 0x1.b8bdd36775bd2p+11},
      {1, 6786, 0x1.0000000000001p+0, 0x1.9d0d821a33b07p+11},
      {5, 16774, 0x1.5cccccccccccdp+2, 0x1.86575993407f1p+11},
      {2, 10403, 0x1.7333333333334p+1, 0x1.bc7af1d276dedp+11},
      {6, 24708, 0x1.a666666666666p+2, 0x1.8ca0ba75493c3p+11},
      {3, 14336, 0x1.1ffffffffffffp+1, 0x1.b9e67774706b3p+11},
      {3, 10530, 0x1.dfffffffffffep+1, 0x1.a2bad74f4bf65p+11},
      {6, 29736, 0x1.299999999999ap+2, 0x1.8a8b00ddcad38p+11},
      {6, 17646, 0x1.8999999999998p+2, 0x1.916223392e88dp+11},
      {2, 11779, 0x1.d99999999999cp+0, 0x1.873c87d20c20bp+11},
      {2, 13713, 0x1.b333333333334p+0, 0x1.87446aa031292p+11},
      {6, 20494, 0x1.0cccccccccccdp+2, 0x1.bb06f4322cc69p+11},
      {2, 14610, 0x1.ffffffffffffep+0, 0x1.9fa3732b546b7p+11},
      {6, 26588, 0x1.a666666666666p+2, 0x1.9ba2aae6c9917p+11},
      {7, 21364, 0x1.4333333333333p+2, 0x1.91bfc4cbbf53bp+11},
      {4, 16020, 0x1.4p+1, 0x1.a825ab2f8e202p+11},
      {4, 10130, 0x1.6p+2, 0x1.b752b2aac78adp+11},
      {2, 14043, 0x1.d99999999999cp+0, 0x1.9d6e4b67e82afp+11},
      {3, 10612, 0x1.ccccccccccccbp+1, 0x1.aee3d47009ddep+11},
      {6, 20647, 0x1.7666666666666p+2, 0x1.a4b6148ac48b6p+11},
      {4, 22674, 0x1.d999999999999p+1, 0x1.a29edaf77e8a3p+11},
      {4, 19863, 0x1.2666666666667p+2, 0x1.88b2d5395b953p+11},
      {0, 0, 0x0p+0, 0x0p+0},
      {0, 0, 0x0p+0, 0x0p+0},
  };
  const auto& segs = store->shard(0).segments();
  ASSERT_EQ(segs.size(), std::size(kGolden));
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].live_count(), kGolden[i].live_count) << "segment " << i;
    EXPECT_EQ(segs[i].live_bytes(), kGolden[i].live_bytes) << "segment " << i;
    EXPECT_EQ(segs[i].exact_upf_sum(), kGolden[i].exact_upf_sum)
        << "segment " << i;
    EXPECT_EQ(segs[i].Up2Estimate(), kGolden[i].up2) << "segment " << i;
  }
  const StoreStats s = store->shard(0).stats();
  EXPECT_EQ(s.user_updates, 3697u);
  EXPECT_EQ(s.user_pages_written, 3632u);
  EXPECT_EQ(s.gc_pages_written, 1668u);
  EXPECT_EQ(s.user_segments_sealed, 524u);
  EXPECT_EQ(s.gc_segments_sealed, 204u);
  EXPECT_EQ(s.segments_cleaned, 708u);
  EXPECT_EQ(s.cleanings, 177u);
  EXPECT_EQ(s.deletes, 303u);
  EXPECT_EQ(s.checkpoint_rounds, 2u);
  EXPECT_EQ(s.user_bytes_written, 15702338u);
  EXPECT_EQ(s.gc_bytes_written, 6262699u);
  EXPECT_EQ(s.WriteAmplification(), 0x1.d645ebb350121p-2);
  EXPECT_EQ(s.MeanCleanEmptiness(), 0x1.75c9850fe8dbdp-1);
}

// What a caller can observe between flushes while rewrites of stored
// pages are still buffered: the invariants hold and the fill factor
// counts each page once, at its newest size.
TEST(StoreTest, MidBufferObserversSeePendingRewrites) {
  StoreConfig c = BufferedOracleConfig();
  c.write_buffer_segments = 4;
  auto store = MakeStore(c, Variant::kMdcOpt);
  store->SetExactFrequencyOracle(TestOracle);
  Rng rng(5);
  for (PageId p = 0; p < 40; ++p) {
    ASSERT_TRUE(store->Write(p, TestPageBytes(rng)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  // Stored versions now sit in sealed segments (and one open one).
  for (PageId p = 0; p < 40; p += 3) {
    ASSERT_TRUE(store->Write(p, TestPageBytes(rng)).ok());
  }
  ASSERT_TRUE(store->Write(3, TestPageBytes(rng)).ok());  // rewrite buffered
  ASSERT_TRUE(store->Write(7, TestPageBytes(rng)).ok());
  ASSERT_TRUE(store->Delete(4).ok());   // stored page
  ASSERT_TRUE(store->Delete(9).ok());   // buffered page
  ASSERT_TRUE(store->Write(10, TestPageBytes(rng)).ok());
  ASSERT_TRUE(store->page_table().Get(10).loc.InBuffer());
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->CurrentFillFactor(), 0x1.d1f6p-3);
  EXPECT_EQ(store->LivePageCount(), 38u);
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->CurrentFillFactor(), 0x1.cb64p-3);
}

}  // namespace
}  // namespace lss
