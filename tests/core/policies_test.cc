#include <memory>

#include <gtest/gtest.h>

#include "core/policies/age_policy.h"
#include "core/policies/cost_benefit_policy.h"
#include "core/policies/greedy_policy.h"
#include "core/policies/mdc_policy.h"
#include "core/policies/multilog_policy.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace lss {
namespace {

// A store with hand-crafted segment states: we drive writes so that
// victim preferences are predictable.
StoreConfig TinyConfig() {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 4 * 4096;
  c.num_segments = 16;
  c.clean_trigger_segments = 1;
  c.clean_batch_segments = 2;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  return c;
}

// A 1-shard store whose policy is a `Policy` built from `args`.
template <typename Policy, typename... Args>
std::unique_ptr<ShardedStore> MakeStore(Args... args) {
  Status st;
  auto store = ShardedStore::Create(
      TinyConfig(), 1, [args...] { return std::make_unique<Policy>(args...); },
      &st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return store;
}

// Writes pages [base, base+n) once each; with 4-page segments this seals
// a segment per 4 pages.
void WriteRange(ShardedStore* store, PageId base, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store->Write(base + i).ok());
  }
}

TEST(AgePolicyTest, PicksOldestSealedSegment) {
  auto store = MakeStore<AgePolicy>();
  WriteRange(store.get(), 0, 12);  // seals segments in write order
  AgePolicy policy;
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 2, &victims);
  ASSERT_EQ(victims.size(), 2u);
  // Victims must be the two earliest-sealed segments.
  const auto& segs = store->shard(0).segments();
  for (SegmentId id = 0; id < segs.size(); ++id) {
    if (segs[id].state() != SegmentState::kSealed) continue;
    EXPECT_GE(segs[id].seal_time(), segs[victims[0]].seal_time());
  }
  EXPECT_LE(segs[victims[0]].seal_time(), segs[victims[1]].seal_time());
}

TEST(GreedyPolicyTest, PicksEmptiestSegment) {
  auto store = MakeStore<GreedyPolicy>();
  WriteRange(store.get(), 0, 12);
  // Punch holes: overwrite 3 of the 4 pages of the first segment.
  ASSERT_TRUE(store->Write(0).ok());
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(2).ok());
  GreedyPolicy policy;
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 1, &victims);
  ASSERT_EQ(victims.size(), 1u);
  const auto& segs = store->shard(0).segments();
  for (SegmentId id = 0; id < segs.size(); ++id) {
    if (segs[id].state() != SegmentState::kSealed) continue;
    EXPECT_LE(segs[id].available_bytes(), segs[victims[0]].available_bytes());
  }
  EXPECT_GE(segs[victims[0]].Emptiness(), 0.75);
}

TEST(CostBenefitPolicyTest, PrefersOldColdOverYoungEqualEmptiness) {
  auto store = MakeStore<CostBenefitPolicy>();
  // Segment A (pages 0..3) sealed early, segment B (4..7) later; give both
  // one dead page, then advance the clock with unrelated writes.
  WriteRange(store.get(), 0, 8);
  ASSERT_TRUE(store->Write(0).ok());  // hole in A
  ASSERT_TRUE(store->Write(4).ok());  // hole in B
  WriteRange(store.get(), 100, 4);    // advance clock
  CostBenefitPolicy policy;
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 1, &victims);
  ASSERT_EQ(victims.size(), 1u);
  // The older of the two equally-empty segments wins on age.
  const auto& segs = store->shard(0).segments();
  SegmentId oldest = kInvalidSegment;
  for (SegmentId id = 0; id < segs.size(); ++id) {
    if (segs[id].state() != SegmentState::kSealed) continue;
    if (segs[id].Emptiness() == 0.0) continue;
    if (oldest == kInvalidSegment ||
        segs[id].seal_time() < segs[oldest].seal_time()) {
      oldest = id;
    }
  }
  EXPECT_EQ(victims[0], oldest);
}

TEST(CostBenefitPolicyTest, NeverPicksFullyLiveSegmentFirst) {
  auto store = MakeStore<CostBenefitPolicy>();
  WriteRange(store.get(), 0, 12);
  ASSERT_TRUE(store->Write(0).ok());  // only segment 0 has a hole
  CostBenefitPolicy policy;
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 1, &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_GT(store->shard(0).segments()[victims[0]].Emptiness(), 0.0);
}

TEST(MdcPolicyTest, FullyEmptySegmentCleanedFirst) {
  auto store = MakeStore<MdcPolicy>();
  WriteRange(store.get(), 0, 12);
  // Kill all pages of the second segment (pages 4..7).
  for (PageId p = 4; p < 8; ++p) ASSERT_TRUE(store->Write(p).ok());
  MdcPolicy policy;
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 1, &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_DOUBLE_EQ(store->shard(0).segments()[victims[0]].Emptiness(), 1.0);
}

TEST(MdcPolicyTest, FullyLiveSegmentCleanedLast) {
  auto store = MakeStore<MdcPolicy>();
  WriteRange(store.get(), 0, 12);
  ASSERT_TRUE(store->Write(0).ok());
  ASSERT_TRUE(store->Write(4).ok());
  MdcPolicy policy;
  std::vector<SegmentId> victims;
  // Ask for all sealed victims; the fully-live ones must sort to the end.
  policy.SelectVictims(store->shard(0), 0, 100, &victims);
  ASSERT_GE(victims.size(), 3u);
  EXPECT_EQ(store->shard(0).segments()[victims.back()].Emptiness(), 0.0);
  EXPECT_GT(store->shard(0).segments()[victims.front()].Emptiness(), 0.0);
}

// §4.5: for a uniform distribution MDC orders segments exactly as greedy:
// (1-E)/E^2 is monotone decreasing in E, so smallest-decline = largest-E,
// provided update frequencies are equal.
TEST(MdcPolicyTest, MatchesGreedyOrderUnderEqualFrequency) {
  auto store = MakeStore<MdcPolicy>(true);
  store->SetExactFrequencyOracle([](PageId) { return 1.0; });
  WriteRange(store.get(), 0, 16);
  // Punch a different number of holes per segment.
  ASSERT_TRUE(store->Write(0).ok());
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Write(2).ok());
  ASSERT_TRUE(store->Write(4).ok());
  ASSERT_TRUE(store->Write(5).ok());
  ASSERT_TRUE(store->Write(8).ok());

  MdcPolicy mdc(true);
  GreedyPolicy greedy;
  std::vector<SegmentId> mdc_victims, greedy_victims;
  mdc.SelectVictims(store->shard(0), 0, 3, &mdc_victims);
  greedy.SelectVictims(store->shard(0), 0, 3, &greedy_victims);
  ASSERT_EQ(mdc_victims.size(), 3u);
  // Compare by emptiness rank rather than id (ties may reorder ids).
  for (size_t i = 0; i < 3; ++i) {
    const auto& segs = store->shard(0).segments();
    EXPECT_DOUBLE_EQ(segs[mdc_victims[i]].Emptiness(),
                     segs[greedy_victims[i]].Emptiness());
  }
}

// The declining-cost priority: between two equally-empty segments, the one
// whose pages update *less* frequently (larger unow - up2) has the smaller
// expected decline and must be cleaned first (§4.1 "process first the
// objects with the smallest rates of decline").
TEST(MdcPolicyTest, ColderOfEqualEmptinessCleanedFirst) {
  auto store = MakeStore<MdcPolicy>(true);
  // Give pages 0..3 high frequency, 4..7 low, via the oracle.
  store->SetExactFrequencyOracle(
      [](PageId p) { return p < 4 ? 8.0 : 0.125; });
  WriteRange(store.get(), 0, 8);
  ASSERT_TRUE(store->Write(0).ok());  // one hole in hot segment
  ASSERT_TRUE(store->Write(4).ok());  // one hole in cold segment
  MdcPolicy policy(true);
  std::vector<SegmentId> victims;
  policy.SelectVictims(store->shard(0), 0, 2, &victims);
  ASSERT_EQ(victims.size(), 2u);
  // First victim: the cold segment (pages 5..7 live, upf 0.125).
  const Segment& first = store->shard(0).segments()[victims[0]];
  double mean_upf = first.exact_upf_sum() / first.live_count();
  EXPECT_LT(mean_upf, 1.0);
}

TEST(MultiLogPolicyTest, SingleLogWithoutHistory) {
  MultiLogPolicy policy;
  auto store = MakeStore<MultiLogPolicy>();
  // Unknown frequency (first writes): everything goes to one log.
  const uint32_t log0 = policy.PlacementLog(store->shard(0), 0, false, 0.0);
  const uint32_t log1 = policy.PlacementLog(store->shard(0), 1, false, 0.0);
  EXPECT_EQ(log0, log1);
  EXPECT_EQ(policy.NumLogs(), 1u);
}

TEST(MultiLogPolicyTest, DistinctBandsGetDistinctLogs) {
  MultiLogPolicy policy;
  auto store = MakeStore<MultiLogPolicy>();
  const StoreShard& shard = store->shard(0);
  const uint32_t hot = policy.PlacementLog(shard, 0, false, 1.0 / 4.0);
  const uint32_t cold = policy.PlacementLog(shard, 1, false, 1.0 / 4096.0);
  EXPECT_NE(hot, cold);
  // Same band maps to the same log.
  EXPECT_EQ(policy.PlacementLog(shard, 2, false, 1.0 / 5.0), hot);
}

TEST(MultiLogPolicyTest, LogCapFallsBackToNearestBand) {
  MultiLogPolicy policy(false, /*max_logs=*/2);
  auto store = MakeStore<MultiLogPolicy>();
  const StoreShard& shard = store->shard(0);
  const uint32_t a = policy.PlacementLog(shard, 0, false, 1.0 / 2.0);
  const uint32_t b = policy.PlacementLog(shard, 1, false, 1.0 / (1 << 20));
  EXPECT_EQ(policy.NumLogs(), 2u);
  // A third band must reuse one of the two existing logs.
  const uint32_t c = policy.PlacementLog(shard, 2, false, 1.0 / (1 << 10));
  EXPECT_TRUE(c == a || c == b);
  EXPECT_EQ(policy.NumLogs(), 2u);
}

TEST(MultiLogPolicyTest, CleansOneSegmentAtATime) {
  MultiLogPolicy policy;
  EXPECT_EQ(policy.PreferredBatch(64), 1u);
}

TEST(MultiLogPolicyTest, SelectsVictimFromOwnOrNeighbourLogs) {
  Status st;
  StoreConfig cfg = TinyConfig();
  cfg.gc_shares_user_stream = true;
  MultiLogPolicy* policy = nullptr;
  auto store = ShardedStore::Create(
      cfg, 1,
      [&policy] {
        auto owned = std::make_unique<MultiLogPolicy>();
        policy = owned.get();
        return owned;
      },
      &st);
  ASSERT_TRUE(st.ok());
  // Fill with first writes: all in the unknown-frequency log.
  for (PageId p = 0; p < 12; ++p) ASSERT_TRUE(store->Write(p).ok());
  std::vector<SegmentId> victims;
  policy->SelectVictims(store->shard(0), /*triggering_log=*/0, 4, &victims);
  ASSERT_EQ(victims.size(), 1u);  // one at a time
  EXPECT_EQ(store->shard(0).segments()[victims[0]].state(),
            SegmentState::kSealed);
}

TEST(PolicyFactoryTest, NamesRoundTrip) {
  for (Variant v : AllVariants()) {
    Variant parsed;
    ASSERT_TRUE(ParseVariant(VariantName(v), &parsed)) << VariantName(v);
    EXPECT_EQ(parsed, v);
  }
  Variant dummy;
  EXPECT_FALSE(ParseVariant("no-such-policy", &dummy));
}

TEST(PolicyFactoryTest, PolicyNamesMatchVariantLabels) {
  // The policy object reports the paper's label (ablations share the MDC
  // policy object, so their label comes from the variant, not the policy).
  EXPECT_EQ(MakePolicy(Variant::kAge)->name(), "age");
  EXPECT_EQ(MakePolicy(Variant::kGreedy)->name(), "greedy");
  EXPECT_EQ(MakePolicy(Variant::kCostBenefit)->name(), "cost-benefit");
  EXPECT_EQ(MakePolicy(Variant::kMultiLog)->name(), "multi-log");
  EXPECT_EQ(MakePolicy(Variant::kMultiLogOpt)->name(), "multi-log-opt");
  EXPECT_EQ(MakePolicy(Variant::kMdc)->name(), "MDC");
  EXPECT_EQ(MakePolicy(Variant::kMdcOpt)->name(), "MDC-opt");
}

TEST(PolicyFactoryTest, VariantConfigConventions) {
  StoreConfig c;
  c.write_buffer_segments = 16;
  ApplyVariantConfig(Variant::kAge, &c);
  EXPECT_EQ(c.write_buffer_segments, 0u);
  EXPECT_FALSE(c.separate_user_writes);

  c = StoreConfig{};
  c.write_buffer_segments = 16;
  ApplyVariantConfig(Variant::kMdc, &c);
  EXPECT_EQ(c.write_buffer_segments, 16u);
  EXPECT_TRUE(c.separate_user_writes);
  EXPECT_TRUE(c.separate_gc_writes);

  c = StoreConfig{};
  ApplyVariantConfig(Variant::kMdcNoSepUser, &c);
  EXPECT_FALSE(c.separate_user_writes);
  EXPECT_TRUE(c.separate_gc_writes);

  c = StoreConfig{};
  ApplyVariantConfig(Variant::kMdcNoSepUserGc, &c);
  EXPECT_FALSE(c.separate_user_writes);
  EXPECT_FALSE(c.separate_gc_writes);

  c = StoreConfig{};
  ApplyVariantConfig(Variant::kMultiLog, &c);
  EXPECT_TRUE(c.gc_shares_user_stream);
  EXPECT_EQ(c.write_buffer_segments, 0u);
}

TEST(PolicyFactoryTest, OracleRequirements) {
  EXPECT_FALSE(VariantNeedsOracle(Variant::kMdc));
  EXPECT_TRUE(VariantNeedsOracle(Variant::kMdcOpt));
  EXPECT_FALSE(VariantNeedsOracle(Variant::kMultiLog));
  EXPECT_TRUE(VariantNeedsOracle(Variant::kMultiLogOpt));
  EXPECT_FALSE(VariantNeedsOracle(Variant::kAge));
}

}  // namespace
}  // namespace lss
