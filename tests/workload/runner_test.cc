#include "workload/runner.h"

#include <gtest/gtest.h>

#include "analysis/uniform_model.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

// Small but realistic geometry: 64 segments of 64 pages = 4096 physical
// pages. Runs in milliseconds yet exhibits steady-state cleaning.
StoreConfig TestConfig() {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 64 * 4096;
  c.num_segments = 64;
  c.clean_trigger_segments = 4;
  c.clean_batch_segments = 8;
  c.write_buffer_segments = 4;
  return c;
}

TEST(ScaleConfigTest, HitsRequestedFillFactor) {
  StoreConfig base = TestConfig();
  const StoreConfig c = ScaleConfigForFill(base, 2048, 0.5);
  EXPECT_EQ(c.num_segments, 64u);
  EXPECT_NEAR(static_cast<double>(2048) / c.PhysicalPages(), 0.5, 0.02);
}

TEST(ScaleConfigTest, EnforcesMinimumDevice) {
  const StoreConfig c = ScaleConfigForFill(TestConfig(), 10, 0.9);
  EXPECT_GE(c.num_segments, 8u);
}

TEST(RunnerTest, FailsWhenDeviceTooSmall) {
  UniformWorkload w(100000);
  RunSpec spec;
  spec.fill_factor = 0.8;
  const RunResult r = RunSynthetic(TestConfig(), Variant::kGreedy, w, spec);
  EXPECT_FALSE(r.status.ok());
}

TEST(RunnerTest, UniformGreedyApproachesAnalyticModel) {
  // Greedy is optimal under uniform updates; its measured Wamp should be
  // near the fixpoint model (Table 1). The free-pool reserve (trigger +
  // in-flight batch + open segments) is unusable slack, so the analytic
  // comparison point is the *effective* fill factor — benches at paper
  // scale make the reserve negligible, this test accounts for it instead.
  StoreConfig base = TestConfig();
  base.num_segments = 256;
  base.clean_trigger_segments = 2;
  base.clean_batch_segments = 4;
  const uint64_t user_pages = base.UserPagesForFillFactor(0.8);
  UniformWorkload w(user_pages);
  RunSpec spec;
  spec.fill_factor = 0.8;
  spec.warmup_multiplier = 6;
  spec.measure_multiplier = 10;
  const RunResult r = RunSynthetic(base, Variant::kGreedy, w, spec);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const double reserve_segments = 2 + 4 + 2;  // trigger + batch + opens
  const double f_eff = static_cast<double>(user_pages) /
                       (static_cast<double>(base.PhysicalPages()) -
                        reserve_segments * base.PagesPerSegment());
  const double analytic = WampFromEmptiness(SolveSteadyStateEmptiness(f_eff));
  EXPECT_NEAR(r.wamp, analytic, analytic * 0.2) << "analytic=" << analytic;
  EXPECT_EQ(r.variant, "greedy");
  EXPECT_GT(r.measured_updates, 0u);
}

TEST(RunnerTest, SkewHelpsMdcBeatGreedy) {
  // The paper's core claim in miniature (Figure 3): under a skewed
  // hot-cold workload MDC-opt beats greedy.
  const StoreConfig base = TestConfig();
  const uint64_t user_pages = base.UserPagesForFillFactor(0.8);
  HotColdWorkload w(user_pages, 0.9);
  RunSpec spec;
  spec.fill_factor = 0.8;
  spec.warmup_multiplier = 8;
  spec.measure_multiplier = 10;
  const RunResult greedy = RunSynthetic(base, Variant::kGreedy, w, spec);
  const RunResult mdc = RunSynthetic(base, Variant::kMdcOpt, w, spec);
  ASSERT_TRUE(greedy.status.ok());
  ASSERT_TRUE(mdc.status.ok());
  EXPECT_LT(mdc.wamp, greedy.wamp);
}

TEST(RunnerTest, ResultsAreReproducibleAcrossRuns) {
  const StoreConfig base = TestConfig();
  const uint64_t user_pages = base.UserPagesForFillFactor(0.6);
  UniformWorkload w(user_pages);
  RunSpec spec;
  spec.fill_factor = 0.6;
  spec.warmup_multiplier = 2;
  spec.measure_multiplier = 3;
  spec.seed = 99;
  const RunResult a = RunSynthetic(base, Variant::kMdc, w, spec);
  const RunResult b = RunSynthetic(base, Variant::kMdc, w, spec);
  ASSERT_TRUE(a.status.ok());
  EXPECT_DOUBLE_EQ(a.wamp, b.wamp);
}

TEST(RunnerTest, TraceReplayMeasuresSuffixOnly) {
  // A trace whose prefix inserts pages and whose suffix rewrites one page
  // repeatedly. Measurement starts at the suffix.
  const StoreConfig base = TestConfig();
  Trace t;
  const uint64_t user_pages = base.UserPagesForFillFactor(0.5);
  for (PageId p = 0; p < user_pages; ++p) t.AppendWrite(p);
  const size_t measure_from = t.Size();
  for (int i = 0; i < 5000; ++i) t.AppendWrite(i % 64);
  const RunResult r = RunTrace(base, Variant::kGreedy, t, measure_from);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.measured_updates, 5000u);
}

TEST(RunnerTest, TraceReplayWithOracleVariant) {
  const StoreConfig base = TestConfig();
  Trace t;
  const uint64_t user_pages = base.UserPagesForFillFactor(0.5);
  for (PageId p = 0; p < user_pages; ++p) t.AppendWrite(p);
  const size_t measure_from = t.Size();
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    t.AppendWrite(rng.NextBounded(user_pages));
  }
  const RunResult r = RunTrace(base, Variant::kMdcOpt, t, measure_from);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.wamp, 0.0);
}

TEST(RunnerTest, TraceReplayHandlesDeletes) {
  const StoreConfig base = TestConfig();
  Trace t;
  for (PageId p = 0; p < 100; ++p) t.AppendWrite(p);
  for (PageId p = 0; p < 50; ++p) t.AppendDelete(p);
  // Deleting an absent page must not abort the replay.
  t.AppendDelete(9999);
  const RunResult r = RunTrace(base, Variant::kAge, t, 0);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
}

// --- Parallel trace replay ------------------------------------------------

// A TPC-C-shaped synthetic trace: a load prefix writing every page once,
// then a skewed update/delete mix. Returns the measure boundary.
size_t BuildReplayTrace(uint64_t user_pages, Trace* t) {
  for (PageId p = 0; p < user_pages; ++p) t->AppendWrite(p);
  const size_t measure_from = t->Size();
  Rng rng(1234);
  for (int i = 0; i < 30000; ++i) {
    const PageId p = rng.NextBool(0.8)
                         ? rng.NextBounded(user_pages / 5)  // hot fifth
                         : rng.NextBounded(user_pages);
    if (rng.NextBool(0.02)) {
      t->AppendDelete(p);
    } else {
      t->AppendWrite(p);
    }
  }
  return measure_from;
}

// Serial ordering ground truth: the whole trace applied in order, on the
// caller's thread, to an equally-sharded store. Each shard's state
// depends only on the subsequence of records routed to it, so a correct
// parallel replay must reproduce this store's per-shard stats and
// per-page final state exactly.
std::unique_ptr<ShardedStore> SerialShardedReplay(const StoreConfig& base,
                                                  Variant v, const Trace& t,
                                                  size_t measure_from,
                                                  uint32_t shards) {
  StoreConfig cfg = base;
  ApplyVariantConfig(v, &cfg);
  Status st;
  auto store =
      ShardedStore::Create(cfg, shards, [v] { return MakePolicy(v); }, &st);
  EXPECT_NE(store, nullptr) << st.ToString();
  if (store == nullptr) return nullptr;
  const auto& recs = t.records();
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i == measure_from) store->ResetMeasurement();
    Status s;
    if (recs[i].op == TraceRecord::Op::kWrite) {
      s = store->Write(recs[i].page, recs[i].bytes);
    } else {
      s = store->Delete(recs[i].page);
      if (s.code() == Status::Code::kNotFound) s = Status::OK();
    }
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return store;
}

// Golden counters of the single-threaded trace replay loop, recorded
// before that loop was folded into ReplayTraceParallel; a 1-shard RunTrace
// (which replays the trace in place) must reproduce them bit for bit.
TEST(RunnerTest, TraceReplaySingleShardMatchesGoldenCounters) {
  const StoreConfig base = TestConfig();
  Trace t;
  const size_t measure_from =
      BuildReplayTrace(base.UserPagesForFillFactor(0.6), &t);
  const RunResult r = RunTrace(base, Variant::kMdc, t, measure_from);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.shards, 1u);
  EXPECT_EQ(r.measured_updates, 29371u);
  EXPECT_EQ(r.stats.gc_pages_written, 12996u);
  EXPECT_EQ(r.stats.segments_cleaned, 640u);
  EXPECT_EQ(r.stats.cleanings, 80u);
  EXPECT_EQ(r.stats.deletes, 614u);
  EXPECT_EQ(r.wamp, 0x1.c5779f1155408p-2);
  EXPECT_EQ(r.mean_clean_emptiness, 0x1.5d8cccccccccdp-1);
  EXPECT_EQ(r.effective_fill, 0x1.2eap-1);
}

TEST(RunnerTest, TraceReplayParallelPreservesPerPageOrder) {
  // The determinism-of-contents check: a 4-shard parallel replay must
  // leave every page in exactly the state a serial replay through an
  // equally-sharded store leaves it, and every shard's counters must
  // match — any intra-shard reordering would desynchronise cleaning and
  // show up in gc_pages_written / segments_cleaned / final state.
  const StoreConfig base = TestConfig();
  const uint32_t shards = 4;
  const uint64_t user_pages = base.UserPagesForFillFactor(0.6);
  Trace t;
  const size_t measure_from = BuildReplayTrace(user_pages, &t);

  auto serial =
      SerialShardedReplay(base, Variant::kGreedy, t, measure_from, shards);
  ASSERT_NE(serial, nullptr);

  StoreConfig cfg = base;
  ApplyVariantConfig(Variant::kGreedy, &cfg);
  Status st;
  auto parallel = ShardedStore::Create(
      cfg, shards, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(parallel, nullptr) << st.ToString();
  ASSERT_TRUE(ReplayTraceParallel(parallel.get(), t, measure_from).ok());

  for (uint32_t s = 0; s < shards; ++s) {
    const StoreStats a = serial->shard(s).StatsSnapshot();
    const StoreStats b = parallel->shard(s).StatsSnapshot();
    EXPECT_EQ(a.user_updates, b.user_updates) << "shard " << s;
    EXPECT_EQ(a.user_pages_written, b.user_pages_written) << "shard " << s;
    EXPECT_EQ(a.gc_pages_written, b.gc_pages_written) << "shard " << s;
    EXPECT_EQ(a.segments_cleaned, b.segments_cleaned) << "shard " << s;
    EXPECT_EQ(a.deletes, b.deletes) << "shard " << s;
    EXPECT_DOUBLE_EQ(a.WriteAmplification(), b.WriteAmplification())
        << "shard " << s;
  }
  // Per-page final versions (presence + size) must agree everywhere.
  for (PageId p = 0; p < user_pages; ++p) {
    ASSERT_EQ(serial->Contains(p), parallel->Contains(p)) << "page " << p;
    ASSERT_EQ(serial->PageSize(p), parallel->PageSize(p)) << "page " << p;
  }
  EXPECT_TRUE(parallel->CheckInvariants().ok());
}

// A 4-shard replay of a pre-split trace reproduces the golden counters
// recorded from the per-record router path it replaced, and a ShardedTrace
// split for a different shard count is ignored (the replay splits the
// trace itself) rather than misrouting records.
TEST(RunnerTest, TraceReplayParallelPresplitMatchesGoldenCounters) {
  const StoreConfig base = TestConfig();
  const uint32_t shards = 4;
  Trace t;
  const size_t measure_from =
      BuildReplayTrace(base.UserPagesForFillFactor(0.6), &t);
  const double kShardWamp[] = {0x1.9560ce8560ce8p+0, 0x1.c62c7cbcc3afbp+0,
                               0x1.4741aee7e942p+0, 0x1.1cb9fdfb9e346p+0};
  auto expect_golden = [&](const RunResult& r) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.measured_updates, 29371u);
    EXPECT_EQ(r.stats.gc_pages_written, 41594u);
    EXPECT_EQ(r.stats.segments_cleaned, 1088u);
    EXPECT_EQ(r.stats.cleanings, 136u);
    EXPECT_EQ(r.stats.deletes, 614u);
    EXPECT_EQ(r.wamp, 0x1.702a3414e3a87p+0);
    EXPECT_EQ(r.mean_clean_emptiness, 0x1.9c52d2d2d2d2dp-2);
    EXPECT_EQ(r.effective_fill, 0x1.486p-1);
    ASSERT_EQ(r.shard_wamp.size(), shards);
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(r.shard_wamp[s], kShardWamp[s]) << "shard " << s;
    }
  };

  const ShardedTrace presplit = SplitTrace(t, measure_from, shards);
  ASSERT_TRUE(presplit.Valid());
  expect_golden(
      RunTrace(base, Variant::kMdc, t, measure_from, shards, &presplit));

  const ShardedTrace wrong = SplitTrace(t, measure_from, shards / 2);
  expect_golden(RunTrace(base, Variant::kMdc, t, measure_from, shards, &wrong));
}

TEST(RunnerTest, TraceReplayParallelHandlesDeletesAndOracle) {
  const StoreConfig base = TestConfig();
  Trace t;
  const size_t measure_from =
      BuildReplayTrace(base.UserPagesForFillFactor(0.5), &t);
  t.AppendDelete(999999);  // absent page must not abort the replay
  const RunResult r = RunTrace(base, Variant::kMdcOpt, t, measure_from, 4);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.shards, 4u);
  // The measured suffix holds 30000 mixed records, ~2% deletes; only
  // writes count as updates.
  EXPECT_GT(r.measured_updates, 28000u);
  EXPECT_LT(r.measured_updates, 30000u);
  EXPECT_GT(r.wamp, 0.0);
  EXPECT_EQ(r.shard_wamp.size(), 4u);
}

// Every variant must survive a short skewed run at moderate fill.
class RunnerVariantTest : public ::testing::TestWithParam<Variant> {};

TEST_P(RunnerVariantTest, ShortRunSucceeds) {
  const StoreConfig base = TestConfig();
  const uint64_t user_pages = base.UserPagesForFillFactor(0.7);
  HotColdWorkload w(user_pages, 0.8);
  RunSpec spec;
  spec.fill_factor = 0.7;
  spec.warmup_multiplier = 2;
  spec.measure_multiplier = 3;
  const RunResult r = RunSynthetic(base, GetParam(), w, spec);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.wamp, 0.0);
  EXPECT_NEAR(r.effective_fill, 0.7, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, RunnerVariantTest, ::testing::ValuesIn(AllVariants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string n = VariantName(info.param);
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

}  // namespace
}  // namespace lss
