// Crash-recovery torture harness (the PR's test tentpole).
//
// Each iteration builds a file-backed store whose shards sit behind
// FaultInjectionBackend, runs a seeded write/delete workload, draws a
// durable frontier with Checkpoint(), then arms a randomized per-shard
// kill point (CrashAfterOps): after N more backend operations the shard
// "loses power" mid-operation — the metadata log gets a torn tail, the
// crashing slot a partial payload overwrite, and nothing queued is
// flushed. The store is then reopened from the torn files and audited:
//
//   * recovery must succeed and CheckInvariants must hold;
//   * every page acknowledged at the frontier must be present with a
//     version at least as new as its frontier version (zero lost
//     acknowledged writes), unless a newer acknowledged delete removed
//     it — strictly, in every iteration and every geometry; there is
//     no tolerated-loss carve-out anywhere in this file;
//   * every surviving page must read back with a byte pattern and size
//     matching some version that was actually written (no invented or
//     torn data);
//   * shards that did not crash must recover their exact final state;
//   * the recovered store must stay fully usable (writes, invariants,
//     clean close, second reopen).
//
// The strict rule covers AllocateSegment's withheld-slot fallback too:
// since entry re-homing landed, a withheld slot is reused only after
// every entry still needed from it has been persisted under a durable
// re-homing record (withheld_slot_reuses_rehomed) or shown to need
// nothing (withheld_slot_reuses_plain). The diverting geometries assert
// the re-homed path actually fires, and pinned-seed tests replay the
// two workloads that lost pages before re-homing existed.
//
// Kill points land mid-seal, between a seal and its victim's free
// record, mid-checkpoint, mid-group-commit, mid-hole-punch and — via
// the dedicated sweep below — exactly at and around the re-homing
// record itself. Both 1-shard and 8-shard geometries run, alternating
// sync and async seal pipelines; LSS_TORTURE_ITERS scales the
// kill-point count (default 200 per geometry; scripts/check.sh
// --torture raises it to 600).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace lss {
namespace {

int TortureIters() {
  if (const char* env = std::getenv("LSS_TORTURE_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

// One operation in the harness's model of the store: a write of `bytes`,
// or a delete (bytes == kDeleteOp). `acked` records whether the store
// returned OK — a failed op may still have partially reached the device
// (e.g. a seal enqueued before the crash error surfaced), so tentative
// versions stay in the history as *allowed* but not *required* states.
constexpr int64_t kDeleteOp = -1;
struct ModelOp {
  int64_t bytes;
  bool acked;
};

struct PageModel {
  std::vector<ModelOp> ops;
  // Version count (== ops.size()) at the durable frontier.
  size_t frontier = 0;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/lss_crash_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    for (uint32_t i = 0; i < 16; ++i) {
      ::unlink(FileBackend::DataPath(dir_, i).c_str());
      ::unlink(FileBackend::MetaPath(dir_, i).c_str());
      ::unlink(FileBackend::MetaTempPath(dir_, i).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
};

// Knobs a geometry can vary beyond shard count: the cleaning policy and
// how tight the free pool runs. The default reproduces the original
// greedy harness; the multi-log variant (which ties up two open
// segments per active log) combined with a tiny pool drives the
// AllocateSegment withheld-slot fallback — and with it, entry
// re-homing.
struct TortureGeometry {
  Variant variant = Variant::kGreedy;
  uint32_t segments_per_shard = 32;
  PageId pages_per_shard = 110;  // fill ~0.4 at max size (default geo)
  // Periodic-checkpoint cadence (backend ops) for TortureConfig.
  uint32_t checkpoint_interval = 12;
  // > 0: the torture phases issue an explicit Checkpoint() barrier every
  // this many driver ops, so partially-filled open segments are
  // re-checkpointed as they grow — the regime where suffix-only delta
  // records chain off a full base.
  uint32_t barrier_every = 0;
};

// The geometry that reliably reaches the withheld-slot fallback (see
// TortureMultiLogTinyFreePool for why).
TortureGeometry MultiLogTinyPoolGeometry() {
  TortureGeometry geo;
  geo.variant = Variant::kMultiLog;
  geo.segments_per_shard = 26;
  geo.pages_per_shard = 90;
  return geo;
}

StoreConfig TortureConfig(uint32_t num_shards, bool async_seal,
                          const std::string& dir,
                          const TortureGeometry& geo = {}) {
  StoreConfig c;
  c.page_bytes = 1024;
  c.segment_bytes = 8 * 1024;  // 8 default-size pages per segment
  c.num_segments = geo.segments_per_shard * num_shards;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 2;
  c.backend = BackendKind::kFile;
  c.backend_dir = dir;
  c.backend_fsync = true;
  c.async_seal = async_seal;
  c.seal_queue_depth = 4;
  c.checkpoint_interval_ops = geo.checkpoint_interval;
  return c;
}

// Deterministic size for version v of page p, in [256, 1024]; distinct
// enough across consecutive versions that the audit can tell which
// version a recovered page is.
uint32_t VersionBytes(PageId p, size_t version) {
  return 256 + 256 * static_cast<uint32_t>((p * 31 + version) % 4);
}

// Applies one random op to store+model. Returns false once the store
// reports the (expected) simulated crash.
bool ApplyRandomOp(ShardedStore* store, std::vector<PageModel>* model,
                   PageId num_pages, Rng* rng) {
  const PageId p = rng->NextBounded(num_pages);
  PageModel& pm = (*model)[p];
  const bool has_live =
      !pm.ops.empty() &&
      pm.ops.back().bytes != kDeleteOp;  // by the model's acked view
  Status s;
  int64_t bytes;
  if (has_live && rng->NextBool(0.08)) {
    s = store->Delete(p);
    bytes = kDeleteOp;
    if (s.code() == Status::Code::kNotFound) return true;  // model drift
  } else {
    const uint32_t b = VersionBytes(p, pm.ops.size());
    s = store->Write(p, b);
    bytes = b;
  }
  pm.ops.push_back(ModelOp{bytes, s.ok()});
  return s.ok();
}

// Audits one page of a crashed shard. `f` is the frontier version (1-
// based count; 0 = nothing acknowledged). Recovered state must be some
// version >= the frontier version.
void AuditCrashedPage(const ShardedStore& store, PageId p,
                      const PageModel& pm) {
  const size_t n = pm.ops.size();
  const size_t f = pm.frontier;
  if (store.Contains(p)) {
    const uint32_t size = store.PageSize(p);
    bool legal = false;
    for (size_t v = (f == 0 ? 1 : f); v <= n && !legal; ++v) {
      legal = pm.ops[v - 1].bytes == static_cast<int64_t>(size);
    }
    std::vector<uint8_t> data;
    const Status rs = store.ReadPage(p, &data);
    EXPECT_TRUE(legal) << "page " << p << " recovered with size " << size
                       << ", not any version >= frontier " << f;
    EXPECT_TRUE(rs.ok()) << "page " << p << ": " << rs.ToString();
    EXPECT_EQ(data.size(), size) << "page " << p;
  } else {
    // Absence is legal only if nothing was acknowledged, or some delete
    // at/after the frontier (acked or in-flight) may have survived.
    bool legal = f == 0;
    for (size_t v = (f == 0 ? 1 : f); v <= n && !legal; ++v) {
      legal = pm.ops[v - 1].bytes == kDeleteOp;
    }
    EXPECT_TRUE(legal) << "page " << p
                       << " lost: acknowledged frontier version " << f
                       << " of " << n << " is gone";
  }
}

// Audits one page of a shard that closed cleanly: exact final acked
// state, nothing more, nothing less.
void AuditCleanPage(const ShardedStore& store, PageId p,
                    const PageModel& pm) {
  int64_t last = kDeleteOp;
  bool any = false;
  for (const ModelOp& op : pm.ops) {
    if (op.acked) {
      last = op.bytes;
      any = true;
    }
  }
  if (!any || last == kDeleteOp) {
    EXPECT_FALSE(store.Contains(p)) << "page " << p;
  } else {
    ASSERT_TRUE(store.Contains(p)) << "page " << p;
    EXPECT_EQ(store.PageSize(p), static_cast<uint32_t>(last)) << "page " << p;
    std::vector<uint8_t> data;
    EXPECT_TRUE(store.ReadPage(p, &data).ok()) << "page " << p;
  }
}

// What an iteration exercised, summed over its shards; the geometries
// that exist to reach a path assert on these.
struct TortureCounts {
  uint64_t rehomed_reuses = 0;
  uint64_t plain_reuses = 0;
  uint64_t delta_records = 0;
  uint64_t compactions = 0;
  // Shards whose crash landed inside a metadata-log compaction.
  uint64_t compaction_kills = 0;
};

// Runs one kill-point iteration. `compaction_kill` >= 0 replaces the
// random op-count kill point with one inside the first or second
// compaction after the frontier, at FileBackend::CompactionStep
// `compaction_kill`.
void RunTortureIteration(const std::string& dir, uint32_t num_shards,
                         uint64_t seed, bool async_seal, bool audit_reuse,
                         const TortureGeometry& geo = {},
                         TortureCounts* counts = nullptr,
                         int compaction_kill = -1) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(num_shards) +
               " async=" + std::to_string(async_seal) +
               " variant=" + VariantName(geo.variant));
  const StoreConfig cfg = TortureConfig(num_shards, async_seal, dir, geo);
  const PageId num_pages = geo.pages_per_shard * num_shards;
  const int phase1_ops = 500 * static_cast<int>(num_shards);
  const int phase2_ops = 700 * static_cast<int>(num_shards);

  Rng rng(seed);
  std::vector<PageModel> model(num_pages);
  std::vector<FaultInjectionBackend*> faults(num_shards, nullptr);

  Status st;
  const Variant variant = geo.variant;
  auto store = ShardedStore::Create(
      cfg, num_shards, [variant] { return MakePolicy(variant); }, &st,
      [&faults](uint32_t shard_id) -> std::unique_ptr<SegmentBackend> {
        auto fault = std::make_unique<FaultInjectionBackend>(
            std::make_unique<FileBackend>());
        faults[shard_id] = fault.get();
        return fault;
      });
  ASSERT_NE(store, nullptr) << st.ToString();

  // Phase 1: build up state, unarmed — every op must succeed.
  for (int i = 0; i < phase1_ops; ++i) {
    ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng))
        << "unexpected failure before the crash was armed (op " << i << ")";
    if (geo.barrier_every > 0 &&
        (i + 1) % static_cast<int>(geo.barrier_every) == 0) {
      ASSERT_TRUE(store->Checkpoint().ok());
    }
  }

  // Durable frontier: everything acknowledged so far must survive any
  // later crash.
  ASSERT_TRUE(store->Checkpoint().ok());
  for (PageModel& pm : model) pm.frontier = pm.ops.size();

  // Arm: each shard dies after its own random number of further backend
  // ops (shards are independent files, so independent per-shard kill
  // points model a process kill exactly). Budgets beyond what phase 2
  // generates leave some shards uncrashed — also a valid outcome.
  const uint64_t budget_span = 220 / num_shards + 30;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (compaction_kill >= 0) {
      faults[s]->CrashInCompaction(
          faults[s]->compactions() +
              static_cast<int64_t>(rng.NextBounded(2)),
          static_cast<FileBackend::CompactionStep>(compaction_kill),
          /*seed=*/seed * 1000003u + s);
      continue;
    }
    faults[s]->CrashAfterOps(
        static_cast<int64_t>(rng.NextBounded(budget_span)),
        /*seed=*/seed * 1000003u + s);
  }

  // Phase 2: keep going; ops start failing as shards die. Failed ops
  // stay in the model as tentative versions (they may have partially
  // reached the device before the error surfaced).
  for (int i = 0; i < phase2_ops; ++i) {
    (void)ApplyRandomOp(store.get(), &model, num_pages, &rng);
    if (geo.barrier_every > 0 &&
        (i + 1) % static_cast<int>(geo.barrier_every) == 0) {
      // Dead shards reject the barrier; healthy ones just gain extra
      // durability beyond the modelled frontier, which the audit allows.
      (void)store->Checkpoint();
    }
  }

  // Read the fallback-diversion counters before the kill wipes them.
  // They no longer gate the audit — every diversion is either re-homed
  // (the slot's still-needed entries went durable first) or provably
  // had nothing to re-home — but the diverting geometries assert below
  // that the re-homed path actually fires.
  for (uint32_t s = 0; s < num_shards; ++s) {
    const StoreStats snap = store->shard(s).stats();
    if (counts != nullptr) {
      counts->rehomed_reuses += snap.withheld_slot_reuses_rehomed;
      counts->plain_reuses += snap.withheld_slot_reuses_plain;
      counts->delta_records += snap.checkpoint_delta_records;
    }
  }

  // "Kill the process": Close flushes the healthy shards (a shard still
  // alive at kill time that happened to have everything sealed) and is
  // rejected by the dead ones. Statuses are irrelevant — the next open
  // must cope either way. Note Close itself ticks the op budget (seals,
  // checkpoints, syncs), so a shard can crash *inside* Close; sample the
  // crash flags only afterwards.
  (void)store->Close();
  std::vector<bool> crashed(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    crashed[s] = faults[s]->crashed();
    if (counts != nullptr) {
      counts->compactions += static_cast<uint64_t>(faults[s]->compactions());
      counts->compaction_kills += faults[s]->crashed_in_compaction() ? 1 : 0;
    }
  }
  store.reset();

  // Reopen from the torn files with a plain file backend.
  auto reopened = ShardedStore::Open(
      cfg, num_shards, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(reopened, nullptr) << "recovery failed: " << st.ToString();
  ASSERT_TRUE(reopened->CheckInvariants().ok());

  for (PageId p = 0; p < num_pages; ++p) {
    if (model[p].ops.empty()) {
      EXPECT_FALSE(reopened->Contains(p)) << "page " << p;
      continue;
    }
    if (crashed[PageShard(p, num_shards)]) {
      AuditCrashedPage(*reopened, p, model[p]);
    } else {
      AuditCleanPage(*reopened, p, model[p]);
    }
  }

  // The recovered store must be a fully functional store, not a husk.
  if (audit_reuse) {
    Rng rng2(seed ^ 0xDEADBEEF);
    for (int i = 0; i < 300; ++i) {
      const PageId p = rng2.NextBounded(num_pages);
      const Status ws = reopened->Write(p, VersionBytes(p, i));
      ASSERT_TRUE(ws.ok()) << "op " << i << ": " << ws.ToString();
    }
    ASSERT_TRUE(reopened->CheckInvariants().ok());
    ASSERT_TRUE(reopened->Close().ok());
    reopened.reset();
    auto again = ShardedStore::Open(
        cfg, num_shards, [] { return MakePolicy(Variant::kGreedy); }, &st);
    ASSERT_NE(again, nullptr) << st.ToString();
    EXPECT_TRUE(again->CheckInvariants().ok());
  }
}

// Every geometry runs the strict zero-loss audit in every iteration —
// including the rare iterations that divert through the withheld-slot
// fallback (greedy reaches it too, e.g. 8-shard seed 20323): since
// entry re-homing landed those are no longer a loss window.
void RunTortureGeometry(const std::string& dir, uint32_t num_shards,
                        uint64_t seed_base) {
  const int iters = TortureIters();
  TortureCounts counts;
  for (int i = 0; i < iters; ++i) {
    RunTortureIteration(dir, num_shards, seed_base + i,
                        /*async_seal=*/(i % 2) == 1,
                        /*audit_reuse=*/(i % 8) == 0, TortureGeometry{},
                        &counts);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      FAIL() << "torture iteration " << i << " failed";
    }
  }
  if (counts.rehomed_reuses + counts.plain_reuses > 0) {
    std::printf("%u-shard torture: %llu re-homed + %llu plain withheld-slot "
                "reuses across %d iterations, zero losses\n",
                num_shards,
                static_cast<unsigned long long>(counts.rehomed_reuses),
                static_cast<unsigned long long>(counts.plain_reuses), iters);
  }
}

TEST_F(CrashRecoveryTest, TortureSingleShard) {
  RunTortureGeometry(dir_, /*num_shards=*/1, /*seed_base=*/10000);
}

TEST_F(CrashRecoveryTest, TortureEightShards) {
  RunTortureGeometry(dir_, /*num_shards=*/8, /*seed_base=*/20000);
}

TEST_F(CrashRecoveryTest, TortureMultiLogTinyFreePool) {
  // Multi-log ties up (up to) two open segments per active log, so at a
  // tiny free pool the cleaner can hold more GC destinations open than
  // there are spare free slots — exactly the regime where
  // AllocateSegment's withheld-slot skip finds only withheld slots and
  // falls back to reuse. Before entry re-homing this was the residual
  // crash window ROADMAP tracked as "Multi-GC-destination crash
  // window"; now the fallback must either re-home the slot's
  // still-needed entries (withheld_slot_reuses_rehomed) or prove the
  // slot needs nothing (withheld_slot_reuses_plain), and the audit is
  // strict zero-loss like every other geometry. The geometry must
  // actually exercise the re-homed path, or it is not testing what it
  // claims to.
  const TortureGeometry geo = MultiLogTinyPoolGeometry();
  const int iters = std::max(TortureIters() / 4, 25);
  TortureCounts counts;
  for (int i = 0; i < iters; ++i) {
    RunTortureIteration(dir_, /*num_shards=*/1, /*seed=*/30000 + i,
                        /*async_seal=*/(i % 2) == 1,
                        /*audit_reuse=*/(i % 8) == 0, geo, &counts);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "multi-log torture iteration " << i << " failed";
    }
  }
  EXPECT_GT(counts.rehomed_reuses, 0u)
      << "multi-log tiny-pool geometry never re-homed a withheld slot; "
         "tighten the free pool";
  std::printf("multi-log tiny-pool: %llu re-homed + %llu plain "
              "withheld-slot reuses across %d iterations, zero losses\n",
              static_cast<unsigned long long>(counts.rehomed_reuses),
              static_cast<unsigned long long>(counts.plain_reuses), iters);
}

// The regime where delta checkpoints chain: a short periodic interval
// plus explicit barriers every few dozen driver ops re-checkpoint the
// multi-log geometry's partially-filled open segments as they grow, so
// most open-segment state on the device is a full base record plus a
// chain of suffix records by the time the kill lands.
TortureGeometry DeltaChainGeometry() {
  TortureGeometry geo = MultiLogTinyPoolGeometry();
  geo.checkpoint_interval = 4;
  geo.barrier_every = 40;
  return geo;
}

// Delta-chain torture: every iteration recovers open segments from
// full-base + suffix chains (torn tails included) under the same strict
// zero-loss audit as every other geometry — and the geometry must
// actually emit delta records, or it is not testing what it claims to.
TEST_F(CrashRecoveryTest, TortureDeltaCheckpointChains) {
  const TortureGeometry geo = DeltaChainGeometry();
  const int iters = std::max(TortureIters() / 4, 25);
  TortureCounts counts;
  for (int i = 0; i < iters; ++i) {
    RunTortureIteration(dir_, /*num_shards=*/1, /*seed=*/50000 + i,
                        /*async_seal=*/(i % 2) == 1,
                        /*audit_reuse=*/(i % 8) == 0, geo,
                        &counts);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "delta-chain torture iteration " << i << " failed";
    }
  }
  EXPECT_GT(counts.delta_records, 0u)
      << "delta-chain geometry never emitted a delta checkpoint; shorten "
         "the barrier period";
  std::printf("delta-chain torture: %llu delta records across %d "
              "iterations, zero losses\n",
              static_cast<unsigned long long>(counts.delta_records), iters);
}

// The regime where the metadata log compacts several times per
// iteration: a small slot space puts the compaction trigger (a few full
// seal records per slot) well below one iteration's log growth.
TortureGeometry CompactionGeometry() {
  TortureGeometry geo;
  geo.segments_per_shard = 8;
  geo.pages_per_shard = 26;
  return geo;
}

// Metadata-log compaction torture: kill plans rotate between an ordinary
// op-count kill point and a kill inside a compaction at each of its
// three steps — a torn temporary log, a synced temporary log not yet
// renamed, and a rename whose directory sync never ran. Every iteration
// must recover under the same strict zero-loss audit, the geometry must
// compact several times per iteration, and the compaction kill points
// must actually fire.
TEST_F(CrashRecoveryTest, TortureMetaCompaction) {
  const TortureGeometry geo = CompactionGeometry();
  const int iters = std::max(TortureIters() / 4, 32);
  TortureCounts counts;
  for (int i = 0; i < iters; ++i) {
    RunTortureIteration(dir_, /*num_shards=*/1, /*seed=*/80000 + i,
                        /*async_seal=*/(i % 8) >= 4,
                        /*audit_reuse=*/(i % 8) == 0, geo, &counts,
                        /*compaction_kill=*/i % 4 - 1);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "compaction torture iteration " << i << " failed";
    }
  }
  EXPECT_GE(counts.compactions, 3u * static_cast<uint64_t>(iters))
      << "the compaction geometry no longer compacts several times per "
         "iteration; shrink it";
  EXPECT_GT(counts.compaction_kills, 0u);
  std::printf("compaction torture: %llu compactions, %llu kills inside one, "
              "across %d iterations, zero losses\n",
              static_cast<unsigned long long>(counts.compactions),
              static_cast<unsigned long long>(counts.compaction_kills), iters);
}

// Pinned regression seeds for the withheld-slot fallback. Before entry
// re-homing landed, the fallback could reuse a slot whose still-needed
// entries existed only in the victim's own records, and a kill point
// that landed before the successors' seals went durable lost
// acknowledged pages. Both seeds must divert and recover loss-free
// under the strict audit inside RunTortureIteration.
//
// The multi-log seed is one of those loss reproducers (sync seals, so
// it is deterministic). The eight-shard async original, seed 20323,
// diverted only in phase 2, after the crash was armed. Group commit
// makes the number of Sync ops, which tick the crash budget, depend on
// how the I/O thread batches, so under a slower build the kill could
// land before the diversion; it still runs, async and strictly
// audited, as iteration 323 of TortureEightShards under
// check.sh --torture. Seed 20624 diverts twice (both re-homed) in
// phase 1, before any crash is armed, so its count does not depend on
// seal timing; its diversions precede the phase-1 checkpoint barrier, so
// it never lost pages even without re-homing.
TEST_F(CrashRecoveryTest, PinnedLossSeedEightShardAsync) {
  TortureCounts counts;
  RunTortureIteration(dir_, /*num_shards=*/8, /*seed=*/20624,
                      /*async_seal=*/true, /*audit_reuse=*/false,
                      TortureGeometry{}, &counts);
  // The seed is pinned *because* it diverts; if the diversion stops
  // firing, the regression test has gone stale — repin it.
  EXPECT_GT(counts.rehomed_reuses + counts.plain_reuses, 0u);
}

TEST_F(CrashRecoveryTest, PinnedLossSeedMultiLogTinyFreePool) {
  TortureCounts counts;
  RunTortureIteration(dir_, /*num_shards=*/1, /*seed=*/30076,
                      /*async_seal=*/false, /*audit_reuse=*/false,
                      MultiLogTinyPoolGeometry(), &counts);
  EXPECT_GT(counts.rehomed_reuses + counts.plain_reuses, 0u);
}

// A focused regression for the crash window the checkpointing closed:
// drive heavy churn (reclaims + reseals + GC segments held open), crash
// at every op count in a dense range, and demand zero lost acknowledged
// writes each time. Sync mode, so the window (if it regressed) is not
// masked by pipeline batching.
TEST_F(CrashRecoveryTest, DenseKillPointsAroundReclaims) {
  for (int budget = 0; budget < 60; ++budget) {
    SCOPED_TRACE(budget);
    const StoreConfig cfg = TortureConfig(1, /*async_seal=*/false, dir_);
    const PageId num_pages = 100;
    Rng rng(777);
    std::vector<PageModel> model(num_pages);
    FaultInjectionBackend* fault = nullptr;
    Status st;
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st,
        [&fault](uint32_t) -> std::unique_ptr<SegmentBackend> {
          auto f = std::make_unique<FaultInjectionBackend>(
              std::make_unique<FileBackend>());
          fault = f.get();
          return f;
        });
    ASSERT_NE(store, nullptr) << st.ToString();
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (PageModel& pm : model) pm.frontier = pm.ops.size();
    fault->CrashAfterOps(budget, /*seed=*/9000 + budget);
    for (int i = 0; i < 400; ++i) {
      (void)ApplyRandomOp(store.get(), &model, num_pages, &rng);
    }
    // Close ticks the op budget too — sample the crash flag only after.
    (void)store->Close();
    const bool crashed = fault->crashed();
    store.reset();
    auto reopened = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
    ASSERT_NE(reopened, nullptr) << st.ToString();
    ASSERT_TRUE(reopened->CheckInvariants().ok());
    for (PageId p = 0; p < num_pages; ++p) {
      if (model[p].ops.empty()) continue;
      if (crashed) {
        AuditCrashedPage(*reopened, p, model[p]);
      } else {
        AuditCleanPage(*reopened, p, model[p]);
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "kill point " << budget << " failed";
    }
  }
}

// Kill points aimed at the re-homing emission itself. A probe run
// (unarmed, sync, multi-log tiny pool) finds a seed whose workload
// re-homes after the frontier and brackets the exact mutating-op range
// of the driver op that emitted the first re-homing record; the sweep
// then re-runs the identical workload armed with every budget in that
// bracket. Because the bracket covers the re-homing op itself, one
// budget kills it exactly — TearAndDie then appends garbage at the
// metadata tail, i.e. a torn re-homing record — and the budgets just
// past it crash after the re-homing fsync but before the reused slot's
// new seal is durable. Every budget must recover with zero lost
// acknowledged writes.
TEST_F(CrashRecoveryTest, KillPointsInsideRehomeEmission) {
  const TortureGeometry geo = MultiLogTinyPoolGeometry();
  const StoreConfig cfg = TortureConfig(1, /*async_seal=*/false, dir_, geo);
  const PageId num_pages = geo.pages_per_shard;
  constexpr int kWarmOps = 600;
  constexpr int kMaxProbeOps = 1600;

  auto make_store = [&](FaultInjectionBackend** fault,
                        Status* st) -> std::unique_ptr<ShardedStore> {
    return ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMultiLog); }, st,
        [fault](uint32_t) -> std::unique_ptr<SegmentBackend> {
          auto f = std::make_unique<FaultInjectionBackend>(
              std::make_unique<FileBackend>());
          *fault = f.get();
          return f;
        });
  };
  auto mutating_ops = [](const FaultInjectionBackend& f) {
    return f.seals() + f.checkpoints() + f.reclaims() + f.deletes() +
           f.syncs() + f.rehomes();
  };

  // Probe: find a seed that re-homes after the frontier and the
  // mutating-op range [lo_op, hi_op] (counted from the arming point,
  // 1-based) of the driver op during which the re-home fired.
  uint64_t seed = 0;
  int flip_driver_op = -1;
  int64_t lo_op = 0;
  int64_t hi_op = 0;
  for (uint64_t cand = 40000; cand < 40020 && flip_driver_op < 0; ++cand) {
    Rng rng(cand);
    std::vector<PageModel> model(num_pages);
    FaultInjectionBackend* fault = nullptr;
    Status st;
    auto store = make_store(&fault, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    for (int i = 0; i < kWarmOps; ++i) {
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    const int64_t base = mutating_ops(*fault);
    for (int i = 0; i < kMaxProbeOps; ++i) {
      const int64_t before = mutating_ops(*fault);
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
      if (fault->rehomes() > 0) {
        seed = cand;
        flip_driver_op = i;
        lo_op = before - base + 1;
        hi_op = mutating_ops(*fault) - base;
        break;
      }
    }
    ASSERT_TRUE(store->Close().ok());
  }
  ASSERT_GE(flip_driver_op, 0)
      << "no probe seed re-homed within the op budget; widen the probe";
  std::printf("rehome kill points: seed=%llu, re-home inside mutating ops "
              "[%lld, %lld] after the frontier\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(lo_op), static_cast<long long>(hi_op));

  // Sweep: budget b kills the (b+1)-th mutating op after arming, so
  // budgets [lo_op-1, hi_op-1] kill every op of the flip driver op —
  // the re-home among them — and a margin on both sides covers the
  // record just before it and the crash right after its fsync.
  bool saw_crash_at_or_before_rehome = false;
  bool saw_crash_after_rehome = false;
  const int64_t lo_budget = std::max<int64_t>(0, lo_op - 4);
  const int64_t hi_budget = hi_op + 3;
  for (int64_t budget = lo_budget; budget <= hi_budget; ++budget) {
    SCOPED_TRACE("rehome kill budget " + std::to_string(budget));
    Rng rng(seed);
    std::vector<PageModel> model(num_pages);
    FaultInjectionBackend* fault = nullptr;
    Status st;
    auto store = make_store(&fault, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    for (int i = 0; i < kWarmOps; ++i) {
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (PageModel& pm : model) pm.frontier = pm.ops.size();
    fault->CrashAfterOps(budget, /*seed=*/5150 + static_cast<uint64_t>(budget));
    for (int i = 0; i < flip_driver_op + 120; ++i) {
      (void)ApplyRandomOp(store.get(), &model, num_pages, &rng);
    }
    (void)store->Close();
    const bool crashed = fault->crashed();
    EXPECT_TRUE(crashed) << "budget never exhausted; the sweep is not "
                            "hitting the re-homing window";
    if (crashed && fault->rehomes() == 0) saw_crash_at_or_before_rehome = true;
    if (crashed && fault->rehomes() > 0) saw_crash_after_rehome = true;
    store.reset();
    auto reopened = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
    ASSERT_NE(reopened, nullptr) << st.ToString();
    ASSERT_TRUE(reopened->CheckInvariants().ok());
    for (PageId p = 0; p < num_pages; ++p) {
      if (model[p].ops.empty()) continue;
      if (crashed) {
        AuditCrashedPage(*reopened, p, model[p]);
      } else {
        AuditCleanPage(*reopened, p, model[p]);
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "rehome kill budget " << budget << " failed";
    }
  }
  // The contiguous bracket guarantees the boundary budget killed the
  // re-homing op itself (torn record tail) and a later one crashed
  // after its fsync; verify both sides were actually exercised.
  EXPECT_TRUE(saw_crash_at_or_before_rehome);
  EXPECT_TRUE(saw_crash_after_rehome);
}

// Kill points aimed at the delta-checkpoint emission itself. A probe
// run (unarmed, sync, delta-chain geometry) finds a seed whose workload
// emits its first suffix record after the frontier and brackets the
// exact mutating-op range of the driver step (op + possible barrier)
// that emitted it; the sweep re-runs the identical workload armed with
// every budget in that bracket. One budget kills the delta exactly —
// TearAndDie then garbles a partial prefix of the suffix payload range
// and the metadata tail, i.e. a torn suffix over payload whose prefix
// an earlier record of the same chain still covers — and the budgets
// just past it crash after the delta's fsync but before anything later
// is durable. Every budget must recover with zero lost acknowledged
// writes: the torn suffix must be discarded without corrupting the
// chain below it.
TEST_F(CrashRecoveryTest, KillPointsInsideDeltaEmission) {
  const TortureGeometry geo = DeltaChainGeometry();
  const StoreConfig cfg = TortureConfig(1, /*async_seal=*/false, dir_, geo);
  const PageId num_pages = geo.pages_per_shard;
  constexpr int kWarmOps = 600;
  constexpr int kMaxProbeOps = 1600;
  constexpr int kBarrierEvery = 25;

  auto make_store = [&](FaultInjectionBackend** fault,
                        Status* st) -> std::unique_ptr<ShardedStore> {
    return ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMultiLog); }, st,
        [fault](uint32_t) -> std::unique_ptr<SegmentBackend> {
          auto f = std::make_unique<FaultInjectionBackend>(
              std::make_unique<FileBackend>());
          *fault = f.get();
          return f;
        });
  };
  auto mutating_ops = [](const FaultInjectionBackend& f) {
    return f.seals() + f.checkpoints() + f.delta_checkpoints() +
           f.reclaims() + f.deletes() + f.syncs() + f.rehomes();
  };

  // Probe: find a seed that emits a delta after the frontier and the
  // mutating-op range [lo_op, hi_op] (counted from the arming point,
  // 1-based) of the driver step during which it fired.
  uint64_t seed = 0;
  int flip_driver_op = -1;
  int64_t lo_op = 0;
  int64_t hi_op = 0;
  for (uint64_t cand = 60000; cand < 60020 && flip_driver_op < 0; ++cand) {
    Rng rng(cand);
    std::vector<PageModel> model(num_pages);
    FaultInjectionBackend* fault = nullptr;
    Status st;
    auto store = make_store(&fault, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    for (int i = 0; i < kWarmOps; ++i) {
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
      if ((i + 1) % kBarrierEvery == 0) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    const int64_t base = mutating_ops(*fault);
    const int64_t deltas_at_frontier = fault->delta_checkpoints();
    for (int i = 0; i < kMaxProbeOps; ++i) {
      const int64_t before = mutating_ops(*fault);
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
      if ((i + 1) % kBarrierEvery == 0) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
      if (fault->delta_checkpoints() > deltas_at_frontier) {
        seed = cand;
        flip_driver_op = i;
        lo_op = before - base + 1;
        hi_op = mutating_ops(*fault) - base;
        break;
      }
    }
    ASSERT_TRUE(store->Close().ok());
  }
  ASSERT_GE(flip_driver_op, 0)
      << "no probe seed emitted a delta within the op budget; widen the "
         "probe";
  std::printf("delta kill points: seed=%llu, delta inside mutating ops "
              "[%lld, %lld] after the frontier\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(lo_op), static_cast<long long>(hi_op));

  // Sweep: budget b kills the (b+1)-th mutating op after arming, so
  // budgets [lo_op-1, hi_op-1] kill every op of the flip driver step —
  // the delta among them — and a margin on both sides covers the record
  // just before it and the crash right after its fsync.
  bool saw_crash_at_or_before_delta = false;
  bool saw_crash_after_delta = false;
  const int64_t lo_budget = std::max<int64_t>(0, lo_op - 4);
  const int64_t hi_budget = hi_op + 3;
  for (int64_t budget = lo_budget; budget <= hi_budget; ++budget) {
    SCOPED_TRACE("delta kill budget " + std::to_string(budget));
    Rng rng(seed);
    std::vector<PageModel> model(num_pages);
    FaultInjectionBackend* fault = nullptr;
    Status st;
    auto store = make_store(&fault, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    for (int i = 0; i < kWarmOps; ++i) {
      ASSERT_TRUE(ApplyRandomOp(store.get(), &model, num_pages, &rng));
      if ((i + 1) % kBarrierEvery == 0) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (PageModel& pm : model) pm.frontier = pm.ops.size();
    const int64_t deltas_at_frontier = fault->delta_checkpoints();
    fault->CrashAfterOps(budget, /*seed=*/6160 + static_cast<uint64_t>(budget));
    for (int i = 0; i < flip_driver_op + 120; ++i) {
      (void)ApplyRandomOp(store.get(), &model, num_pages, &rng);
      if ((i + 1) % kBarrierEvery == 0) (void)store->Checkpoint();
    }
    (void)store->Close();
    const bool crashed = fault->crashed();
    EXPECT_TRUE(crashed) << "budget never exhausted; the sweep is not "
                            "hitting the delta-emission window";
    if (crashed && fault->delta_checkpoints() == deltas_at_frontier) {
      saw_crash_at_or_before_delta = true;
    }
    if (crashed && fault->delta_checkpoints() > deltas_at_frontier) {
      saw_crash_after_delta = true;
    }
    store.reset();
    auto reopened = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
    ASSERT_NE(reopened, nullptr) << st.ToString();
    ASSERT_TRUE(reopened->CheckInvariants().ok());
    for (PageId p = 0; p < num_pages; ++p) {
      if (model[p].ops.empty()) continue;
      if (crashed) {
        AuditCrashedPage(*reopened, p, model[p]);
      } else {
        AuditCleanPage(*reopened, p, model[p]);
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "delta kill budget " << budget << " failed";
    }
  }
  // The contiguous bracket guarantees the boundary budget killed the
  // delta op itself (torn suffix + torn record tail) and a later one
  // crashed after its fsync; verify both sides were actually exercised.
  EXPECT_TRUE(saw_crash_at_or_before_delta);
  EXPECT_TRUE(saw_crash_after_delta);
}

}  // namespace
}  // namespace lss
