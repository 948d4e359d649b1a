#include "core/io_backend.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "core/uring_backend.h"
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

// Wraps each shard's FileBackend in a FaultInjectionBackend and leaves a
// pointer to the last one in `*handle` (single-shard tests drive it).
BackendFactory FaultyFileBackendFactory(FaultInjectionBackend** handle) {
  return [handle](uint32_t) {
    auto fault = std::make_unique<FaultInjectionBackend>(
        std::make_unique<FileBackend>());
    *handle = fault.get();
    return fault;
  };
}

// A scratch directory per test, removed (with its shard files) on exit.
class IoBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/lss_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    for (uint32_t i = 0; i < 64; ++i) {
      ::unlink(FileBackend::DataPath(dir_, i).c_str());
      ::unlink(FileBackend::MetaPath(dir_, i).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  StoreConfig FileConfig(bool fsync = false) {
    StoreConfig c = SmallConfig();
    c.backend = BackendKind::kFile;
    c.backend_dir = dir_;
    c.backend_fsync = fsync;
    return c;
  }

  std::string dir_;
};

TEST(PagePayloadTest, FillAndVerifyRoundTrip) {
  std::vector<uint8_t> buf(1000);
  FillPagePayload(7, 1000, buf.data());
  EXPECT_TRUE(VerifyPagePayload(7, 1000, buf.data()));
  EXPECT_FALSE(VerifyPagePayload(8, 1000, buf.data()));
  buf[999] ^= 1;  // corrupt the unaligned tail
  EXPECT_FALSE(VerifyPagePayload(7, 1000, buf.data()));
}

TEST(PagePayloadTest, DistinctPagesGetDistinctPatterns) {
  std::vector<uint8_t> a(64), b(64);
  FillPagePayload(1, 64, a.data());
  FillPagePayload(2, 64, b.data());
  EXPECT_NE(a, b);
}

TEST(BackendSpecTest, ParsesAllForms) {
  StoreConfig c;
  ASSERT_TRUE(ApplyBackendSpec("file:/x/y", &c).ok());
  EXPECT_EQ(c.backend, BackendKind::kFile);
  EXPECT_EQ(c.backend_dir, "/x/y");
  EXPECT_TRUE(c.backend_fsync);
  EXPECT_FALSE(c.backend_direct_io);
  EXPECT_EQ(BackendSpecName(c), "file:/x/y");

  ASSERT_TRUE(ApplyBackendSpec("file-nosync:/x", &c).ok());
  EXPECT_FALSE(c.backend_fsync);
  EXPECT_EQ(BackendSpecName(c), "file-nosync:/x");

  ASSERT_TRUE(ApplyBackendSpec("file-direct:/x", &c).ok());
  EXPECT_TRUE(c.backend_direct_io);
  EXPECT_TRUE(c.backend_fsync);
  EXPECT_EQ(BackendSpecName(c), "file-direct:/x");

  ASSERT_TRUE(ApplyBackendSpec("uring:/x/y", &c).ok());
  EXPECT_EQ(c.backend, BackendKind::kUring);
  EXPECT_EQ(c.backend_dir, "/x/y");
  EXPECT_TRUE(c.backend_fsync);
  EXPECT_FALSE(c.backend_direct_io);
  EXPECT_EQ(BackendSpecName(c), "uring:/x/y");

  ASSERT_TRUE(ApplyBackendSpec("uring-nosync:/x", &c).ok());
  EXPECT_EQ(c.backend, BackendKind::kUring);
  EXPECT_FALSE(c.backend_fsync);
  EXPECT_EQ(BackendSpecName(c), "uring-nosync:/x");

  ASSERT_TRUE(ApplyBackendSpec("null", &c).ok());
  EXPECT_EQ(c.backend, BackendKind::kNull);
  EXPECT_EQ(BackendSpecName(c), "null");
}

TEST(BackendSpecTest, RejectsBadSpecs) {
  StoreConfig c;
  EXPECT_EQ(ApplyBackendSpec("file", &c).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ApplyBackendSpec("file:", &c).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ApplyBackendSpec("io_uring:/x", &c).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(IoBackendTest, NullBackendIsBitForBitIdenticalToFileBackend) {
  // The acceptance gate of the refactor: the simulation's counters must
  // not depend on the backend. Run the same churn on both and compare
  // every counter the paper's figures are built from.
  auto run = [](const StoreConfig& cfg) {
    StoreConfig c2 = cfg;
    ApplyVariantConfig(Variant::kMdc, &c2);
    auto store = ShardedStore::Create(
        c2, 1, [] { return MakePolicy(Variant::kMdc); });
    EXPECT_NE(store, nullptr);
    for (PageId p = 0; p < 32; ++p) EXPECT_TRUE(store->Write(p).ok());
    Rng rng(11);
    for (int i = 0; i < 4000; ++i) {
      EXPECT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    return store;
  };
  auto null_store = run(SmallConfig());
  auto file_store = run(FileConfig());
  const StoreStats& a = null_store->shard(0).stats();
  const StoreStats& b = file_store->shard(0).stats();
  EXPECT_EQ(a.user_updates, b.user_updates);
  EXPECT_EQ(a.user_pages_written, b.user_pages_written);
  EXPECT_EQ(a.gc_pages_written, b.gc_pages_written);
  EXPECT_EQ(a.user_segments_sealed, b.user_segments_sealed);
  EXPECT_EQ(a.gc_segments_sealed, b.gc_segments_sealed);
  EXPECT_EQ(a.segments_cleaned, b.segments_cleaned);
  EXPECT_EQ(a.cleanings, b.cleanings);
  EXPECT_EQ(a.user_bytes_written, b.user_bytes_written);
  EXPECT_EQ(a.gc_bytes_written, b.gc_bytes_written);
  EXPECT_DOUBLE_EQ(a.WriteAmplification(), b.WriteAmplification());
  EXPECT_DOUBLE_EQ(a.MeanCleanEmptiness(), b.MeanCleanEmptiness());
  // Only the device counters differ.
  EXPECT_EQ(a.device_bytes_written, 0u);
  EXPECT_GT(b.device_bytes_written, 0u);
}

TEST_F(IoBackendTest, WriteCloseReopenRecoversEverything) {
  const StoreConfig cfg = FileConfig();
  Rng rng(3);
  std::vector<uint32_t> expect(48, 0);  // page -> live size (0 = absent)
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    // Churn with variable sizes and deletes so recovery must resolve
    // overwritten versions, GC moves and tombstones.
    for (int i = 0; i < 3000; ++i) {
      const PageId p = rng.NextBounded(32);  // F ~ 0.5
      if (expect[p] != 0 && rng.NextBool(0.1)) {
        ASSERT_TRUE(store->Delete(p).ok());
        expect[p] = 0;
      } else {
        const uint32_t bytes =
            64 + static_cast<uint32_t>(rng.NextBounded(6000));
        ASSERT_TRUE(store->Write(p, bytes).ok()) << "i=" << i;
        expect[p] = bytes;
      }
    }
    ASSERT_TRUE(store->CheckInvariants().ok());
    ASSERT_TRUE(store->Close().ok());
    EXPECT_EQ(store->Write(0).code(), Status::Code::kInvalidArgument);
  }

  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  for (PageId p = 0; p < expect.size(); ++p) {
    SCOPED_TRACE(p);
    EXPECT_EQ(store->Contains(p), expect[p] != 0);
    EXPECT_EQ(store->PageSize(p), expect[p]);
    if (expect[p] != 0) {
      std::vector<uint8_t> data;
      EXPECT_TRUE(store->ReadPage(p, &data).ok());
      EXPECT_EQ(data.size(), expect[p]);
    }
  }

  // The store stays fully writable after recovery (clocks restored, free
  // list rebuilt, cleaning functional).
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok()) << "i=" << i;
  }
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST_F(IoBackendTest, ReopenPreservesFrequencyClocks) {
  const StoreConfig cfg = FileConfig();
  UpdateCount unow_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    for (PageId p = 0; p < 24; ++p) ASSERT_TRUE(store->Write(p).ok());
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(24)).ok());
    }
    unow_before = store->shard(0).unow();
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->shard(0).unow(), unow_before);
  // last_update survived, so the up2-based frequency estimate works
  // immediately (nonzero for a page updated before close).
  ASSERT_TRUE(store->Write(999).ok());  // ticks unow past last_update
  EXPECT_GT(store->shard(0).EstimateUpf(0), 0.0);
}

TEST_F(IoBackendTest, ShardedStoreReopensAcrossShards) {
  StoreConfig cfg = FileConfig();
  cfg.num_segments = 64;  // 4 shards x 16 segments
  const uint32_t kShards = 4;
  auto factory = [] { return MakePolicy(Variant::kGreedy); };
  size_t live_before = 0;
  {
    Status st;
    auto store = ShardedStore::Create(cfg, kShards, factory, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    Rng rng(9);
    for (PageId p = 0; p < 128; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(128)).ok());
    }
    for (PageId p = 0; p < 16; ++p) ASSERT_TRUE(store->Delete(p).ok());
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->CheckInvariants().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  Status st;
  auto store = ShardedStore::Open(cfg, kShards, factory, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
  for (PageId p = 0; p < 16; ++p) EXPECT_FALSE(store->Contains(p));
  for (PageId p = 16; p < 128; ++p) {
    ASSERT_TRUE(store->Contains(p)) << p;
    std::vector<uint8_t> data;
    EXPECT_TRUE(
        store->WithShardLocked(store->ShardOf(p), [&](const StoreShard& s) {
          return s.ReadPage(p, &data);
        }).ok())
        << p;
  }
  // Writable after recovery.
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->Write(16 + rng.NextBounded(112)).ok());
  }
  EXPECT_TRUE(store->CheckInvariants().ok());
}

TEST_F(IoBackendTest, ShardCountMismatchIsDetected) {
  StoreConfig cfg = FileConfig();
  cfg.num_segments = 64;
  auto factory = [] { return MakePolicy(Variant::kGreedy); };
  {
    auto store = ShardedStore::Create(cfg, 4, factory);
    ASSERT_NE(store, nullptr);
    for (PageId p = 0; p < 200; ++p) ASSERT_TRUE(store->Write(p).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  Status st;
  auto store = ShardedStore::Open(cfg, 2, factory, &st);
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

// Page ids are bounded by the page table; a log naming a larger one is
// rejected, not materialised.
TEST_F(IoBackendTest, RecoveredPageIdBeyondTheTableIsCorruption) {
  const StoreConfig cfg = FileConfig();
  {
    StoreStats stats;
    FileBackend backend;
    ASSERT_TRUE(backend.Open(cfg, 0, 1, &stats, /*recover=*/false).ok());
    BackendSegmentRecord rec;
    rec.id = 0;
    rec.source = SegmentSource::kUser;
    rec.seal_time = 1;
    rec.unow = 1;
    Segment::Entry e;
    e.page = PageTable::kMaxPages;
    e.bytes = 4096;
    e.seq = 1;
    rec.entries.push_back(e);
    ASSERT_TRUE(backend.SealSegment(rec).ok());
    ASSERT_TRUE(backend.Close().ok());
  }
  Status st;
  auto store =
      ShardedStore::Open(
          cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST_F(IoBackendTest, OpenWithoutDurableStateFails) {
  Status st;
  auto store = ShardedStore::Open(
      FileConfig(), 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
}

TEST(IoBackendPlainTest, OpenWithNullBackendIsRejected) {
  Status st;
  auto store = ShardedStore::Open(
      SmallConfig(), 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST_F(IoBackendTest, DirectIoConfigRoundTrips) {
  // O_DIRECT where the filesystem supports it, silent fallback where it
  // does not (tmpfs) — either way the store must round-trip.
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  cfg.backend_direct_io = true;
  ASSERT_TRUE(cfg.Validate().ok());
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(13);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), 32u);
}

TEST_F(IoBackendTest, BufferedStoreFlushesThroughCloseAndRecovers) {
  StoreConfig cfg = FileConfig();
  cfg.write_buffer_segments = 2;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); });
    ASSERT_NE(store, nullptr);
    // Leave writes in the buffer: Close must drain and persist them.
    for (PageId p = 0; p < 5; ++p) ASSERT_TRUE(store->Write(p).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  ASSERT_NE(store, nullptr);
  for (PageId p = 0; p < 5; ++p) {
    EXPECT_TRUE(store->Contains(p)) << p;
    std::vector<uint8_t> data;
    EXPECT_TRUE(store->ReadPage(p, &data).ok()) << p;
  }
}

TEST_F(IoBackendTest, ReadPageRequiresSealedSegment) {
  StoreConfig cfg = FileConfig();
  cfg.write_buffer_segments = 2;
  auto store = ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->Write(1).ok());
  std::vector<uint8_t> data;
  // Still buffered.
  EXPECT_EQ(store->ReadPage(1, &data).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(store->Flush().ok());
  // Flushed into an open (unsealed) segment.
  EXPECT_EQ(store->ReadPage(1, &data).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(store->ReadPage(999, &data).code(), Status::Code::kNotFound);
}

TEST_F(IoBackendTest, CrashTruncatedMetaTailIsDiscarded) {
  const StoreConfig cfg = FileConfig();
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(17);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }
  // Simulate a crash mid-append: garbage (including a spurious magic
  // with a huge body length) lands after the last whole record.
  {
    std::FILE* f = std::fopen(FileBackend::MetaPath(dir_, 0).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t magic = 0x4C535331;
    const uint16_t type = 1;
    const uint16_t reserved = 0;
    const uint64_t huge = ~0ull;  // wraps naive bounds arithmetic
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&type, sizeof(type), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    std::fwrite(&huge, sizeof(huge), 1, f);
    std::fclose(f);
  }
  // First reopen: the tail is discarded (and truncated off the file).
  {
    auto store = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->CheckInvariants().ok());
    EXPECT_EQ(store->LivePageCount(), live_before);
    // New durable work after the crash...
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Write(static_cast<PageId>(i % 32)).ok());
    }
    ASSERT_TRUE(store->Close().ok());
  }
  // ...must itself survive a second reopen (stale pre-crash bytes past
  // the truncation point must not resurface as records).
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
}

TEST_F(IoBackendTest, DeleteTombstonesAreOnDeviceBeforeClose) {
  // An acknowledged delete's tombstone must already be in the metadata
  // log (fsync'd in fsync mode) before any Close runs — a second
  // backend instance recovering from the same files while the writer is
  // still open is the crash view of the device.
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats wstats;
  FileBackend writer;
  ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/false).ok());
  BackendSegmentRecord rec;
  rec.id = 0;
  rec.source = SegmentSource::kUser;
  rec.seal_time = 2;
  rec.unow = 2;
  Segment::Entry e;
  e.page = 5;
  e.bytes = 4096;
  e.seq = 1;
  e.last_update = 1;
  rec.entries.push_back(e);
  ASSERT_TRUE(writer.SealSegment(rec).ok());
  const uint64_t fsyncs_before = wstats.device_fsyncs;
  ASSERT_TRUE(writer.RecordDelete(5, 2, 2).ok());
  EXPECT_GT(wstats.device_fsyncs, fsyncs_before);  // tombstone synced

  FileBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  ASSERT_EQ(out.segments.size(), 1u);
  ASSERT_EQ(out.deletes.size(), 1u);
  EXPECT_EQ(out.deletes[0].first, 5u);
  EXPECT_EQ(out.deletes[0].second, 2u);
}

TEST_F(IoBackendTest, CheckpointRecordsActAsSealsUntilSuperseded) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats wstats;
  FileBackend writer;
  ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/false).ok());

  auto entry = [](PageId page, uint64_t seq) {
    Segment::Entry e;
    e.page = page;
    e.bytes = 4096;
    e.seq = seq;
    e.last_update = seq;
    return e;
  };

  // Checkpoint of an open segment holding one page.
  BackendSegmentRecord ck;
  ck.id = 3;
  ck.source = SegmentSource::kUser;
  ck.seal_time = 5;
  ck.unow = 5;
  ck.checkpoint = true;
  ck.entries.push_back(entry(7, 1));
  ASSERT_TRUE(writer.Checkpoint(ck).ok());

  {
    FileBackend reader;
    StoreStats rstats;
    ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
    BackendRecovery out;
    ASSERT_TRUE(reader.Scan(&out).ok());
    ASSERT_EQ(out.segments.size(), 1u);
    EXPECT_EQ(out.segments[0].id, 3u);
    EXPECT_TRUE(out.segments[0].checkpoint);
    ASSERT_EQ(out.segments[0].entries.size(), 1u);
    // The checkpoint wrote the payload prefix, so the page is readable.
    std::vector<uint8_t> data;
    EXPECT_TRUE(reader.ReadPagePayload(3, 0, 7, 4096, &data).ok());
  }

  // The real seal of the same slot supersedes the checkpoint.
  BackendSegmentRecord seal = ck;
  seal.checkpoint = false;
  seal.seal_time = 9;
  seal.unow = 9;
  seal.entries.push_back(entry(9, 2));
  ASSERT_TRUE(writer.SealSegment(seal).ok());

  FileBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_FALSE(out.segments[0].checkpoint);
  EXPECT_EQ(out.segments[0].entries.size(), 2u);
}

TEST_F(IoBackendTest, GroupCommitDefersFsyncsUntilSync) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats stats;
  FileBackend backend;
  ASSERT_TRUE(backend.Open(cfg, 0, 1, &stats, /*recover=*/false).ok());
  backend.SetDeferredSync(true);

  BackendSegmentRecord rec;
  rec.id = 0;
  rec.source = SegmentSource::kUser;
  rec.seal_time = 1;
  rec.unow = 1;
  Segment::Entry e;
  e.page = 1;
  e.bytes = 4096;
  e.seq = 1;
  rec.entries.push_back(e);

  ASSERT_TRUE(backend.SealSegment(rec).ok());
  rec.id = 1;
  ASSERT_TRUE(backend.SealSegment(rec).ok());
  ASSERT_TRUE(backend.RecordDelete(1, 2, 2).ok());
  // Three durable ops, zero fsyncs so far: the group commit pays once.
  EXPECT_EQ(stats.device_fsyncs, 0u);
  ASSERT_TRUE(backend.Sync().ok());
  EXPECT_GT(stats.device_fsyncs, 0u);
  const uint64_t after_group = stats.device_fsyncs;
  // Nothing new to cover: a second sync is allowed but the first already
  // covered all three ops with one fsync pair.
  ASSERT_TRUE(backend.Sync().ok());
  EXPECT_GE(stats.device_fsyncs, after_group);
}

// Rewrites shard 0's geometry record format field in place, with the
// checksum recomputed per the on-disk spec (FNV-1a over type, body_len,
// body). Record layout: 24-byte header (magic u32, type u16, reserved
// u16, body_len u64, checksum u64) + 24-byte geometry body whose last
// u32 is the format field. This turns a freshly created log into a
// byte-exact canned log of an older writer generation: the geometry
// record is written once at create and never rewritten, so the format
// stamp is the only thing distinguishing the generations on disk.
void PatchGeometryFormat(const std::string& dir, uint32_t format) {
  const std::string path = FileBackend::MetaPath(dir, 0);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint8_t rec[48];
  ASSERT_EQ(std::fread(rec, 1, sizeof(rec), f), sizeof(rec));
  std::memcpy(rec + 24 + 20, &format, sizeof(format));
  const uint16_t type = 4;  // geometry
  const uint64_t body_len = 24;
  uint64_t h = 0xCBF29CE484222325ull;
  auto fnv = [&h](const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  fnv(&type, sizeof(type));
  fnv(&body_len, sizeof(body_len));
  fnv(rec + 24, body_len);
  std::memcpy(rec + 16, &h, sizeof(h));
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(rec, 1, sizeof(rec), f), sizeof(rec));
  std::fclose(f);
}

// The PR 3 on-disk format (geometry format field 0, no checkpoint
// records) must keep recovering under the bumped reader.
TEST_F(IoBackendTest, Pr3FormatMetadataLogStillRecovers) {
  const StoreConfig cfg = FileConfig();
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(23);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }

  PatchGeometryFormat(dir_, 0);
  {
    Status st;
    auto store =
        ShardedStore::Open(
            cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
    ASSERT_NE(store, nullptr) << st.ToString();
    EXPECT_TRUE(store->CheckInvariants().ok());
    EXPECT_EQ(store->LivePageCount(), live_before);
    ASSERT_TRUE(store->Close().ok());
  }

  // A format newer than this reader must refuse loudly, not truncate.
  PatchGeometryFormat(dir_, 99);
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

// A canned format-1 log (the checkpoint-era stamp, before re-homing
// bumped the format to 2) must keep recovering under the bumped reader.
TEST_F(IoBackendTest, CheckpointFormatMetadataLogStillRecovers) {
  const StoreConfig cfg = FileConfig();
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(31);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }

  PatchGeometryFormat(dir_, 1);
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
  ASSERT_TRUE(store->Close().ok());
}

// A canned format-2 log (the re-homing-era stamp, before delta
// checkpoints bumped the format to 3) must keep recovering under the
// bumped reader. Written with delta records disabled so the log holds
// exactly the record types a format-2 writer could produce — seals,
// frees, full checkpoints and re-homes.
TEST_F(IoBackendTest, RehomeFormatMetadataLogStillRecovers) {
  StoreConfig cfg = FileConfig();
  cfg.checkpoint_interval_ops = 8;
  cfg.checkpoint_delta = false;
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(41);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }

  PatchGeometryFormat(dir_, 2);
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
  ASSERT_TRUE(store->Close().ok());
}

// A delta chain round-trips through the metadata log: the reader hands
// the suffix records back separately from the seals, in replay order,
// each carrying the ordinal of its base — the full checkpoint for the
// first link, the previous delta for every later one — so recovery can
// stitch the chain back together and spot orphans.
TEST_F(IoBackendTest, DeltaChainRoundTripsWithOrdinals) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats wstats;
  FileBackend writer;
  ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/false).ok());

  auto entry = [](PageId page, uint64_t seq, uint64_t offset) {
    Segment::Entry e;
    e.page = page;
    e.bytes = 4096;
    e.seq = seq;
    e.last_update = seq;
    e.offset = offset;
    return e;
  };

  BackendSegmentRecord base;
  base.id = 3;
  base.source = SegmentSource::kUser;
  base.seal_time = 5;
  base.unow = 5;
  base.checkpoint = true;
  base.entries = {entry(7, 1, 0), entry(8, 2, 4096)};
  ASSERT_TRUE(writer.Checkpoint(base).ok());

  BackendSegmentRecord d1;
  d1.id = 3;
  d1.source = SegmentSource::kUser;
  d1.seal_time = 9;
  d1.unow = 9;
  d1.checkpoint = true;
  d1.delta = true;
  d1.prefix_entries = 2;
  d1.suffix_offset = 2 * 4096;
  d1.suffix_length = 4096;
  d1.entries = {entry(9, 3, 2 * 4096)};
  ASSERT_TRUE(writer.CheckpointDelta(d1).ok());

  BackendSegmentRecord d2 = d1;
  d2.seal_time = 12;
  d2.unow = 12;
  d2.prefix_entries = 3;
  d2.suffix_offset = 3 * 4096;
  d2.suffix_length = 4096;
  d2.entries = {entry(10, 4, 3 * 4096)};
  ASSERT_TRUE(writer.CheckpointDelta(d2).ok());
  ASSERT_TRUE(writer.Close().ok());

  FileBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_TRUE(out.segments[0].checkpoint);
  EXPECT_FALSE(out.segments[0].delta);
  ASSERT_EQ(out.deltas.size(), 2u);

  const BackendSegmentRecord& r1 = out.deltas[0];
  const BackendSegmentRecord& r2 = out.deltas[1];
  EXPECT_EQ(r1.id, 3u);
  EXPECT_TRUE(r1.delta);
  EXPECT_EQ(r1.prefix_entries, 2u);
  EXPECT_EQ(r1.suffix_offset, 2u * 4096u);
  EXPECT_EQ(r1.suffix_length, 4096u);
  ASSERT_EQ(r1.entries.size(), 1u);
  EXPECT_EQ(r1.entries[0].page, 9u);
  EXPECT_EQ(r1.entries[0].seq, 3u);
  EXPECT_EQ(r2.prefix_entries, 3u);
  ASSERT_EQ(r2.entries.size(), 1u);
  EXPECT_EQ(r2.entries[0].page, 10u);

  // The chain is encoded in ordinals: base <- d1 <- d2, strictly
  // increasing with log position.
  EXPECT_GT(r1.ordinal, out.segments[0].ordinal);
  EXPECT_GT(r2.ordinal, r1.ordinal);
  EXPECT_EQ(r1.base_ordinal, out.segments[0].ordinal);
  EXPECT_EQ(r2.base_ordinal, r1.ordinal);
}

// The backend refuses a delta without a live chain base: after a free
// record for the slot (which erases every earlier record of the slot on
// replay) or under a stale generation, a suffix record would chain to
// nothing, so only a full checkpoint may restart the chain.
TEST_F(IoBackendTest, DeltaWithoutChainBaseIsRejected) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats wstats;
  FileBackend writer;
  ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/false).ok());

  BackendSegmentRecord base;
  base.id = 3;
  base.source = SegmentSource::kUser;
  base.seal_time = 5;
  base.unow = 5;
  base.checkpoint = true;
  Segment::Entry e;
  e.page = 7;
  e.bytes = 4096;
  e.seq = 1;
  e.last_update = 5;
  base.entries = {e};

  BackendSegmentRecord d;
  d.id = 3;
  d.source = SegmentSource::kUser;
  d.seal_time = 9;
  d.unow = 9;
  d.checkpoint = true;
  d.delta = true;
  d.prefix_entries = 1;
  d.suffix_offset = 4096;
  d.suffix_length = 4096;
  Segment::Entry e2 = e;
  e2.page = 8;
  e2.seq = 2;
  e2.offset = 4096;
  d.entries = {e2};

  // No checkpoint for the slot yet: no chain to extend.
  EXPECT_EQ(writer.CheckpointDelta(d).code(),
            Status::Code::kInvalidArgument);

  // A generation mismatch (the slot was refilled since the base) is a
  // caller bug the backend refuses to write through.
  ASSERT_TRUE(writer.Checkpoint(base).ok());
  d.generation = base.generation + 1;
  EXPECT_EQ(writer.CheckpointDelta(d).code(),
            Status::Code::kInvalidArgument);
  d.generation = base.generation;
  ASSERT_TRUE(writer.CheckpointDelta(d).ok());

  // A free record closes the chain; the next delta must be refused
  // until a full checkpoint restarts it.
  ASSERT_TRUE(writer.ReclaimSegment(3, /*unow=*/15).ok());
  BackendSegmentRecord d3 = d;
  d3.prefix_entries = 2;
  d3.suffix_offset = 2 * 4096;
  Segment::Entry e3 = e;
  e3.page = 9;
  e3.seq = 3;
  e3.offset = 2 * 4096;
  d3.entries = {e3};
  EXPECT_EQ(writer.CheckpointDelta(d3).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(writer.Close().ok());
}

// A slot-generation change between checkpoint rounds forces the shard
// back to a full record: the chain the slot carried belongs to the
// previous occupant. Sync file backend + zero write buffer makes every
// step deterministic.
TEST_F(IoBackendTest, GenerationChangeForcesFullCheckpoint) {
  StoreConfig cfg = FileConfig();
  cfg.checkpoint_interval_ops = 1u << 30;  // only explicit barriers
  cfg.checkpoint_delta = true;
  auto store = ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
  ASSERT_NE(store, nullptr);

  // Two pages into a 4-page segment, then a barrier: the chain starts
  // with one full record.
  ASSERT_TRUE(store->Write(0).ok());
  ASSERT_TRUE(store->Write(1).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  StoreStats s = store->AggregatedStats();
  EXPECT_EQ(s.checkpoint_full_records, 1u);
  EXPECT_EQ(s.checkpoint_delta_records, 0u);

  // One more page: the next barrier extends the chain with a delta.
  ASSERT_TRUE(store->Write(2).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  s = store->AggregatedStats();
  EXPECT_EQ(s.checkpoint_full_records, 1u);
  EXPECT_EQ(s.checkpoint_delta_records, 1u);

  // An unchanged open segment is already covered: barrier is a no-op.
  ASSERT_TRUE(store->Checkpoint().ok());
  s = store->AggregatedStats();
  EXPECT_EQ(s.checkpoint_full_records, 1u);
  EXPECT_EQ(s.checkpoint_delta_records, 1u);

  // Fill the segment (seal bumps the slot generation), then start a new
  // open segment: its checkpoint must be a full record again.
  ASSERT_TRUE(store->Write(3).ok());
  ASSERT_TRUE(store->Write(0).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  s = store->AggregatedStats();
  EXPECT_EQ(s.checkpoint_full_records, 2u);
  EXPECT_EQ(s.checkpoint_delta_records, 1u);

  // The chained state recovers.
  ASSERT_TRUE(store->Close().ok());
  Status st;
  auto reopened =
      ShardedStore::Open(
          cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(reopened, nullptr) << st.ToString();
  EXPECT_TRUE(reopened->CheckInvariants().ok());
  EXPECT_EQ(reopened->LivePageCount(), 4u);
  ASSERT_TRUE(reopened->Close().ok());
}

// A re-homing record round-trips through the metadata log: the reader
// hands it back separately from the seals, in replay order, with the
// log-position ordinal that lets recovery break equal-seq ties in its
// favour over the victim slot's original record.
TEST_F(IoBackendTest, RehomeRecordRoundTripsWithOrdinal) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  StoreStats wstats;
  FileBackend writer;
  ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/false).ok());

  BackendSegmentRecord seal;
  seal.id = 2;
  seal.source = SegmentSource::kUser;
  seal.seal_time = 7;
  seal.unow = 7;
  Segment::Entry e;
  e.page = 11;
  e.bytes = 4096;
  e.seq = 3;
  e.last_update = 6;
  seal.entries.push_back(e);
  ASSERT_TRUE(writer.SealSegment(seal).ok());

  // Re-home the entry out of slot 2 (as AllocateSegment would right
  // before reusing the withheld slot). No payload accompanies it.
  BackendSegmentRecord rehome = seal;
  ASSERT_TRUE(writer.RehomeEntries(rehome).ok());
  ASSERT_TRUE(writer.Close().ok());

  FileBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  ASSERT_EQ(out.segments.size(), 1u);
  ASSERT_EQ(out.rehomed.size(), 1u);
  EXPECT_EQ(out.rehomed[0].id, 2u);
  ASSERT_EQ(out.rehomed[0].entries.size(), 1u);
  EXPECT_EQ(out.rehomed[0].entries[0].page, 11u);
  EXPECT_EQ(out.rehomed[0].entries[0].seq, 3u);
  EXPECT_EQ(out.rehomed[0].entries[0].bytes, 4096u);
  // Later log position must mean larger ordinal: the tie-break depends
  // on it.
  EXPECT_GT(out.rehomed[0].ordinal, out.segments[0].ordinal);
}

// Mid-upgrade crash compatibility: a log *created* by the format-1
// writer but *appended to* by the re-homing writer carries a format-1
// geometry stamp over records only format 2 defines (the stamp is
// written once at create and never rewritten, so this is exactly what
// a crash between upgrading the binary and recreating the store leaves
// behind). The reader must parse the re-homing records regardless of
// the stamp, and recovery must apply them newest-wins.
TEST_F(IoBackendTest, MixedVersionUpgradeLogRecoversNewestWins) {
  const StoreConfig cfg = FileConfig(/*fsync=*/true);
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(37);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
    }
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }
  // Downgrade the stamp: the log now claims format 1 (pre-re-homing).
  PatchGeometryFormat(dir_, 1);

  // The upgraded writer appends a re-homing record to the old log —
  // re-home every live entry of one sealed segment, as AllocateSegment
  // would before reusing the slot.
  BackendSegmentRecord victim;
  {
    FileBackend writer;
    StoreStats wstats;
    ASSERT_TRUE(writer.Open(cfg, 0, 1, &wstats, /*recover=*/true).ok());
    BackendRecovery scan;
    ASSERT_TRUE(writer.Scan(&scan).ok());
    ASSERT_FALSE(scan.segments.empty());
    for (const BackendSegmentRecord& rec : scan.segments) {
      for (const Segment::Entry& e : rec.entries) {
        if (e.page == kInvalidPage) continue;
        if (victim.entries.empty()) victim = rec;
      }
    }
    ASSERT_FALSE(victim.entries.empty()) << "no sealed segment to re-home";
    ASSERT_TRUE(writer.RehomeEntries(victim).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  // Full recovery over the mixed log: the re-homing record's entries
  // win their equal-seq ties by ordinal and get materialised into a
  // fresh slot; nothing is lost, everything stays readable.
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
  for (const Segment::Entry& e : victim.entries) {
    if (e.page == kInvalidPage) continue;
    ASSERT_TRUE(store->Contains(e.page)) << "page " << e.page;
    std::vector<uint8_t> data;
    EXPECT_TRUE(store->ReadPage(e.page, &data).ok()) << "page " << e.page;
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(IoBackendTest, CrashAfterOpsTearsFilesAndKillsBackend) {
  FaultInjectionBackend* handle = nullptr;
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  auto store = ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, nullptr,
      FaultyFileBackendFactory(&handle));
  ASSERT_NE(store, nullptr);
  handle->CrashAfterOps(5, /*seed=*/77);

  Rng rng(29);
  Status last = Status::OK();
  int acknowledged = 0;
  for (int i = 0; i < 4000 && last.ok(); ++i) {
    last = store->Write(rng.NextBounded(32));
    if (last.ok()) ++acknowledged;
  }
  EXPECT_FALSE(last.ok());
  EXPECT_TRUE(handle->crashed());
  EXPECT_GT(acknowledged, 0);
  // The dead backend rejects everything, including Close.
  EXPECT_FALSE(store->Close().ok());
  store.reset();

  // The torn files must still recover to a consistent, usable store.
  Status st;
  auto reopened =
      ShardedStore::Open(
          cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(reopened, nullptr) << st.ToString();
  EXPECT_TRUE(reopened->CheckInvariants().ok());
  for (PageId p = 0; p < 48; ++p) {
    if (!reopened->Contains(p)) continue;
    std::vector<uint8_t> data;
    EXPECT_TRUE(reopened->ReadPage(p, &data).ok()) << p;
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(reopened->Write(rng.NextBounded(32)).ok()) << i;
  }
  EXPECT_TRUE(reopened->CheckInvariants().ok());
}

TEST_F(IoBackendTest, AsyncSealStoreReadsAndRecovers) {
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  cfg.async_seal = true;
  cfg.seal_queue_depth = 4;
  cfg.checkpoint_interval_ops = 8;
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(31);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
      if (i % 97 == 0) {
        // Reads may race queued seals; ReadPage must wait them out.
        const PageId p = rng.NextBounded(32);
        if (store->Contains(p)) {
          std::vector<uint8_t> data;
          const Status s = store->ReadPage(p, &data);
          // Buffered/open-segment versions are legitimately unreadable.
          EXPECT_TRUE(s.ok() ||
                      s.code() == Status::Code::kInvalidArgument)
              << s.ToString();
        }
      }
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    const StoreStats snap = store->AggregatedStats();
    EXPECT_GT(snap.seal_queue_enqueued, 0u);
    EXPECT_GT(snap.group_fsyncs, 0u);
    EXPECT_GT(snap.checkpoints_written, 0u);
    EXPECT_GT(snap.device_bytes_written, 0u);
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }
  // Reopen in async mode too: recovery + pipeline restart.
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
  for (PageId p = 0; p < 32; ++p) {
    std::vector<uint8_t> data;
    EXPECT_TRUE(store->ReadPage(p, &data).ok()) << p;
  }
}

TEST_F(IoBackendTest, FaultInjectionWrapsFileBackend) {
  // The double composes with a real backend, so fault tests can also run
  // against real files.
  FaultInjectionBackend* handle = nullptr;
  auto store = ShardedStore::Create(
      FileConfig(), 1, [] { return MakePolicy(Variant::kGreedy); }, nullptr,
      FaultyFileBackendFactory(&handle));
  ASSERT_NE(store, nullptr);
  handle->FailSealsAfter(2, Status::Corruption("injected"));
  Status last = Status::OK();
  for (PageId p = 0; p < 64 && last.ok(); ++p) last = store->Write(p);
  EXPECT_EQ(last.code(), Status::Code::kCorruption);
  EXPECT_EQ(handle->seals(), 2);
}

// ---------------------------------------------------------------------
// io_uring backend parity. The overlapped write path must be invisible
// on disk: the same operation sequence through FileBackend and
// UringBackend yields byte-identical metadata logs (and payload files),
// so either backend can recover the other's state. Skip-gated on the
// runtime capability probe — kernels or seccomp policies without
// io_uring skip with the probe's reason instead of failing.
// ---------------------------------------------------------------------

// Reads a whole file; empty vector (with a failed assertion) on error.
std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::vector<uint8_t> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

// Two scratch directories — one per backend under comparison.
class UringParityTest : public IoBackendTest {
 protected:
  void SetUp() override {
    IoBackendTest::SetUp();
    std::string reason;
    if (!UringBackend::ProbeAvailable(&reason)) {
      GTEST_SKIP() << "io_uring unavailable: " << reason;
    }
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/lss_uring_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    uring_dir_ = buf.data();
  }

  void TearDown() override {
    if (!uring_dir_.empty()) {
      for (uint32_t i = 0; i < 64; ++i) {
        ::unlink(FileBackend::DataPath(uring_dir_, i).c_str());
        ::unlink(FileBackend::MetaPath(uring_dir_, i).c_str());
      }
      ::rmdir(uring_dir_.c_str());
    }
    IoBackendTest::TearDown();
  }

  StoreConfig UringConfig(bool fsync = false) {
    StoreConfig c = SmallConfig();
    c.backend = BackendKind::kUring;
    c.backend_dir = uring_dir_;
    c.backend_fsync = fsync;
    return c;
  }

  std::string uring_dir_;
};

// The canonical durable-op sequence of the seam: seals (including a
// reseal of the same slot), a full checkpoint, a delta extending it, a
// reclaim, a delete tombstone and a re-homing record.
void DriveParitySequence(SegmentBackend* b) {
  auto entry = [](PageId page, uint64_t seq, uint64_t offset) {
    Segment::Entry e;
    e.page = page;
    e.bytes = 4096;
    e.seq = seq;
    e.last_update = seq;
    e.offset = offset;
    return e;
  };

  BackendSegmentRecord s0;
  s0.id = 0;
  s0.source = SegmentSource::kUser;
  s0.seal_time = 4;
  s0.unow = 4;
  s0.entries = {entry(1, 1, 0), entry(2, 2, 4096), entry(3, 3, 2 * 4096),
                entry(4, 4, 3 * 4096)};
  ASSERT_TRUE(b->SealSegment(s0).ok());

  // Open-segment checkpoint chain on slot 1: full record, then a
  // suffix-only delta, then the real seal superseding both.
  BackendSegmentRecord ck;
  ck.id = 1;
  ck.source = SegmentSource::kUser;
  ck.seal_time = 6;
  ck.unow = 6;
  ck.checkpoint = true;
  ck.entries = {entry(5, 5, 0), entry(6, 6, 4096)};
  ASSERT_TRUE(b->Checkpoint(ck).ok());

  BackendSegmentRecord d = ck;
  d.delta = true;
  d.seal_time = 7;
  d.unow = 7;
  d.prefix_entries = 2;
  d.suffix_offset = 2 * 4096;
  d.suffix_length = 4096;
  d.entries = {entry(7, 7, 2 * 4096)};
  ASSERT_TRUE(b->CheckpointDelta(d).ok());

  BackendSegmentRecord s1 = ck;
  s1.checkpoint = false;
  s1.seal_time = 8;
  s1.unow = 8;
  s1.entries.push_back(entry(7, 7, 2 * 4096));
  s1.entries.push_back(entry(8, 8, 3 * 4096));
  ASSERT_TRUE(b->SealSegment(s1).ok());

  // Reseal slot 0 (GC rewrote it), free the old copy's nothing — then
  // reclaim slot 1 and tombstone a page.
  BackendSegmentRecord s0b = s0;
  s0b.source = SegmentSource::kGc;
  s0b.seal_time = 10;
  s0b.unow = 10;
  s0b.entries = {entry(1, 9, 0), entry(3, 10, 4096)};
  ASSERT_TRUE(b->SealSegment(s0b).ok());
  ASSERT_TRUE(b->ReclaimSegment(1, /*unow=*/11).ok());
  ASSERT_TRUE(b->RecordDelete(3, /*seq=*/11, /*unow=*/12).ok());

  // Re-home slot 0's survivors, as withheld-slot reuse would.
  BackendSegmentRecord rh = s0b;
  rh.seal_time = 13;
  rh.unow = 13;
  ASSERT_TRUE(b->RehomeEntries(rh).ok());
  ASSERT_TRUE(b->Sync().ok());
}

TEST_F(UringParityTest, RawSequenceYieldsByteIdenticalFiles) {
  const StoreConfig fcfg = FileConfig(/*fsync=*/true);
  StoreConfig ucfg = UringConfig(/*fsync=*/true);
  {
    StoreStats fstats;
    FileBackend file;
    ASSERT_TRUE(file.Open(fcfg, 0, 1, &fstats, /*recover=*/false).ok());
    DriveParitySequence(&file);
    ASSERT_TRUE(file.Close().ok());

    StoreStats ustats;
    UringBackend uring;
    ASSERT_TRUE(uring.Open(ucfg, 0, 1, &ustats, /*recover=*/false).ok());
    ASSERT_TRUE(uring.ring_active()) << uring.fallback_reason();
    DriveParitySequence(&uring);
    // The ring overlaps payload writes but must account them identically.
    EXPECT_GT(ustats.uring_submitted, 0u);
    EXPECT_EQ(ustats.device_bytes_written, fstats.device_bytes_written);
    ASSERT_TRUE(uring.Close().ok());
  }

  // Byte-for-byte identical durable state: metadata log and payload file.
  EXPECT_EQ(ReadAllBytes(FileBackend::MetaPath(dir_, 0)),
            ReadAllBytes(FileBackend::MetaPath(uring_dir_, 0)));
  EXPECT_EQ(ReadAllBytes(FileBackend::DataPath(dir_, 0)),
            ReadAllBytes(FileBackend::DataPath(uring_dir_, 0)));

  // Cross-recovery: a plain FileBackend reads the uring-written log...
  FileBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(ucfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  // Slot 1 was reclaimed, so only slot 0's (latest) seal survives.
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_EQ(out.segments[0].id, 0u);
  EXPECT_EQ(out.segments[0].entries.size(), 2u);
  ASSERT_EQ(out.rehomed.size(), 1u);
  ASSERT_EQ(out.deletes.size(), 1u);
  EXPECT_EQ(out.deletes[0].first, 3u);
  // ...and the payload the ring wrote reads back with the right pattern.
  std::vector<uint8_t> data;
  ASSERT_TRUE(reader.ReadPagePayload(0, 0, 1, 4096, &data).ok());
  EXPECT_TRUE(VerifyPagePayload(1, 4096, data.data()));
  ASSERT_TRUE(reader.Close().ok());
}

TEST_F(UringParityTest, StoreChurnMatchesFileBackendBitForBit) {
  // Same churn, same seed, different backend: every simulator counter
  // and every durable byte must match. Runs the full store stack —
  // seals, GC rewrites, deletes, checkpoints — through the ring.
  auto churn = [](const StoreConfig& cfg) {
    StoreConfig c = cfg;
    c.checkpoint_interval_ops = 64;
    auto store = ShardedStore::Create(
        c, 1, [] { return MakePolicy(Variant::kGreedy); });
    EXPECT_NE(store, nullptr);
    Rng rng(19);
    for (PageId p = 0; p < 32; ++p) EXPECT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 2500; ++i) {
      const PageId p = rng.NextBounded(32);
      if (store->Contains(p) && rng.NextBool(0.05)) {
        EXPECT_TRUE(store->Delete(p).ok());
      } else {
        EXPECT_TRUE(store->Write(p).ok());
      }
    }
    EXPECT_TRUE(store->CheckInvariants().ok());
    return store;
  };

  auto file_store = churn(FileConfig(/*fsync=*/true));
  auto uring_store = churn(UringConfig(/*fsync=*/true));
  const StoreStats a = file_store->AggregatedStats();
  const StoreStats b = uring_store->AggregatedStats();
  EXPECT_EQ(b.uring_available, 1u);
  EXPECT_GT(b.uring_submitted, 0u);
  EXPECT_EQ(a.user_updates, b.user_updates);
  EXPECT_EQ(a.user_segments_sealed, b.user_segments_sealed);
  EXPECT_EQ(a.gc_segments_sealed, b.gc_segments_sealed);
  EXPECT_EQ(a.segments_cleaned, b.segments_cleaned);
  EXPECT_EQ(a.device_bytes_written, b.device_bytes_written);
  EXPECT_EQ(a.device_write_ops, b.device_write_ops);
  const size_t file_live = file_store->LivePageCount();
  std::vector<bool> file_has(32);
  for (PageId p = 0; p < 32; ++p) file_has[p] = file_store->Contains(p);
  ASSERT_TRUE(file_store->Close().ok());
  ASSERT_TRUE(uring_store->Close().ok());

  EXPECT_EQ(ReadAllBytes(FileBackend::MetaPath(dir_, 0)),
            ReadAllBytes(FileBackend::MetaPath(uring_dir_, 0)));
  EXPECT_EQ(ReadAllBytes(FileBackend::DataPath(dir_, 0)),
            ReadAllBytes(FileBackend::DataPath(uring_dir_, 0)));

  // The uring-written store recovers through the uring backend too.
  Status st;
  auto reopened = ShardedStore::Open(
      UringConfig(/*fsync=*/true),
      1,
      [] { return MakePolicy(Variant::kGreedy); },
      &st);
  ASSERT_NE(reopened, nullptr) << st.ToString();
  EXPECT_TRUE(reopened->CheckInvariants().ok());
  EXPECT_EQ(reopened->LivePageCount(), file_live);
  for (PageId p = 0; p < 32; ++p) {
    ASSERT_EQ(reopened->Contains(p), file_has[p]) << p;
    if (!reopened->Contains(p)) continue;
    std::vector<uint8_t> data;
    EXPECT_TRUE(reopened->ReadPage(p, &data).ok()) << p;
  }
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(UringParityTest, AsyncSealPipelineOverUringRecovers) {
  // The ring under the seal pipeline: payload writes overlap inside a
  // group-commit batch, the batch-end Sync reaps them, WaitApplied
  // (exercised by ReadPage racing queued seals) keeps its durability
  // meaning.
  StoreConfig cfg = UringConfig(/*fsync=*/true);
  cfg.async_seal = true;
  cfg.seal_queue_depth = 4;
  cfg.checkpoint_interval_ops = 32;
  size_t live_before = 0;
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); });
    ASSERT_NE(store, nullptr);
    Rng rng(43);
    for (PageId p = 0; p < 32; ++p) ASSERT_TRUE(store->Write(p).ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store->Write(rng.NextBounded(32)).ok());
      if (i % 89 == 0) {
        const PageId p = rng.NextBounded(32);
        if (store->Contains(p)) {
          std::vector<uint8_t> data;
          const Status s = store->ReadPage(p, &data);
          EXPECT_TRUE(s.ok() || s.code() == Status::Code::kInvalidArgument)
              << s.ToString();
        }
      }
    }
    const StoreStats snap = store->AggregatedStats();
    EXPECT_EQ(snap.uring_available, 1u);
    EXPECT_GT(snap.uring_submitted, 0u);
    EXPECT_GT(snap.group_fsyncs, 0u);
    live_before = store->LivePageCount();
    ASSERT_TRUE(store->Close().ok());
  }
  Status st;
  auto store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
  ASSERT_NE(store, nullptr) << st.ToString();
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_EQ(store->LivePageCount(), live_before);
}

// NOT skip-gated: whichever way the probe goes, the backend must work.
// With a ring it reports the capability; without one it degrades to the
// FileBackend write path with a recorded reason — either way the store
// round-trips. This is the test that pins the fallback contract on
// kernels where the gated suite above skips.
TEST_F(IoBackendTest, UringBackendWorksWithOrWithoutRing) {
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  cfg.backend = BackendKind::kUring;
  StoreStats stats;
  {
    UringBackend backend;
    ASSERT_TRUE(backend.Open(cfg, 0, 1, &stats, /*recover=*/false).ok());
    std::string reason;
    const bool probed = UringBackend::ProbeAvailable(&reason);
    EXPECT_EQ(backend.ring_active(), probed) << reason;
    if (backend.ring_active()) {
      EXPECT_EQ(stats.uring_available, 1u);
      EXPECT_TRUE(backend.fallback_reason().empty());
    } else {
      EXPECT_EQ(stats.uring_available, 0u);
      EXPECT_FALSE(backend.fallback_reason().empty());
    }
    DriveParitySequence(&backend);
    ASSERT_TRUE(backend.Close().ok());
  }
  UringBackend reader;
  StoreStats rstats;
  ASSERT_TRUE(reader.Open(cfg, 0, 1, &rstats, /*recover=*/true).ok());
  BackendRecovery out;
  ASSERT_TRUE(reader.Scan(&out).ok());
  ASSERT_EQ(out.segments.size(), 1u);
  ASSERT_EQ(out.rehomed.size(), 1u);
  ASSERT_EQ(out.deletes.size(), 1u);
  std::vector<uint8_t> data;
  ASSERT_TRUE(reader.ReadPagePayload(0, 0, 1, 4096, &data).ok());
  EXPECT_TRUE(VerifyPagePayload(1, 4096, data.data()));
  ASSERT_TRUE(reader.Close().ok());
}

}  // namespace
}  // namespace lss
