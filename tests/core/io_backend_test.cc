#include "core/io_backend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/fnv1a.h"
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
      ::unlink(FileBackend::MetaTempPath(dir_, i).c_str());
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
  EXPECT_EQ(BackendSpecName(c), "file:/x/y");

  ASSERT_TRUE(ApplyBackendSpec("file-nosync:/x", &c).ok());
  EXPECT_EQ(c.backend, BackendKind::kFile);
  EXPECT_FALSE(c.backend_fsync);
  EXPECT_EQ(BackendSpecName(c), "file-nosync:/x");

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
  // Unknown kinds fail, and the error names every accepted form.
  for (const char* spec :
       {"io_uring:/x", "uring:/x", "uring-nosync:/x", "file-direct:/x"}) {
    const Status s = ApplyBackendSpec(spec, &c);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << spec;
    EXPECT_NE(s.ToString().find("(want null | file:DIR | file-nosync:DIR)"),
              std::string::npos)
        << s.ToString();
  }
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
  uint64_t h = Fnv1a(kFnv1aBasis, &type, sizeof(type));
  h = Fnv1a(h, &body_len, sizeof(body_len));
  h = Fnv1a(h, rec + 24, body_len);
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

// Golden pin for synchronous-seal device accounting on the file backend:
// a fixed churn (fsync on, periodic delta checkpoints, deletes, explicit
// barriers) must issue exactly these device writes and fsyncs and these
// checkpoint records. The numbers were recorded while synchronous seals
// still called the backend directly, before they ran through the seal
// pipeline's inline executor; a backend call, fsync or delta byte that
// the emission path adds or drops changes them.
TEST_F(IoBackendTest, SyncSealDeviceAccountingMatchesGolden) {
  StoreConfig cfg = FileConfig(/*fsync=*/true);
  cfg.segment_bytes = 16 * 4096;
  cfg.num_segments = 32;
  cfg.write_buffer_segments = 0;
  cfg.checkpoint_interval_ops = 16;
  cfg.checkpoint_delta = true;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  auto store = ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); });
  ASSERT_NE(store, nullptr);
  const PageId pages = 160;
  for (PageId p = 0; p < pages; ++p) ASSERT_TRUE(store->Write(p).ok());
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const PageId p = rng.NextBounded(pages);
    if (store->Contains(p) && rng.NextBool(0.05)) {
      ASSERT_TRUE(store->Delete(p).ok());
    } else {
      const uint32_t bytes =
          512 * (1 + static_cast<uint32_t>(rng.NextBounded(8)));
      ASSERT_TRUE(store->Write(p, bytes).ok());
    }
    if (i % 8 == 7) {
      ASSERT_TRUE(store->Checkpoint().ok());
    }
  }
  ASSERT_TRUE(store->Close().ok());
  const StoreStats s = store->AggregatedStats();
  // The churn compacts the metadata log twice. Each compaction adds its
  // log's bytes, one write and two fsyncs (the temporary log and the
  // directory); restated out, the constants pin the emission path alone.
  EXPECT_EQ(s.meta_compactions, 2u);
  EXPECT_EQ(s.device_bytes_written - s.meta_compaction_bytes, 18656736u);
  EXPECT_EQ(s.device_write_ops - s.meta_compactions, 1200u);
  EXPECT_EQ(s.device_fsyncs - 2 * s.meta_compactions, 1871u);
  EXPECT_EQ(s.checkpoint_full_records, 100u);
  EXPECT_EQ(s.checkpoint_delta_records, 272u);
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
// Scan equivalence. FileBackend::Scan frames the log, verifies every
// checksum with the four-lane kernel and decodes only the seal and
// checkpoint records that survive. The reference below is the eager
// single-pass replay it replaced, kept here verbatim in behaviour: it
// walks the log once, checks each record in turn and decodes every
// entry of every record. On any log — whole, torn or corrupt — the two
// must agree on every recovered field and on where the log is cut.
// ---------------------------------------------------------------------

// The on-disk metadata-log format, restated from the spec in
// core/io_backend.cc so the reference reads the bytes independently.
struct RefHeader {
  uint32_t magic;
  uint16_t type;
  uint16_t reserved;
  uint64_t body_len;
  uint64_t checksum;
};
struct RefSealBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
};
struct RefEntryRec {
  uint64_t page;
  uint32_t bytes;
  uint32_t reserved;
  uint64_t seq;
  uint64_t last_update;
  double up2;
  double exact_upf;
};
struct RefDeltaBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
  uint64_t generation;
  uint64_t base_ordinal;
  uint64_t prefix_entries;
  uint64_t suffix_offset;
  uint64_t suffix_length;
};
struct RefFreeBody {
  uint32_t segment_id;
  uint32_t reserved;
  uint64_t unow;
};
struct RefDeleteBody {
  uint64_t page;
  uint64_t seq;
  uint64_t unow;
};
struct RefGeometryBody {
  uint32_t shard_id;
  uint32_t num_shards;
  uint32_t num_segments;
  uint32_t segment_bytes;
  uint32_t page_bytes;
  uint32_t format;
};
struct RefWatermarkBody {
  uint64_t max_seq;
  uint64_t unow;
};
constexpr uint32_t kRefMagic = 0x4C535331;
enum RefType : uint16_t {
  kRefSeal = 1,
  kRefFree = 2,
  kRefDelete = 3,
  kRefGeometry = 4,
  kRefCheckpoint = 5,
  kRefRehome = 6,
  kRefDelta = 7,
  kRefWatermark = 8,
};

uint64_t RefChecksum(uint16_t type, const uint8_t* body, uint64_t body_len) {
  uint64_t h = Fnv1a(kFnv1aBasis, &type, sizeof(type));
  h = Fnv1a(h, &body_len, sizeof(body_len));
  return Fnv1a(h, body, body_len);
}

// What a replay of `log` yields: the Scan status, the recovered state
// and the length the log is cut to (the whole log when the scan fails).
struct RefReplay {
  Status status;
  BackendRecovery rec;
  uint64_t valid_end = 0;
  // Records replayed, by type (index = record type).
  uint64_t type_counts[9] = {};
};

// Decodes `count` entry records at `p`, folding their seqs into max_seq.
void RefDecodeEntries(const uint8_t* p, uint64_t count,
                      std::vector<Segment::Entry>* out, uint64_t* max_seq) {
  for (uint64_t i = 0; i < count; ++i) {
    RefEntryRec er;
    std::memcpy(&er, p + i * sizeof(er), sizeof(er));
    Segment::Entry e;
    e.page = er.page;
    e.bytes = er.bytes;
    e.seq = er.seq;
    e.last_update = er.last_update;
    e.up2 = er.up2;
    e.exact_upf = er.exact_upf;
    *max_seq = std::max(*max_seq, e.seq);
    out->push_back(e);
  }
}

RefReplay ReferenceReplay(const std::vector<uint8_t>& log,
                          const StoreConfig& cfg) {
  RefReplay r;
  r.valid_end = log.size();
  BackendRecovery* out = &r.rec;
  {
    if (log.size() < sizeof(RefHeader) + sizeof(RefGeometryBody)) {
      r.status = Status::Corruption("no geometry");
      return r;
    }
    RefHeader hdr;
    std::memcpy(&hdr, log.data(), sizeof(hdr));
    if (hdr.magic != kRefMagic || hdr.type != kRefGeometry ||
        hdr.body_len != sizeof(RefGeometryBody) ||
        hdr.checksum !=
            RefChecksum(hdr.type, log.data() + sizeof(hdr), hdr.body_len)) {
      r.status = Status::Corruption("no geometry");
      return r;
    }
    RefGeometryBody gb;
    std::memcpy(&gb, log.data() + sizeof(hdr), sizeof(gb));
    if (gb.shard_id != 0 || gb.num_shards != 1 ||
        gb.num_segments != cfg.num_segments ||
        gb.segment_bytes != cfg.segment_bytes ||
        gb.page_bytes != cfg.page_bytes || gb.format > 4) {
      r.status = Status::Corruption("geometry mismatch");
      return r;
    }
  }
  std::vector<int64_t> latest_seal(cfg.num_segments, -1);
  std::vector<BackendSegmentRecord> seals;
  size_t off = 0;
  uint64_t valid_end = 0;
  uint64_t ordinal = 0;
  while (off + sizeof(RefHeader) <= log.size()) {
    RefHeader hdr;
    std::memcpy(&hdr, log.data() + off, sizeof(hdr));
    if (hdr.magic != kRefMagic) break;
    if (hdr.body_len > log.size() - off - sizeof(hdr)) break;
    const uint8_t* body = log.data() + off + sizeof(hdr);
    if (hdr.checksum != RefChecksum(hdr.type, body, hdr.body_len)) break;
    if (hdr.type == kRefSeal || hdr.type == kRefCheckpoint ||
        hdr.type == kRefRehome) {
      if (hdr.body_len < sizeof(RefSealBody)) break;
      RefSealBody sb;
      std::memcpy(&sb, body, sizeof(sb));
      if (sb.entry_count >
          (hdr.body_len - sizeof(RefSealBody)) / sizeof(RefEntryRec))
        break;
      if (hdr.body_len !=
          sizeof(RefSealBody) + sb.entry_count * sizeof(RefEntryRec))
        break;
      if (sb.segment_id >= cfg.num_segments) break;
      BackendSegmentRecord rec;
      rec.id = sb.segment_id;
      rec.log = sb.log;
      rec.source = static_cast<SegmentSource>(sb.source);
      rec.open_time = sb.open_time;
      rec.seal_time = sb.seal_time;
      rec.unow = sb.unow;
      rec.checkpoint = hdr.type == kRefCheckpoint;
      rec.ordinal = ordinal;
      RefDecodeEntries(body + sizeof(sb), sb.entry_count, &rec.entries,
                       &out->max_seq);
      out->unow = std::max(out->unow, sb.unow);
      if (hdr.type == kRefRehome) {
        out->rehomed.push_back(std::move(rec));
      } else {
        latest_seal[sb.segment_id] = static_cast<int64_t>(seals.size());
        seals.push_back(std::move(rec));
      }
    } else if (hdr.type == kRefDelta) {
      if (hdr.body_len < sizeof(RefDeltaBody)) break;
      RefDeltaBody db;
      std::memcpy(&db, body, sizeof(db));
      if (db.entry_count >
          (hdr.body_len - sizeof(RefDeltaBody)) / sizeof(RefEntryRec))
        break;
      if (hdr.body_len !=
          sizeof(RefDeltaBody) + db.entry_count * sizeof(RefEntryRec))
        break;
      if (db.segment_id >= cfg.num_segments) break;
      if (db.suffix_offset > cfg.segment_bytes ||
          db.suffix_length > cfg.segment_bytes - db.suffix_offset) {
        break;
      }
      BackendSegmentRecord rec;
      rec.id = db.segment_id;
      rec.log = db.log;
      rec.source = static_cast<SegmentSource>(db.source);
      rec.open_time = db.open_time;
      rec.seal_time = db.seal_time;
      rec.unow = db.unow;
      rec.checkpoint = true;
      rec.delta = true;
      rec.ordinal = ordinal;
      rec.generation = db.generation;
      rec.base_ordinal = db.base_ordinal;
      rec.prefix_entries = db.prefix_entries;
      rec.suffix_offset = db.suffix_offset;
      rec.suffix_length = db.suffix_length;
      RefDecodeEntries(body + sizeof(db), db.entry_count, &rec.entries,
                       &out->max_seq);
      uint64_t suffix_bytes = 0;
      for (const Segment::Entry& e : rec.entries) suffix_bytes += e.bytes;
      if (suffix_bytes != db.suffix_length) break;
      out->unow = std::max(out->unow, db.unow);
      out->deltas.push_back(std::move(rec));
    } else if (hdr.type == kRefFree) {
      if (hdr.body_len != sizeof(RefFreeBody)) break;
      RefFreeBody fb;
      std::memcpy(&fb, body, sizeof(fb));
      if (fb.segment_id >= cfg.num_segments) break;
      latest_seal[fb.segment_id] = -1;
      out->unow = std::max(out->unow, fb.unow);
    } else if (hdr.type == kRefDelete) {
      if (hdr.body_len != sizeof(RefDeleteBody)) break;
      RefDeleteBody db;
      std::memcpy(&db, body, sizeof(db));
      out->deletes.emplace_back(db.page, db.seq);
      out->max_seq = std::max(out->max_seq, db.seq);
      out->unow = std::max(out->unow, db.unow);
    } else if (hdr.type == kRefWatermark) {
      if (hdr.body_len != sizeof(RefWatermarkBody)) break;
      RefWatermarkBody wb;
      std::memcpy(&wb, body, sizeof(wb));
      out->max_seq = std::max(out->max_seq, wb.max_seq);
      out->unow = std::max(out->unow, wb.unow);
    } else if (hdr.type != kRefGeometry) {
      break;
    }
    ++r.type_counts[hdr.type];
    off += sizeof(hdr) + hdr.body_len;
    valid_end = off;
    ++ordinal;
  }
  for (SegmentId id = 0; id < cfg.num_segments; ++id) {
    if (latest_seal[id] >= 0) {
      out->segments.push_back(std::move(seals[latest_seal[id]]));
    }
  }
  r.valid_end = valid_end;
  return r;
}

void ExpectSameRecords(const std::vector<BackendSegmentRecord>& got,
                       const std::vector<BackendSegmentRecord>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const BackendSegmentRecord& g = got[i];
    const BackendSegmentRecord& w = want[i];
    const std::string at = what + "[" + std::to_string(i) + "]";
    EXPECT_EQ(g.id, w.id) << at;
    EXPECT_EQ(g.log, w.log) << at;
    EXPECT_EQ(g.source, w.source) << at;
    EXPECT_EQ(g.open_time, w.open_time) << at;
    EXPECT_EQ(g.seal_time, w.seal_time) << at;
    EXPECT_EQ(g.unow, w.unow) << at;
    EXPECT_EQ(g.checkpoint, w.checkpoint) << at;
    EXPECT_EQ(g.ordinal, w.ordinal) << at;
    EXPECT_EQ(g.delta, w.delta) << at;
    EXPECT_EQ(g.generation, w.generation) << at;
    EXPECT_EQ(g.base_ordinal, w.base_ordinal) << at;
    EXPECT_EQ(g.prefix_entries, w.prefix_entries) << at;
    EXPECT_EQ(g.suffix_offset, w.suffix_offset) << at;
    EXPECT_EQ(g.suffix_length, w.suffix_length) << at;
    ASSERT_EQ(g.entries.size(), w.entries.size()) << at;
    for (size_t j = 0; j < g.entries.size(); ++j) {
      const Segment::Entry& ge = g.entries[j];
      const Segment::Entry& we = w.entries[j];
      EXPECT_EQ(ge.page, we.page) << at << " entry " << j;
      EXPECT_EQ(ge.bytes, we.bytes) << at << " entry " << j;
      EXPECT_EQ(ge.seq, we.seq) << at << " entry " << j;
      EXPECT_EQ(ge.last_update, we.last_update) << at << " entry " << j;
      EXPECT_EQ(ge.up2, we.up2) << at << " entry " << j;
      EXPECT_EQ(ge.exact_upf, we.exact_upf) << at << " entry " << j;
      EXPECT_EQ(ge.offset, we.offset) << at << " entry " << j;
      EXPECT_EQ(ge.orig_page, we.orig_page) << at << " entry " << j;
      EXPECT_EQ(ge.doa, we.doa) << at << " entry " << j;
    }
  }
}

// Writes `log` as shard 0's metadata log, scans it with a fresh
// FileBackend and compares status, every BackendRecovery field and the
// post-Scan log length against the reference replay of the same bytes.
void ExpectScanMatchesReference(const StoreConfig& cfg,
                                const std::vector<uint8_t>& log,
                                const std::string& what) {
  SCOPED_TRACE(what);
  const std::string meta = FileBackend::MetaPath(cfg.backend_dir, 0);
  {
    std::FILE* f = std::fopen(meta.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!log.empty()) {
      ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
    }
    std::fclose(f);
  }
  const RefReplay want = ReferenceReplay(log, cfg);
  FileBackend backend;
  StoreStats stats;
  ASSERT_TRUE(backend.Open(cfg, 0, 1, &stats, /*recover=*/true).ok());
  BackendRecovery got;
  const Status s = backend.Scan(&got);
  ASSERT_EQ(s.ok(), want.status.ok()) << s.ToString();
  if (!s.ok()) {
    EXPECT_EQ(s.code(), want.status.code());
  } else {
    ExpectSameRecords(got.segments, want.rec.segments, "segments");
    ExpectSameRecords(got.rehomed, want.rec.rehomed, "rehomed");
    ExpectSameRecords(got.deltas, want.rec.deltas, "deltas");
    EXPECT_EQ(got.deletes, want.rec.deletes);
    EXPECT_EQ(got.max_seq, want.rec.max_seq);
    EXPECT_EQ(got.unow, want.rec.unow);
  }
  ASSERT_TRUE(backend.Close().ok());
  EXPECT_EQ(ReadAllBytes(meta).size(), want.valid_end);
}

// Appends one framed record of `type` to `log`: `fixed` (a Ref*Body),
// then the entry array.
template <typename Body>
void AppendRefRecord(std::vector<uint8_t>* log, RefType type,
                     const Body& fixed,
                     const std::vector<RefEntryRec>& entries = {}) {
  std::vector<uint8_t> body(sizeof(fixed) +
                            entries.size() * sizeof(RefEntryRec));
  std::memcpy(body.data(), &fixed, sizeof(fixed));
  if (!entries.empty()) {
    std::memcpy(body.data() + sizeof(fixed), entries.data(),
                entries.size() * sizeof(RefEntryRec));
  }
  const RefHeader hdr{kRefMagic, type, 0, body.size(),
                      RefChecksum(type, body.data(), body.size())};
  const uint8_t* h = reinterpret_cast<const uint8_t*>(&hdr);
  log->insert(log->end(), h, h + sizeof(hdr));
  log->insert(log->end(), body.begin(), body.end());
}

// A delta must tile the chain it extends. A log whose delta keeps more
// entries than its chain holds, or whose suffix does not start where the
// kept entries end, is Corruption on Open; the same log with a tiling
// delta opens.
TEST_F(IoBackendTest, DeltaThatDoesNotTileItsChainIsCorruption) {
  const StoreConfig cfg = FileConfig();
  const uint32_t page = cfg.page_bytes;
  struct Case {
    const char* what;
    uint64_t prefix_entries;
    uint64_t suffix_offset;
    Status::Code want;
  };
  const Case cases[] = {
      {"tiling delta", 2, 2 * page, Status::Code::kOk},
      {"prefix beyond the chain", 3, page, Status::Code::kCorruption},
      {"suffix offset off the prefix", 1, 2 * page,
       Status::Code::kCorruption},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    {
      FileBackend fresh;  // creates both files
      StoreStats stats;
      ASSERT_TRUE(fresh.Open(cfg, 0, 1, &stats, /*recover=*/false).ok());
      ASSERT_TRUE(fresh.Close().ok());
    }
    // Geometry (ordinal 0), a full checkpoint of pages 0 and 1 in slot 0
    // (ordinal 1), then a delta on it adding page 2.
    std::vector<uint8_t> log;
    const RefGeometryBody geometry{0, 1, cfg.num_segments, cfg.segment_bytes,
                                   page, 4};
    AppendRefRecord(&log, kRefGeometry, geometry);
    const RefSealBody base{0, 0, 1, 1, 2, 2, 2};
    AppendRefRecord(&log, kRefCheckpoint, base,
                    {RefEntryRec{0, page, 0, 1, 1, 0.0, 0.0},
                     RefEntryRec{1, page, 0, 2, 2, 0.0, 0.0}});
    const RefDeltaBody delta{0, 0, 1, 1, 3, 3, 1, 1,
                             /*base_ordinal=*/1, c.prefix_entries,
                             c.suffix_offset, page};
    AppendRefRecord(&log, kRefDelta, delta,
                    {RefEntryRec{2, page, 0, 3, 3, 0.0, 0.0}});
    std::FILE* f =
        std::fopen(FileBackend::MetaPath(dir_, 0).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
    std::fclose(f);

    Status st;
    auto store = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kGreedy); }, &st);
    EXPECT_EQ(st.code(), c.want) << st.ToString();
    EXPECT_EQ(store != nullptr, c.want == Status::Code::kOk);
    if (c.want != Status::Code::kOk) {
      EXPECT_NE(st.message().find("delta"), std::string::npos)
          << st.ToString();
    }
    if (store != nullptr) {
      EXPECT_TRUE(store->Contains(0) && store->Contains(1) &&
                  store->Contains(2));
    }
  }
}

TEST_F(IoBackendTest, ScanMatchesReferenceOnTornAndCorruptLogs) {
  // MDC churn with deletes on a tight device: periodic checkpoints every
  // 8 backend ops plus explicit barriers chain delta records, and the
  // small free pool makes the shard re-home withheld victims' entries.
  StoreConfig cfg = FileConfig();
  cfg.page_bytes = 1024;
  cfg.segment_bytes = 8 * 1024;
  cfg.num_segments = 24;
  cfg.write_buffer_segments = 2;
  cfg.checkpoint_interval_ops = 8;
  cfg.checkpoint_delta = true;
  cfg.clean_batch_segments = 8;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  // The log as the writer appended it: compaction rewrites it whenever it
  // outgrows its live records, so each compaction's input is kept.
  std::vector<std::vector<uint8_t>> appended;
  const std::string meta_path = FileBackend::MetaPath(dir_, 0);
  {
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); }, nullptr,
        [&appended, &meta_path](uint32_t) {
          auto file = std::make_unique<FileBackend>();
          file->SetCompactionStepHook(
              [&appended, &meta_path](FileBackend::CompactionStep step) {
                if (step == FileBackend::CompactionStep::kTempWritten) {
                  appended.push_back(ReadAllBytes(meta_path));
                }
                return true;
              });
          return file;
        });
    ASSERT_NE(store, nullptr);
    const PageId pages = 200;
    Rng rng(29);
    for (int i = 0; i < 900; ++i) {
      const PageId p = rng.NextBounded(pages);
      if (store->Contains(p) && rng.NextBool(0.08)) {
        ASSERT_TRUE(store->Delete(p).ok());
      } else {
        const uint32_t bytes =
            256 * (1 + static_cast<uint32_t>(rng.NextBounded(4)));
        ASSERT_TRUE(store->Write(p, bytes).ok());
      }
      if (i % 7 == 6) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
    }
    ASSERT_TRUE(store->Close().ok());
  }
  appended.push_back(ReadAllBytes(meta_path));

  // The log under test is the first one that holds every record type,
  // the watermark of an earlier compaction included; it replays fully.
  constexpr uint16_t kTypes[] = {kRefSeal,   kRefFree,  kRefDelete,
                                 kRefCheckpoint, kRefRehome, kRefDelta,
                                 kRefWatermark};
  std::vector<uint8_t> log;
  RefReplay whole;
  for (const std::vector<uint8_t>& image : appended) {
    whole = ReferenceReplay(image, cfg);
    if (std::all_of(
            std::begin(kTypes), std::end(kTypes),
            [&whole](uint16_t t) { return whole.type_counts[t] > 0; })) {
      log = image;
      break;
    }
  }
  ASSERT_FALSE(log.empty()) << "no appended log holds every record type";
  ASSERT_TRUE(whole.status.ok());
  ASSERT_EQ(whole.valid_end, log.size());
  std::printf("scan equivalence log: %zu bytes, %llu seals, %llu frees, "
              "%llu deletes, %llu checkpoints, %llu deltas, %llu re-homes\n",
              log.size(),
              static_cast<unsigned long long>(whole.type_counts[kRefSeal]),
              static_cast<unsigned long long>(whole.type_counts[kRefFree]),
              static_cast<unsigned long long>(whole.type_counts[kRefDelete]),
              static_cast<unsigned long long>(
                  whole.type_counts[kRefCheckpoint]),
              static_cast<unsigned long long>(whole.type_counts[kRefDelta]),
              static_cast<unsigned long long>(whole.type_counts[kRefRehome]));
  ExpectScanMatchesReference(cfg, log, "whole log");
  if (HasFailure()) return;

  // Record boundaries of the intact log.
  std::vector<uint64_t> starts;
  for (uint64_t off = 0; off < log.size();) {
    starts.push_back(off);
    RefHeader hdr;
    std::memcpy(&hdr, log.data() + off, sizeof(hdr));
    off += sizeof(hdr) + hdr.body_len;
  }

  // Torn tails: cut at every record boundary and 1 or 23 bytes either
  // side of it.
  for (uint64_t b : starts) {
    for (int64_t delta : {-23, -1, 0, 1, 23}) {
      const int64_t cut = static_cast<int64_t>(b) + delta;
      if (cut < 0 || cut > static_cast<int64_t>(log.size())) continue;
      const std::vector<uint8_t> torn(log.begin(), log.begin() + cut);
      ExpectScanMatchesReference(cfg, torn,
                                 "cut at " + std::to_string(cut));
      if (HasFailure()) return;
    }
  }

  // Corruption: one flipped byte in each header field and in the body of
  // the geometry record, the first replayed record, a middle one and the
  // last one.
  for (size_t r : {size_t{0}, size_t{1}, starts.size() / 2,
                   starts.size() - 1}) {
    const uint64_t start = starts[r];
    RefHeader hdr;
    std::memcpy(&hdr, log.data() + start, sizeof(hdr));
    std::vector<uint64_t> at = {start, start + 4, start + 6, start + 8,
                                start + 16};
    for (uint64_t b : {uint64_t{0}, hdr.body_len / 2, hdr.body_len - 1}) {
      at.push_back(start + sizeof(hdr) + b);
    }
    for (uint64_t pos : at) {
      std::vector<uint8_t> bad = log;
      bad[pos] ^= 0x5A;
      ExpectScanMatchesReference(cfg, bad,
                                 "record " + std::to_string(r) +
                                     ": byte " + std::to_string(pos) +
                                     " flipped");
      if (HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Metadata-log compaction. FileBackend::CompactMeta rewrites the log down
// to the records that decide recovery. The round trip below feeds the
// same random record stream to a backend that never compacts and to one
// that compacts at random points, and demands that both logs resolve to
// the same recovered store, exactly as StoreShard::Recover resolves it.
// ---------------------------------------------------------------------

// One page version as recovery places it: in a slot, or re-homed.
struct ResolvedVersion {
  uint64_t seq = 0;
  uint32_t bytes = 0;
  SegmentId slot = kInvalidSegment;  // kInvalidSegment: re-homed
  uint64_t index = 0;
  bool operator==(const ResolvedVersion& o) const {
    return seq == o.seq && bytes == o.bytes && slot == o.slot &&
           index == o.index;
  }
};

// A recovered store, resolved from a Scan as StoreShard::Recover does:
// each slot's assembled record and entries, each present page's winning
// version, the re-homed winners in materialisation order, and the clocks.
struct ResolvedStore {
  std::map<SegmentId, BackendSegmentRecord> slots;
  std::map<PageId, ResolvedVersion> pages;
  std::vector<std::pair<PageId, uint64_t>> rehomed_winners;
  uint64_t max_seq = 0;
  UpdateCount unow = 0;
};

ResolvedStore Resolve(const BackendRecovery& log) {
  ResolvedStore r;
  r.max_seq = log.max_seq;
  r.unow = log.unow;
  struct Placed {
    PageId page;
    ResolvedVersion v;
    uint64_t ordinal;
  };
  std::vector<Placed> placed;
  for (const BackendSegmentRecord& rec : log.segments) {
    BackendSegmentRecord slot = rec;
    std::vector<uint64_t> ordinals(slot.entries.size(), rec.ordinal);
    uint64_t tip = rec.ordinal;
    for (const BackendSegmentRecord& d : log.deltas) {
      if (!rec.checkpoint || d.id != rec.id || d.base_ordinal != tip) continue;
      slot.entries.resize(d.prefix_entries);
      slot.entries.insert(slot.entries.end(), d.entries.begin(),
                          d.entries.end());
      ordinals.resize(d.prefix_entries);
      ordinals.resize(slot.entries.size(), d.ordinal);
      slot.seal_time = d.seal_time;
      tip = d.ordinal;
    }
    for (size_t i = 0; i < slot.entries.size(); ++i) {
      const Segment::Entry& e = slot.entries[i];
      if (e.page == kInvalidPage) continue;
      placed.push_back(
          Placed{e.page, ResolvedVersion{e.seq, e.bytes, rec.id, i},
                 ordinals[i]});
    }
    // Only what Recover rebuilds a segment from is compared.
    slot.unow = 0;
    slot.ordinal = 0;
    r.slots[rec.id] = std::move(slot);
  }
  for (const BackendSegmentRecord& rec : log.rehomed) {
    for (const Segment::Entry& e : rec.entries) {
      if (e.page == kInvalidPage) continue;
      placed.push_back(Placed{
          e.page, ResolvedVersion{e.seq, e.bytes, kInvalidSegment, 0},
          rec.ordinal});
    }
  }
  std::map<PageId, uint64_t> latest_delete;
  for (const auto& [page, seq] : log.deletes) {
    latest_delete[page] = std::max(latest_delete[page], seq);
  }
  std::map<PageId, const Placed*> winner;
  for (const Placed& p : placed) {
    auto it = latest_delete.find(p.page);
    if (it != latest_delete.end() && it->second > p.v.seq) continue;
    const Placed*& w = winner[p.page];
    if (w == nullptr || p.v.seq > w->v.seq ||
        (p.v.seq == w->v.seq && p.ordinal > w->ordinal)) {
      w = &p;
    }
  }
  for (const Placed& p : placed) {
    if (winner[p.page] != &p) continue;
    r.pages[p.page] = p.v;
    if (p.v.slot == kInvalidSegment) {
      r.rehomed_winners.emplace_back(p.page, p.v.seq);
    }
  }
  return r;
}

void ExpectSameStore(const ResolvedStore& got, const ResolvedStore& want) {
  EXPECT_EQ(got.max_seq, want.max_seq);
  EXPECT_EQ(got.unow, want.unow);
  EXPECT_EQ(got.pages.size(), want.pages.size());
  for (const auto& [page, v] : want.pages) {
    auto it = got.pages.find(page);
    ASSERT_NE(it, got.pages.end()) << "page " << page << " lost";
    EXPECT_TRUE(it->second == v)
        << "page " << page << ": seq " << it->second.seq << " in slot "
        << it->second.slot << ", want seq " << v.seq << " in slot "
        << v.slot;
  }
  EXPECT_EQ(got.rehomed_winners, want.rehomed_winners);
  std::vector<BackendSegmentRecord> g, w;
  for (const auto& [id, rec] : got.slots) g.push_back(rec);
  for (const auto& [id, rec] : want.slots) w.push_back(rec);
  ExpectSameRecords(g, w, "slots");
}

// The production resolver's answer in the reference's terms.
ResolvedStore FromResolveRecovery(const ResolvedRecovery& got) {
  ResolvedStore r;
  r.max_seq = got.max_seq;
  r.unow = got.unow;
  for (const ResolvedRecovery::Slot& slot : got.slots) {
    const BackendSegmentRecord& rec = slot.record;
    for (size_t i = 0; i < rec.entries.size(); ++i) {
      if (slot.wins[i]) {
        const Segment::Entry& e = rec.entries[i];
        r.pages[e.page] = ResolvedVersion{e.seq, e.bytes, rec.id, i};
      }
    }
    BackendSegmentRecord compared = rec;
    compared.unow = 0;
    compared.ordinal = 0;
    r.slots[rec.id] = std::move(compared);
  }
  for (const ResolvedRecovery::Rehomed& rh : got.rehomed) {
    for (size_t i = 0; i < rh.record.entries.size(); ++i) {
      if (rh.wins[i]) {
        const Segment::Entry& e = rh.record.entries[i];
        r.pages[e.page] = ResolvedVersion{e.seq, e.bytes, kInvalidSegment, 0};
        r.rehomed_winners.emplace_back(e.page, e.seq);
      }
    }
  }
  return r;
}

// Scans shard `shard` of a 2-shard geometry in a fresh backend and
// resolves it with the reference, after checking that ResolveRecovery
// resolves the same scan to the same store.
ResolvedStore ScanAndResolve(const StoreConfig& cfg, uint32_t shard) {
  FileBackend reader;
  StoreStats stats;
  EXPECT_TRUE(reader.Open(cfg, shard, 2, &stats, /*recover=*/true).ok());
  BackendRecovery out;
  EXPECT_TRUE(reader.Scan(&out).ok());
  EXPECT_TRUE(reader.Close().ok());
  ResolvedStore want = Resolve(out);
  ResolvedRecovery got;
  EXPECT_TRUE(ResolveRecovery(out, cfg.num_segments, &got).ok());
  {
    SCOPED_TRACE("ResolveRecovery against the reference");
    ExpectSameStore(FromResolveRecovery(got), want);
  }
  return want;
}

// Drives one random record stream into `backends`: seals, full and
// delta checkpoints, re-homes, frees and deletes over a small slot
// space, under the store's invariants. A slot is freed only once it
// holds no page's newest version (a re-homing record may take them
// first), and a delta re-records the entries past its retained prefix.
// Copies of a version (a relocation into a later record or a re-homing
// record) are made at most once per version and only from a sealed
// slot, so equal-seq ties always pair an older source with a later
// copy, as in the store.
class RecordStream {
 public:
  RecordStream(const StoreConfig& cfg, uint64_t seed)
      : cfg_(cfg), rng_(seed), slots_(cfg.num_segments) {}

  // The next operation, applied to every backend in turn.
  void Step(const std::vector<SegmentBackend*>& backends) {
    ++unow_;
    const uint64_t pick = rng_.NextBounded(100);
    const SegmentId id =
        static_cast<SegmentId>(rng_.NextBounded(slots_.size()));
    Slot& slot = slots_[id];
    auto apply = [&](auto&& op) {
      for (SegmentBackend* b : backends) op(b);
    };
    if (pick < 8) {
      const PageId page = rng_.NextBounded(kPages);
      const uint64_t seq = ++seq_;
      newest_[page] = seq;
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE(b->RecordDelete(page, seq, unow_).ok());
      });
    } else if (pick < 20 && slot.state != kFree && !HoldsNewest(slot)) {
      slot.state = kFree;
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE(b->ReclaimSegment(id, unow_).ok());
      });
    } else if (pick < 26 && slot.state == kSealed) {
      // Re-home the sealed slot's newest versions (and some older ones),
      // then free the slot. Skipped when another record already copies
      // one of those newest versions: that copy's slot may be freed next.
      BackendSegmentRecord rec = Record(id, slot);
      rec.entries.clear();
      for (const Segment::Entry& e : slot.entries) {
        if (IsNewest(e) && copied_.count({e.page, e.seq}) != 0) return;
      }
      for (const Segment::Entry& e : slot.entries) {
        if (e.page != kInvalidPage && (IsNewest(e) || rng_.NextBool(0.3)) &&
            copied_.count({e.page, e.seq}) == 0) {
          rec.entries.push_back(e);
        }
      }
      for (const Segment::Entry& e : rec.entries) {
        copied_.insert({e.page, e.seq});
      }
      slot.state = kFree;
      if (!rec.entries.empty()) {
        apply([&](SegmentBackend* b) { (void)b->RehomeEntries(rec); });
      }
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE(b->ReclaimSegment(id, unow_).ok());
      });
    } else if (slot.state == kChain && pick < 70) {
      // A delta over a random retained prefix: it re-records the entries
      // past the prefix and adds fresh ones.
      const size_t prefix = rng_.NextBounded(slot.entries.size() + 1);
      Fill(&slot.entries, 1 + rng_.NextBounded(3));
      BackendSegmentRecord rec = Record(id, slot);
      rec.checkpoint = true;
      rec.delta = true;
      rec.prefix_entries = prefix;
      rec.suffix_offset = prefix == 0 ? 0 : slot.entries[prefix - 1].offset +
                                                slot.entries[prefix - 1].bytes;
      rec.entries.erase(rec.entries.begin(), rec.entries.begin() + prefix);
      for (const Segment::Entry& e : rec.entries) rec.suffix_length += e.bytes;
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE(b->CheckpointDelta(rec).ok());
      });
    } else if (slot.state == kChain && pick < 85) {
      // Close the chain with a seal, or restart it with a full record.
      Fill(&slot.entries, rng_.NextBounded(3));
      const bool seal = rng_.NextBool(0.5);
      BackendSegmentRecord rec = Record(id, slot);
      rec.checkpoint = !seal;
      if (seal) slot.state = kSealed;
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE((seal ? b->SealSegment(rec) : b->Checkpoint(rec)).ok());
      });
    } else if (slot.state == kFree) {
      // Fill the slot and seal it, or open a checkpoint chain on it.
      slot.entries.clear();
      ++slot.generation;
      slot.open_time = unow_;
      Fill(&slot.entries, 2 + rng_.NextBounded(6));
      const bool chain = rng_.NextBool(0.4);
      slot.state = chain ? kChain : kSealed;
      BackendSegmentRecord rec = Record(id, slot);
      rec.checkpoint = chain;
      apply([&](SegmentBackend* b) {
        EXPECT_TRUE((chain ? b->Checkpoint(rec) : b->SealSegment(rec)).ok());
      });
    }
  }

 private:
  enum State { kFree, kSealed, kChain };
  struct Slot {
    State state = kFree;
    uint64_t generation = 0;
    UpdateCount open_time = 0;
    std::vector<Segment::Entry> entries;
  };
  static constexpr PageId kPages = 40;

  bool IsNewest(const Segment::Entry& e) const {
    auto it = newest_.find(e.page);
    return e.page != kInvalidPage && it != newest_.end() && it->second == e.seq;
  }
  bool HoldsNewest(const Slot& slot) const {
    return std::any_of(slot.entries.begin(), slot.entries.end(),
                       [this](const Segment::Entry& e) { return IsNewest(e); });
  }

  BackendSegmentRecord Record(SegmentId id, const Slot& slot) const {
    BackendSegmentRecord rec;
    rec.id = id;
    rec.log = id % 3;
    rec.source = id % 2 == 0 ? SegmentSource::kUser : SegmentSource::kGc;
    rec.open_time = slot.open_time;
    rec.seal_time = unow_;
    rec.unow = unow_;
    rec.generation = slot.generation;
    rec.entries = slot.entries;
    return rec;
  }

  // Appends up to `n` entries that fit the segment: fresh versions, dead
  // entries, and copies of versions sealed elsewhere.
  void Fill(std::vector<Segment::Entry>* entries, uint64_t n) {
    uint64_t used = 0;
    for (const Segment::Entry& e : *entries) used += e.bytes;
    for (uint64_t i = 0; i < n; ++i) {
      Segment::Entry e;
      const uint64_t kind = rng_.NextBounded(10);
      const bool copy = kind < 2 && CopySealedVersion(&e);
      if (!copy) {
        e.page = kind < 3 ? kInvalidPage : rng_.NextBounded(kPages);
        e.bytes = 256 * (1 + static_cast<uint32_t>(rng_.NextBounded(4)));
        e.seq = ++seq_;
      }
      e.last_update = unow_;
      e.up2 = static_cast<double>(rng_.NextBounded(1000)) / 7.0;
      e.exact_upf = static_cast<double>(rng_.NextBounded(1000)) / 13.0;
      if (used + e.bytes > cfg_.segment_bytes) return;
      e.offset = used;
      used += e.bytes;
      if (copy) copied_.insert({e.page, e.seq});
      if (e.page != kInvalidPage && e.seq > newest_[e.page]) {
        newest_[e.page] = e.seq;
      }
      entries->push_back(e);
    }
  }

  bool CopySealedVersion(Segment::Entry* out) {
    const Slot& from = slots_[rng_.NextBounded(slots_.size())];
    if (from.state != kSealed || from.entries.empty()) return false;
    const Segment::Entry& e =
        from.entries[rng_.NextBounded(from.entries.size())];
    if (e.page == kInvalidPage || copied_.count({e.page, e.seq}) != 0) {
      return false;
    }
    *out = e;
    return true;
  }

  StoreConfig cfg_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::set<std::pair<PageId, uint64_t>> copied_;
  // Per page the seq of its newest version or tombstone.
  std::map<PageId, uint64_t> newest_;
  uint64_t seq_ = 0;
  UpdateCount unow_ = 0;
};

// Appends a torn record to shard `shard`'s log: a seal header whose body
// never fully landed.
void TearLogTail(const StoreConfig& cfg, uint32_t shard) {
  std::FILE* f =
      std::fopen(FileBackend::MetaPath(cfg.backend_dir, shard).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const RefHeader hdr{kRefMagic, kRefSeal, 0, 400, 12345};
  const uint8_t junk[100] = {7};
  ASSERT_EQ(std::fwrite(&hdr, sizeof(hdr), 1, f), 1u);
  ASSERT_EQ(std::fwrite(junk, sizeof(junk), 1, f), 1u);
  std::fclose(f);
}

TEST_F(IoBackendTest, CompactionPreservesRecovery) {
  StoreConfig cfg = FileConfig();
  cfg.page_bytes = 1024;
  cfg.segment_bytes = 8 * 1024;
  cfg.num_segments = 12;
  uint64_t compactions = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Shard 0 keeps the whole history: its compactions are refused at the
    // first step, before they touch the log, which fails the Sync or
    // re-home that started them after their own work is done. Shard 1
    // compacts by its own trigger and at random points besides.
    StoreStats history_stats;
    StoreStats compacted_stats;
    FileBackend history;
    FileBackend compacted;
    history.SetCompactionStepHook(
        [](FileBackend::CompactionStep) { return false; });
    ASSERT_TRUE(history.Open(cfg, 0, 2, &history_stats, false).ok());
    ASSERT_TRUE(compacted.Open(cfg, 1, 2, &compacted_stats, false).ok());
    // Group-commit mode: durable points (and so compactions) come only
    // from Sync() and re-homing records.
    history.SetDeferredSync(true);
    compacted.SetDeferredSync(true);
    RecordStream stream(cfg, seed);
    Rng rng(seed * 7919);
    for (int op = 0; op < 600; ++op) {
      stream.Step({&history, &compacted});
      if (HasFatalFailure()) return;
      if (rng.NextBool(0.02)) {
        ASSERT_TRUE(compacted.CompactMeta().ok());
      }
      if (rng.NextBool(0.05)) {
        (void)history.Sync();  // refused compactions fail the call
        ASSERT_TRUE(compacted.Sync().ok());
      }
    }
    compactions += compacted_stats.meta_compactions;
    history.Abandon();
    compacted.Abandon();
    TearLogTail(cfg, 0);
    TearLogTail(cfg, 1);

    const ResolvedStore want = ScanAndResolve(cfg, 0);
    ExpectSameStore(ScanAndResolve(cfg, 1), want);
    if (HasFailure()) return;

    // Compacting the recovered history resolves the same, and compacting
    // the result again rewrites it byte for byte.
    std::vector<uint8_t> once;
    for (int round = 0; round < 2; ++round) {
      FileBackend b;
      StoreStats stats;
      ASSERT_TRUE(b.Open(cfg, 0, 2, &stats, /*recover=*/true).ok());
      BackendRecovery unused;
      ASSERT_TRUE(b.Scan(&unused).ok());
      ASSERT_TRUE(b.CompactMeta().ok());
      ASSERT_TRUE(b.Close().ok());
      const std::vector<uint8_t> log =
          ReadAllBytes(FileBackend::MetaPath(dir_, 0));
      if (round == 0) {
        once = log;
        ExpectSameStore(ScanAndResolve(cfg, 0), want);
      } else {
        EXPECT_EQ(log, once) << "a second compaction changed the log";
      }
    }
    if (HasFailure()) return;
  }
  std::printf("compaction round trip: %llu compactions across 24 streams\n",
              static_cast<unsigned long long>(compactions));
  EXPECT_GT(compactions, 24u);
}

// A delete can kill a version that still sits in an open segment and was
// never recorded. The shard records such an in-place-killed entry live
// under its page's identity when the segment seals (MakeSealRecord), so
// the tombstone must survive a compaction that finds no version of the
// page in the log at all, or the seal would resurrect the page.
TEST_F(IoBackendTest, CompactionKeepsTombstoneOfUnrecordedVersion) {
  const StoreConfig cfg = FileConfig();
  FileBackend writer;
  StoreStats stats;
  ASSERT_TRUE(writer.Open(cfg, 0, 2, &stats, /*recover=*/false).ok());
  Segment::Entry e;
  e.page = 5;
  e.bytes = 4096;
  e.seq = 10;  // written into open slot 1, not yet recorded
  ASSERT_TRUE(writer.RecordDelete(5, 11, /*unow=*/11).ok());
  ASSERT_TRUE(writer.CompactMeta().ok());
  BackendSegmentRecord seal;
  seal.id = 1;
  seal.seal_time = 12;
  seal.unow = 12;
  seal.entries = {e};
  ASSERT_TRUE(writer.SealSegment(seal).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(ScanAndResolve(cfg, 0).pages.count(5), 0u)
      << "the compaction dropped the tombstone and the seal resurrected "
         "page 5";
}

}  // namespace
}  // namespace lss
