// Quickstart: create a log-structured store with the MDC cleaning policy,
// write some pages, and read the write-amplification counters — then do
// it again on the real file backend and survive a "restart".
//
//   $ ./build/examples/quickstart
//
// Part 1 walks the core public API on the paper's bookkeeping-only
// simulator: StoreConfig, MakePolicy / Variant, a 1-shard ShardedStore
// (the paper's single-threaded store: one shard owns the whole device)
// with Write/Flush, and StoreStats.
//
// Part 2 selects the file backend (ApplyBackendSpec), runs the same
// workload with every sealed segment physically written to a temp
// directory, closes the store, reopens it with ShardedStore::Open —
// recovering the page table from the segment files — and verifies every
// live page is still there and readable.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace {

using namespace lss;

// A small device: 256 segments of 128 x 4 KB pages (128 MiB).
StoreConfig BaseConfig() {
  StoreConfig config;
  config.page_bytes = 4096;
  config.segment_bytes = 128 * 4096;
  config.num_segments = 256;
  config.clean_trigger_segments = 4;   // clean when < 4 free segments
  config.clean_batch_segments = 16;    // victims per cleaning cycle
  config.write_buffer_segments = 8;    // sort window for user writes
  return config;
}

// Fill fraction `f` of the device with pages 0..N-1, then update them at
// random: a 90:10 hot/cold split (90% of updates hit the first 10% of
// pages). Returns the page count, or 0 on failure.
uint64_t RunWorkload(ShardedStore* store, double f) {
  const uint64_t user_pages = store->shard_config().UserPagesForFillFactor(f);
  for (PageId p = 0; p < user_pages; ++p) {
    if (Status s = store->Write(p); !s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 0;
    }
  }
  Rng rng(42);
  const uint64_t hot = user_pages / 10;
  for (uint64_t i = 0; i < 10 * user_pages; ++i) {
    const PageId p = rng.NextBool(0.9) ? rng.NextBounded(hot)
                                       : hot + rng.NextBounded(user_pages - hot);
    if (Status s = store->Write(p); !s.ok()) {
      std::fprintf(stderr, "update failed: %s\n", s.ToString().c_str());
      return 0;
    }
  }
  return user_pages;
}

void PrintStats(const ShardedStore& store) {
  const StoreStats stats = store.AggregatedStats();
  std::printf("policy               : %s\n",
              store.shard(0).policy().name().c_str());
  std::printf("backend              : %s\n",
              BackendSpecName(store.shard_config()).c_str());
  std::printf("user updates         : %llu\n",
              static_cast<unsigned long long>(stats.user_updates));
  std::printf("user pages written   : %llu\n",
              static_cast<unsigned long long>(stats.user_pages_written));
  std::printf("GC page moves        : %llu\n",
              static_cast<unsigned long long>(stats.gc_pages_written));
  std::printf("cleaning cycles      : %llu\n",
              static_cast<unsigned long long>(stats.cleanings));
  std::printf("write amplification  : %.3f\n", stats.WriteAmplification());
  std::printf("mean E when cleaned  : %.3f\n", stats.MeanCleanEmptiness());
  std::printf("fill factor          : %.3f\n", store.CurrentFillFactor());
  if (stats.device_bytes_written > 0) {
    std::printf("device bytes written : %.1f MiB (%.3f per user byte)\n",
                static_cast<double>(stats.device_bytes_written) / (1u << 20),
                stats.DeviceBytesPerUserByte());
    std::printf("device time          : %.3f s (%llu fsyncs)\n",
                stats.BackendBlockingSeconds(),
                static_cast<unsigned long long>(stats.device_fsyncs));
  }
}

int Part1Simulator() {
  std::printf("=== Part 1: bookkeeping-only simulator (null backend) ===\n");
  StoreConfig config = BaseConfig();

  // The paper's contribution: Minimum Declining Cost cleaning. Other
  // choices: kAge, kGreedy, kCostBenefit, kMultiLog, ... (see
  // core/policy_factory.h). ApplyVariantConfig sets the placement
  // conventions each algorithm expects.
  const Variant variant = Variant::kMdc;
  ApplyVariantConfig(variant, &config);

  Status status;
  auto store = ShardedStore::Create(
      config, 1, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) {
    std::fprintf(stderr, "create failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (RunWorkload(store.get(), 0.7) == 0) return 1;
  store->Flush().ok();
  PrintStats(*store);
  return 0;
}

int Part2FileBackendAndReopen() {
  std::printf("\n=== Part 2: file backend, close, reopen ===\n");
#ifdef _WIN32
  std::printf("(file backend is POSIX-only; skipping)\n");
  return 0;
#else
  // A scratch directory for the segment files.
  const char* tmp_base = std::getenv("TMPDIR");
  std::string dir_template =
      std::string(tmp_base != nullptr ? tmp_base : "/tmp") +
      "/lss_quickstart_XXXXXX";
  std::vector<char> dir_buf(dir_template.begin(), dir_template.end());
  dir_buf.push_back('\0');
  const char* dir = ::mkdtemp(dir_buf.data());
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  StoreConfig config = BaseConfig();
  const Variant variant = Variant::kMdc;
  ApplyVariantConfig(variant, &config);

  // Backend selection is one string: "file:DIR" (fsync every seal) or
  // "file-nosync:DIR" (page-cache speed).
  if (Status s = ApplyBackendSpec("file-nosync:" + std::string(dir), &config);
      !s.ok()) {
    std::fprintf(stderr, "backend spec: %s\n", s.ToString().c_str());
    return 1;
  }

  uint64_t user_pages = 0;
  {
    Status status;
    auto store = ShardedStore::Create(
        config, 1, [variant] { return MakePolicy(variant); }, &status);
    if (store == nullptr) {
      std::fprintf(stderr, "create failed: %s\n", status.ToString().c_str());
      return 1;
    }
    user_pages = RunWorkload(store.get(), 0.7);
    if (user_pages == 0) return 1;
    PrintStats(*store);

    // Close = flush + seal + fsync: after this, the directory holds the
    // complete store and the process could exit (or crash).
    if (Status s = store->Close(); !s.ok()) {
      std::fprintf(stderr, "close failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("store closed; segment files live in %s\n", dir);
  }

  // "Restart": reopen from the segment files alone. The recovery scan
  // rebuilds the page table, segment bookkeeping and clocks.
  Status status;
  auto store = ShardedStore::Open(
      config, 1, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) {
    std::fprintf(stderr, "reopen failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (Status s = store->CheckInvariants(); !s.ok()) {
    std::fprintf(stderr, "invariants after reopen: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  uint64_t readable = 0;
  std::vector<uint8_t> payload;
  for (PageId p = 0; p < user_pages; ++p) {
    if (!store->Contains(p)) {
      std::fprintf(stderr, "page %llu lost across reopen\n",
                   static_cast<unsigned long long>(p));
      return 1;
    }
    if (store->ReadPage(p, &payload).ok()) ++readable;
  }
  std::printf("reopened: %llu/%llu live pages present, %llu readable\n",
              static_cast<unsigned long long>(store->LivePageCount()),
              static_cast<unsigned long long>(user_pages),
              static_cast<unsigned long long>(readable));

  // The store is fully writable again — updates, cleaning and all.
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    if (Status s = store->Write(rng.NextBounded(user_pages)); !s.ok()) {
      std::fprintf(stderr, "post-reopen write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  std::printf("20000 post-reopen updates OK (Wamp %.3f)\n",
              store->AggregatedStats().WriteAmplification());

  store->Close().ok();
  ::unlink(FileBackend::DataPath(dir, 0).c_str());
  ::unlink(FileBackend::MetaPath(dir, 0).c_str());
  ::rmdir(dir);
  return 0;
#endif
}

}  // namespace

int main() {
  if (int rc = Part1Simulator(); rc != 0) return rc;
  return Part2FileBackendAndReopen();
}
