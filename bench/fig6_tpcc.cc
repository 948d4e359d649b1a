// Reproduces Figure 6: write amplification of all seven cleaning
// algorithms on a TPC-C page-write trace, fill factors 0.5-0.8.
//
// Pipeline (paper §6.3): run TPC-C on the B+-tree storage engine with a
// buffer cache ~10% of the database, collect the page-write I/O trace,
// then replay it through the cleaning simulator at each fill factor
// (device sized so the final database occupies F of it). The *-opt
// variants pre-analyse page update frequencies from the measured part of
// the trace, exactly as the paper describes.
//
// Expected shape: age and greedy worst (TPC-C skew is ~80-20 with a
// shifting hot set); cost-benefit and multi-log mid-field, with plain
// multi-log no better than cost-benefit; MDC below them; multi-log-opt /
// MDC-opt lowest, MDC-opt below multi-log-opt.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply warehouses / transaction counts
//   LSS_BENCH_THREADS=N   shards for trace replay (default 1 = the
//                         serial pipeline; at N>1 RunTrace replays over
//                         an N-shard store). The trace itself always
//                         comes from the one-writer engine.
//   LSS_BENCH_SMOKE=1     tiny cardinality + one fill factor, for CI
//   LSS_BENCH_NO_CACHE=1  always regenerate the trace
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)

#include <algorithm>
#include <cinttypes>
#include <unistd.h>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "tpcc/trace_gen.h"
#include "util/table_printer.h"
#include "workload/runner.h"

namespace lss {
namespace {

// Replay shards (LSS_BENCH_THREADS). The value is parsed strictly:
// garbage exits(2) instead of clamping to 1.
uint32_t BenchThreads() {
  return static_cast<uint32_t>(
      bench::EnvInt("LSS_BENCH_THREADS", 1, 1, 4096));
}

bool SmokeMode() {
  const char* env = std::getenv("LSS_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

// Trace generation dominates this bench's runtime, so the generated
// trace is cached in the system temp directory, keyed by every parameter
// that shapes it — including the trace generator's format version, so
// stale cached traces regenerate instead of silently replaying old data
// after a format change. Re-runs (e.g.
// sweeping simulator-side settings) load the cache in milliseconds; set
// LSS_BENCH_NO_CACHE=1 to force regeneration.
struct CachedTrace {
  tpcc::TpccTraceResult gen;
  bool from_cache = false;
};

std::string TraceCachePath(const tpcc::TpccConfig& tc, uint64_t warm_txns,
                           uint64_t measure_txns, uint64_t checkpoint_every) {
  // FNV-1a over the generation parameters: any change keys a new file.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(tpcc::kTpccTraceFormatVersion);
  mix(tc.warehouses);
  mix(tc.districts_per_warehouse);
  mix(tc.customers_per_district);
  mix(tc.items);
  mix(tc.orders_per_district);
  mix(tc.buffer_pool_pages);
  mix(tc.seed);
  // Constants where the key once mixed the generation worker count (1)
  // and the pool policy (exact LRU, 0): keeping them keeps the default
  // cache path, and so existing cached traces, valid.
  mix(1);
  mix(0);
  mix(warm_txns);
  mix(measure_txns);
  mix(checkpoint_every);
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || *tmp == '\0') tmp = "/tmp";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/lss_fig6_trace_%016" PRIx64, h);
  return std::string(tmp) + buf;
}

// The trace's binary files hold only the records; the run metadata
// (boundaries, pool counters, pre-split shape) rides in a tiny sidecar
// so a cache hit restores the full TpccTraceResult. The sidecar opens
// with a layout tag: a sidecar of another layout (such as the untagged
// one that carried a fifth pool counter) reads as a cache miss instead
// of misparsing.
constexpr char kMetaTag[] = "fig6-meta-2";

bool SaveMeta(const std::string& path, const tpcc::TpccTraceResult& gen) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", kMetaTag);
  std::fprintf(f, "%zu %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
               gen.measure_from, gen.pages_after_load, gen.pages_final,
               gen.transactions);
  std::fprintf(f, "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
               gen.pool_hits, gen.pool_misses, gen.pool_evictions,
               gen.pool_write_backs);
  std::fprintf(f, "%u", gen.presplit.shards);
  for (uint32_t s = 0; s < gen.presplit.shards; ++s) {
    std::fprintf(f, " %zu", gen.presplit.measure_from[s]);
  }
  std::fprintf(f, "\n");
  std::fclose(f);
  return true;
}

// A pre-split for another shard count than `presplit_shards` is ignored
// (the replay re-splits the trace itself); only a matching one is read,
// so a damaged shard count sizes nothing.
bool LoadMeta(const std::string& path, uint32_t presplit_shards,
              tpcc::TpccTraceResult* gen) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char tag[16] = {};  // longer than kMetaTag: a longer token cannot match
  size_t measure_from = 0;
  uint64_t after_load = 0, final_pages = 0, txns = 0;
  uint32_t shards = 0;
  bool ok =
      std::fscanf(f, "%15s", tag) == 1 && std::strcmp(tag, kMetaTag) == 0 &&
      std::fscanf(f, "%zu %" SCNu64 " %" SCNu64 " %" SCNu64, &measure_from,
                  &after_load, &final_pages, &txns) == 4 &&
      std::fscanf(f, "%" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                  &gen->pool_hits, &gen->pool_misses, &gen->pool_evictions,
                  &gen->pool_write_backs) == 4 &&
      std::fscanf(f, "%u", &shards) == 1;
  if (ok && shards == presplit_shards) {
    gen->presplit.shards = shards;
    gen->presplit.measure_from.assign(shards, 0);
    for (uint32_t s = 0; ok && s < shards; ++s) {
      ok = std::fscanf(f, "%zu", &gen->presplit.measure_from[s]) == 1;
    }
  }
  std::fclose(f);
  if (!ok) return false;
  gen->measure_from = measure_from;
  gen->pages_after_load = after_load;
  gen->pages_final = final_pages;
  gen->transactions = txns;
  return true;
}

std::string ShardTracePath(const std::string& base, uint32_t s) {
  return base + ".s" + std::to_string(s) + ".trace";
}

CachedTrace GenerateOrLoadTrace(const tpcc::TpccConfig& tc,
                                uint64_t warm_txns, uint64_t measure_txns,
                                uint64_t checkpoint_every,
                                uint32_t presplit_shards) {
  const std::string base =
      TraceCachePath(tc, warm_txns, measure_txns, checkpoint_every);
  const std::string trace_path = base + ".trace";
  const std::string meta_path = base + ".meta";
  const bool cache_enabled = std::getenv("LSS_BENCH_NO_CACHE") == nullptr;

  CachedTrace out;
  if (cache_enabled && LoadMeta(meta_path, presplit_shards, &out.gen) &&
      out.gen.trace.LoadFrom(trace_path) && !out.gen.trace.Empty()) {
    // The per-shard sub-traces ride in sibling files; a damaged or
    // missing one just forfeits the cached split (the replay re-splits
    // the main trace the same way).
    if (out.gen.presplit.shards == presplit_shards &&
        presplit_shards > 0) {
      out.gen.presplit.sub.resize(presplit_shards);
      for (uint32_t s = 0; s < presplit_shards; ++s) {
        if (!out.gen.presplit.sub[s].LoadFrom(ShardTracePath(base, s))) {
          out.gen.presplit = ShardedTrace();
          break;
        }
      }
    } else {
      out.gen.presplit = ShardedTrace();
    }
    out.from_cache = true;
    return out;
  }
  out.gen = tpcc::GenerateTpccTrace(tc, warm_txns, measure_txns,
                                    checkpoint_every, presplit_shards);
  if (cache_enabled) {
    // Best effort, and atomic against concurrent bench runs: write to a
    // pid-unique temp name, then rename into place (atomic on POSIX), so
    // a reader never sees a half-written cache file. The meta sidecar
    // lands last: a reader only trusts shard files its meta promises.
    const std::string suffix = "." + std::to_string(::getpid()) + ".tmp";
    const std::string trace_tmp = trace_path + suffix;
    const std::string meta_tmp = meta_path + suffix;
    bool ok = out.gen.trace.SaveTo(trace_tmp) &&
              std::rename(trace_tmp.c_str(), trace_path.c_str()) == 0;
    for (uint32_t s = 0; ok && s < out.gen.presplit.shards; ++s) {
      const std::string shard_path = ShardTracePath(base, s);
      const std::string shard_tmp = shard_path + suffix;
      ok = out.gen.presplit.sub[s].SaveTo(shard_tmp) &&
           std::rename(shard_tmp.c_str(), shard_path.c_str()) == 0;
      if (!ok) std::remove(shard_tmp.c_str());
    }
    if (ok && SaveMeta(meta_tmp, out.gen) &&
        std::rename(meta_tmp.c_str(), meta_path.c_str()) == 0) {
      return out;
    }
    std::remove(trace_tmp.c_str());
    std::remove(meta_tmp.c_str());
  }
  return out;
}

void Run() {
  using tpcc::TpccConfig;
  // Scaled-down TPC-C: ~4 warehouses of reduced cardinality at scale 1.
  // What the cleaning experiment needs is the write *pattern* (schema +
  // mix + cache ratio), not absolute size. LSS_BENCH_SCALE=N multiplies
  // the warehouse count (TPC-C's own scaling knob) as well as the
  // transaction counts, growing the database toward the paper's
  // 4 GB-cache regime; LSS_BENCH_THREADS=N replays over N shards.
  const uint32_t scale = bench::ScaleFactor();
  const uint32_t threads = BenchThreads();
  const bool smoke = SmokeMode();
  // The smoke database is too small to carve into many replay shards
  // (per-shard cleaner geometry would be invalid), so smoke caps the
  // replay at 2 shards.
  const uint32_t replay_shards = smoke ? std::min(threads, 2u) : threads;
  TpccConfig tc;
  tc.warehouses = smoke ? 2 : 4 * scale;
  tc.districts_per_warehouse = smoke ? 4 : 10;
  tc.customers_per_district = smoke ? 120 : 400;
  tc.items = smoke ? 500 : 5000;
  tc.orders_per_district = smoke ? 120 : 400;
  tc.seed = 17;

  const uint64_t warm_txns = smoke ? 1000 : 20000ull * scale;
  const uint64_t measure_txns = smoke ? 3000 : 80000ull * scale;

  // Pre-size the cache to ~10% of the database footprint: populate a
  // throwaway instance to learn the page count (no trace is collected
  // here).
  uint64_t db_pages;
  {
    tpcc::TpccDb probe(tc);
    probe.Populate();
    db_pages = probe.PageCount();
  }
  tc.buffer_pool_pages = std::max<size_t>(64, db_pages / 10);

  std::printf("Figure 6: TPC-C trace replay (%u warehouses, db ~%llu pages, "
              "cache %zu pages, %llu warm + %llu measured txns, "
              "%u thread%s)\n",
              tc.warehouses,
              static_cast<unsigned long long>(db_pages),
              tc.buffer_pool_pages,
              static_cast<unsigned long long>(warm_txns),
              static_cast<unsigned long long>(measure_txns),
              threads, threads == 1 ? "" : "s");

  // LSS_BENCH_CKPT_INTERVAL overrides the engine-checkpoint period
  // (transactions between dirty-page flushes during generation). It is
  // a generation parameter, so TraceCachePath mixes it into the cache
  // key and traces from different checkpoint settings never alias.
  const CachedTrace cached =
      GenerateOrLoadTrace(tc, warm_txns, measure_txns,
                          /*checkpoint_every=*/bench::CheckpointInterval(2000),
                          /*presplit_shards=*/replay_shards > 1
                              ? replay_shards
                              : 0);
  const tpcc::TpccTraceResult& gen = cached.gen;
  if (cached.from_cache) {
    std::printf("trace (cached): %zu page writes (%zu measured), db grew "
                "%llu -> %llu pages\n\n",
                gen.trace.Size(), gen.trace.Size() - gen.measure_from,
                static_cast<unsigned long long>(gen.pages_after_load),
                static_cast<unsigned long long>(gen.pages_final));
  } else {
    // "with 1 worker" stays in the line so its text matches the
    // committed outputs, made when the worker count could vary.
    std::printf("trace: %zu page writes (%zu measured), db grew %llu -> "
                "%llu pages, generated in %.2fs with 1 worker\n\n",
                gen.trace.Size(), gen.trace.Size() - gen.measure_from,
                static_cast<unsigned long long>(gen.pages_after_load),
                static_cast<unsigned long long>(gen.pages_final),
                gen.generation_seconds);
  }
  bench::Emit(bench::JsonRow("fig6_tpcc")
                  .Str("row", "generation")
                  .Num("threads", static_cast<uint64_t>(threads))
                  .Num("scale", static_cast<uint64_t>(scale))
                  .Num("warehouses", static_cast<uint64_t>(tc.warehouses))
                  .Num("trace_records", static_cast<uint64_t>(gen.trace.Size()))
                  .Num("pages_final", gen.pages_final)
                  .Num("from_cache", static_cast<uint64_t>(cached.from_cache))
                  .Num("generation_seconds", gen.generation_seconds)
                  .Num("pool_hits", gen.pool_hits)
                  .Num("pool_misses", gen.pool_misses)
                  .Num("pool_evictions", gen.pool_evictions)
                  .Num("pool_write_backs", gen.pool_write_backs)
                  .Num("presplit_shards",
                       static_cast<uint64_t>(gen.presplit.shards)));

  StoreConfig base;
  base.page_bytes = 4096;
  base.segment_bytes = 128 * 4096;
  base.clean_trigger_segments = 4;
  base.clean_batch_segments = 16;
  base.write_buffer_segments = 16;

  std::vector<std::string> headers = {"F"};
  std::vector<Variant> lines;
  for (Variant v : AllVariants()) {
    if (v == Variant::kMdcNoSepUser || v == Variant::kMdcNoSepUserGc) {
      continue;
    }
    lines.push_back(v);
    headers.push_back(VariantName(v));
  }
  TablePrinter table(headers);
  const std::vector<double> fills =
      smoke ? std::vector<double>{0.7}
            : std::vector<double>{0.5, 0.6, 0.7, 0.8};
  for (double f : fills) {
    // Device sized so the final database occupies F of the usable space.
    StoreConfig cfg = ScaleConfigForFill(
        base, gen.pages_final + bench::ReserveSegments(base) *
                                    base.PagesPerSegment() / 64,
        f);
    cfg.num_segments += bench::ReserveSegments(base);
    std::vector<TablePrinter::Cell> row;
    row.emplace_back(f, 2);
    for (Variant v : lines) {
      const RunResult r =
          RunTrace(cfg, v, gen.trace, gen.measure_from, replay_shards,
                   gen.presplit.Valid() ? &gen.presplit : nullptr);
      if (!r.status.ok()) {
        std::fprintf(stderr, "%s F=%.2f failed: %s\n", VariantName(v).c_str(),
                     f, r.status.ToString().c_str());
        row.emplace_back("err");
      } else {
        row.emplace_back(r.wamp, 3);
        bench::JsonRow json("fig6_tpcc");
        json.Str("workload", "tpcc")
            .Str("variant", r.variant)
            .Num("fill", f)
            .Num("wamp", r.wamp)
            .Num("mean_clean_emptiness", r.mean_clean_emptiness)
            .Num("measured_updates", r.measured_updates)
            .Num("effective_fill", r.effective_fill)
            .Num("threads", static_cast<uint64_t>(threads));
        if (replay_shards > 1) json.Num("replay_seconds", r.measure_seconds);
        bench::Emit(json);
      }
    }
    table.AddRow(std::move(row));
  }
  if (replay_shards > 1) {
    std::printf("replay: RunTrace over %u shards (per-page order "
                "preserved; Wamp is the per-shard-cleaned aggregate)\n\n",
                replay_shards);
  }
  table.Print(stdout);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}
