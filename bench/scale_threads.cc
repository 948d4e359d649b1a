// Thread-scaling sweep for the sharded store: the same uniform workload
// the paper's Table 1 uses, run through ShardedStore at 1/2/4/8 worker
// threads over a fixed shard count, reporting aggregate write throughput
// and the per-shard write-amplification spread.
//
// What to expect: write amplification is a property of the write pattern
// (paper §6.1.1 — device size does not affect Wamp), so the aggregate and
// per-shard Wamp should sit within a few percent of the single-threaded
// 1-shard baseline at every thread count — sharding must not
// change the *quality* of cleaning, only its parallelism. Throughput
// should scale with threads on multi-core hardware (shards > threads
// keeps routing collisions low); on a single core the sweep degenerates
// to a lock-overhead measurement.
//
// Environment:
//   LSS_BENCH_SCALE=N    multiply device size / run length (default 1)
//   LSS_BENCH_SHARDS=N   shard count (default 4)
//   LSS_BENCH_THREADS=a,b,c  thread counts to sweep (default 1,2,4,8)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace lss {
namespace {

std::vector<uint32_t> ThreadSweep() {
  const char* env = std::getenv("LSS_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return {1, 2, 4, 8};
  std::vector<uint32_t> out;
  const char* p = env;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v >= 1) out.push_back(static_cast<uint32_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out.empty() ? std::vector<uint32_t>{1, 2, 4, 8} : out;
}

uint32_t ShardCount() {
  const char* env = std::getenv("LSS_BENCH_SHARDS");
  if (env == nullptr) return 4;
  const long v = std::strtol(env, nullptr, 10);
  return v < 1 ? 4 : static_cast<uint32_t>(v);
}

void Run() {
  const StoreConfig cfg = bench::DefaultConfig();
  const uint32_t shards = ShardCount();
  const double fill = 0.75;
  const uint64_t user_pages = bench::UserPagesFor(cfg, fill);
  UniformWorkload workload(user_pages);
  RunSpec spec = bench::DefaultSpec(fill);
  spec.warmup_multiplier = 4;
  spec.measure_multiplier = 8;

  std::printf(
      "Thread scaling, uniform workload, MDC: %u shards, F=%.2f, "
      "%llu user pages (LSS_BENCH_SCALE=%u)\n\n",
      shards, fill, static_cast<unsigned long long>(user_pages),
      bench::ScaleFactor());

  // Single-threaded 1-shard baseline: the Wamp reference the
  // per-shard spread is judged against.
  const RunResult baseline = RunSynthetic(cfg, Variant::kMdc, workload, spec);
  if (!baseline.status.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 baseline.status.ToString().c_str());
    return;
  }
  std::printf("single-threaded baseline: Wamp %.4f, E %.3f\n\n", baseline.wamp,
              baseline.mean_clean_emptiness);

  TablePrinter table({"threads", "sec", "Mupd/s", "speedup", "Wamp",
                      "shard Wamp min", "shard Wamp max", "spread vs base"});
  double base_rate = 0.0;
  for (uint32_t threads : ThreadSweep()) {
    const RunResult r =
        RunSynthetic(cfg, Variant::kMdc, workload, spec, threads, shards);
    if (!r.status.ok()) {
      std::fprintf(stderr, "%u threads failed: %s\n", threads,
                   r.status.ToString().c_str());
      continue;
    }
    double wmin = r.shard_wamp.empty() ? 0.0 : r.shard_wamp[0];
    double wmax = wmin;
    for (double w : r.shard_wamp) {
      wmin = w < wmin ? w : wmin;
      wmax = w > wmax ? w : wmax;
    }
    // Worst per-shard deviation from the single-threaded baseline Wamp.
    double spread = 0.0;
    for (double w : r.shard_wamp) {
      const double dev =
          baseline.wamp > 0 ? std::abs(w - baseline.wamp) / baseline.wamp : 0.0;
      spread = dev > spread ? dev : spread;
    }
    if (base_rate == 0.0) base_rate = r.updates_per_second;
    std::vector<TablePrinter::Cell> row;
    row.emplace_back(static_cast<int>(threads));
    row.emplace_back(r.measure_seconds, 2);
    row.emplace_back(r.updates_per_second / 1e6, 3);
    row.emplace_back(base_rate > 0 ? r.updates_per_second / base_rate : 0.0, 2);
    row.emplace_back(r.wamp, 4);
    row.emplace_back(wmin, 4);
    row.emplace_back(wmax, 4);
    row.emplace_back(std::string(TablePrinter::Cell(100.0 * spread, 1).text) +
                     "%");
    table.AddRow(std::move(row));
    bench::Emit(bench::JsonRow("scale_threads")
                    .Num("threads", static_cast<uint64_t>(threads))
                    .Num("shards", static_cast<uint64_t>(shards))
                    .Num("measure_seconds", r.measure_seconds)
                    .Num("updates_per_second", r.updates_per_second)
                    .Num("wamp", r.wamp)
                    .Num("baseline_wamp", baseline.wamp)
                    .Num("shard_wamp_min", wmin)
                    .Num("shard_wamp_max", wmax)
                    .Num("spread_vs_baseline", spread));
  }
  table.Print(stdout);
  std::printf(
      "\nspeedup = throughput vs the first swept thread count;\n"
      "spread vs base = worst per-shard |Wamp - baseline| / baseline.\n");
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}
