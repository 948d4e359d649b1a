#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace lss {

namespace {

RunResult Fail(Status s, const std::string& variant, uint32_t threads,
               uint32_t shards) {
  RunResult r;
  r.status = std::move(s);
  r.variant = variant;
  r.threads = threads;
  r.shards = shards;
  return r;
}

// Fills the measured outcome of a finished run from the store's merged
// counters.
RunResult Finish(const ShardedStore& store, const std::string& variant,
                 uint32_t threads, double measure_seconds) {
  RunResult r;
  r.status = Status::OK();
  r.variant = variant;
  r.threads = threads;
  r.shards = store.num_shards();
  r.stats = store.AggregatedStats();
  r.wamp = r.stats.WriteAmplification();
  r.mean_clean_emptiness = r.stats.MeanCleanEmptiness();
  r.measured_updates = r.stats.user_updates;
  r.effective_fill = store.CurrentFillFactor();
  r.measure_seconds = measure_seconds;
  r.updates_per_second =
      measure_seconds > 0
          ? static_cast<double>(r.stats.user_updates) / measure_seconds
          : 0.0;
  r.shard_wamp = store.PerShardWriteAmplification();
  return r;
}

// Runs fn(thread_id) on `threads` workers and returns the first non-OK
// status. With one thread the call is inlined on the caller's thread, so
// a threads == 1 run has no scheduling nondeterminism at all.
Status RunOnThreads(uint32_t threads, const std::function<Status(uint32_t)>& fn) {
  if (threads <= 1) return fn(0);
  std::vector<Status> statuses(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&statuses, &fn, t] { statuses[t] = fn(t); });
  }
  for (std::thread& th : pool) th.join();
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

StoreConfig ScaleConfigForFill(const StoreConfig& base, uint64_t user_pages,
                               double f) {
  StoreConfig cfg = base;
  const uint64_t pages_per_seg = cfg.segment_bytes / cfg.page_bytes;
  const double phys_pages = static_cast<double>(user_pages) / f;
  cfg.num_segments = static_cast<uint32_t>(
      std::llround(phys_pages / static_cast<double>(pages_per_seg)));
  if (cfg.num_segments < 8) cfg.num_segments = 8;
  return cfg;
}

RunResult RunSynthetic(const StoreConfig& config, Variant variant,
                       const WorkloadGenerator& workload, const RunSpec& spec,
                       uint32_t threads, uint32_t shards) {
  const std::string label = VariantName(variant);
  if (threads < 1) threads = 1;
  if (shards == 0) shards = threads;
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = ShardedStore::Create(
      cfg, shards, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) return Fail(status, label, threads, shards);

  if (VariantNeedsOracle(variant)) {
    store->SetExactFrequencyOracle(
        [&workload](PageId p) { return workload.ExactFrequency(p); });
  }

  // Fill-factor sizing uses the *effective* device: Create drops the
  // division remainder, so num_segments/shards*shards, not num_segments.
  const uint64_t device_pages =
      static_cast<uint64_t>(store->shard_config().num_segments) * shards *
      store->shard_config().PagesPerSegment();
  const uint64_t user_pages = std::min<uint64_t>(
      workload.NumPages(),
      static_cast<uint64_t>(spec.fill_factor *
                            static_cast<double>(device_pages)));
  if (user_pages < workload.NumPages()) {
    return Fail(Status::InvalidArgument(
                    "device too small for workload at this fill factor"),
                label, threads, shards);
  }

  // One RNG stream per thread; thread 0 uses the spec seed unchanged.
  std::vector<Rng> rngs;
  rngs.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    rngs.emplace_back(spec.seed + t * 0x9E3779B97F4A7C15ull);
  }

  // Load phase: first write of every page, contiguous ranges per thread.
  Status s = RunOnThreads(threads, [&](uint32_t t) -> Status {
    const PageId begin = user_pages * t / threads;
    const PageId end = user_pages * (t + 1) / threads;
    for (PageId p = begin; p < end; ++p) {
      Status st = store->Write(p);
      if (!st.ok()) return st;
    }
    return Status::OK();
  });
  if (!s.ok()) return Fail(s, label, threads, shards);

  auto update_phase = [&](uint64_t total) {
    return RunOnThreads(threads, [&](uint32_t t) -> Status {
      const uint64_t begin = total * t / threads;
      const uint64_t end = total * (t + 1) / threads;
      Rng& rng = rngs[t];
      for (uint64_t i = begin; i < end; ++i) {
        Status st = store->Write(workload.NextPage(rng));
        if (!st.ok()) return st;
      }
      return Status::OK();
    });
  };

  const uint64_t warm = static_cast<uint64_t>(
      spec.warmup_multiplier * static_cast<double>(user_pages));
  s = update_phase(warm);
  if (!s.ok()) return Fail(s, label, threads, shards);

  store->ResetMeasurement();
  const uint64_t measure = static_cast<uint64_t>(
      spec.measure_multiplier * static_cast<double>(user_pages));
  const auto t0 = std::chrono::steady_clock::now();
  s = update_phase(measure);
  const auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) return Fail(s, label, threads, shards);

  return Finish(*store, label, threads,
                std::chrono::duration<double>(t1 - t0).count());
}

Status ReplayTraceParallel(ShardedStore* store, const Trace& trace,
                           size_t measure_from, double* measure_seconds_out,
                           const ShardedTrace* presplit) {
  const uint32_t shards = store->num_shards();
  // Each shard's record stream and its measurement boundary. One shard
  // replays the trace itself; more shards replay per-shard sub-traces.
  std::vector<const std::vector<TraceRecord>*> streams(shards);
  std::vector<size_t> boundaries(shards);
  ShardedTrace split;
  if (shards == 1) {
    streams[0] = &trace.records();
    boundaries[0] = std::min(measure_from, trace.Size());
  } else {
    if (presplit == nullptr || !presplit->Valid() ||
        presplit->shards != shards) {
      split = SplitTrace(trace, measure_from, shards);
      presplit = &split;
    }
    for (uint32_t s = 0; s < shards; ++s) {
      streams[s] = &presplit->sub[s].records();
      boundaries[s] = std::min(presplit->measure_from[s], streams[s]->size());
    }
  }

  // A barrier at the measurement boundary: every shard finishes its
  // warm-up records, the last arrival stamps t0, then all shards reset
  // their counters and apply their measured suffix.
  std::mutex mu;
  std::condition_variable cv;
  uint32_t arrived = 0;
  std::chrono::steady_clock::time_point t0{};

  auto replay_shard = [&](uint32_t s) -> Status {
    const std::vector<TraceRecord>& recs = *streams[s];
    auto apply = [&](size_t begin, size_t end) -> Status {
      for (size_t i = begin; i < end; ++i) {
        const TraceRecord& rec = recs[i];
        Status r;
        if (rec.op == TraceRecord::Op::kWrite) {
          r = store->Write(rec.page, rec.bytes);
        } else {
          r = store->Delete(rec.page);
          if (r.code() == Status::Code::kNotFound) r = Status::OK();
        }
        if (!r.ok()) return r;
      }
      return Status::OK();
    };
    Status st = apply(0, boundaries[s]);
    {
      // Always arrive, even after a failure — a missing arrival would
      // deadlock the other shards.
      std::unique_lock<std::mutex> lk(mu);
      if (++arrived == shards) {
        t0 = std::chrono::steady_clock::now();
        cv.notify_all();
      } else {
        cv.wait(lk, [&] { return arrived == shards; });
      }
    }
    store->WithShardLocked(s,
                           [](StoreShard& shard) { shard.ResetMeasurement(); });
    if (st.ok()) st = apply(boundaries[s], recs.size());
    return st;
  };

  const Status s = RunOnThreads(shards, replay_shard);
  if (measure_seconds_out != nullptr) {
    *measure_seconds_out =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return s;
}

RunResult RunTrace(const StoreConfig& config, Variant variant,
                   const Trace& trace, size_t measure_from, uint32_t shards,
                   const ShardedTrace* presplit) {
  const std::string label = VariantName(variant);
  if (shards < 1) shards = 1;
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = ShardedStore::Create(
      cfg, shards, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) return Fail(status, label, shards, shards);

  if (VariantNeedsOracle(variant)) {
    std::vector<double> freqs =
        trace.ComputeExactFrequencies(measure_from, trace.Size());
    store->SetExactFrequencyOracle([freqs = std::move(freqs)](PageId p) {
      return p < freqs.size() ? freqs[p] : 1.0;
    });
  }

  double measure_seconds = 0.0;
  Status s = ReplayTraceParallel(store.get(), trace, measure_from,
                                 &measure_seconds, presplit);
  if (!s.ok()) return Fail(s, label, shards, shards);
  return Finish(*store, label, shards, measure_seconds);
}

}  // namespace lss
