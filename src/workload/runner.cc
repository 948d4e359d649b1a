#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace lss {

namespace {

RunResult Fail(Status s, const std::string& variant) {
  RunResult r;
  r.status = std::move(s);
  r.variant = variant;
  return r;
}

void FillDeviceMetrics(const StoreStats& stats, RunResult* r) {
  r->device_bytes_written = stats.device_bytes_written;
  r->device_bytes_per_user_byte = stats.DeviceBytesPerUserByte();
  r->device_fsyncs = stats.device_fsyncs;
  r->backend_blocking_seconds = stats.BackendBlockingSeconds();
  r->uring_available = stats.uring_available;
  r->uring_submitted = stats.uring_submitted;
  r->group_fsyncs = stats.group_fsyncs;
  r->seal_queue_stalls = stats.seal_queue_stalls;
  r->checkpoints_written = stats.checkpoints_written;
  r->checkpoint_rounds = stats.checkpoint_rounds;
  r->checkpoint_full_records = stats.checkpoint_full_records;
  r->checkpoint_delta_records = stats.checkpoint_delta_records;
  r->checkpoint_bytes_written = stats.checkpoint_bytes_written;
  r->withheld_slot_reuses_rehomed = stats.withheld_slot_reuses_rehomed;
  r->withheld_slot_reuses_plain = stats.withheld_slot_reuses_plain;
  r->segments_sealed = stats.user_segments_sealed + stats.gc_segments_sealed;
  r->segments_cleaned = stats.segments_cleaned;
  r->rehome_entries_written = stats.rehome_entries_written;
}

ParallelRunResult FailParallel(Status s, const std::string& variant,
                               uint32_t threads, uint32_t shards) {
  ParallelRunResult r;
  r.result = Fail(std::move(s), variant);
  r.threads = threads;
  r.shards = shards;
  return r;
}

// One shard's replay feed: a bounded FIFO of record batches with a
// single producer (the router) and a single consumer (the shard's
// replay thread). Bounded so the router cannot run arbitrarily far
// ahead of a slow shard (backpressure), batched so the lock is paid
// once per kBatchRecords rather than once per record.
class ReplayQueue {
 public:
  static constexpr size_t kBatchRecords = 256;
  static constexpr size_t kMaxBatches = 16;

  struct Batch {
    // Reset the shard's measurement counters before applying `recs`
    // (the router injects this exactly at the measure_from boundary).
    bool reset_before = false;
    std::vector<TraceRecord> recs;
  };

  void Push(Batch&& b) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [this] { return q_.size() < kMaxBatches; });
    q_.push_back(std::move(b));
    cv_data_.notify_one();
  }

  void Close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_data_.notify_one();
  }

  // False once the queue is closed and drained.
  bool Pop(Batch* out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_data_.wait(lk, [this] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    cv_space_.notify_one();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_data_;
  std::condition_variable cv_space_;
  std::deque<Batch> q_;
  bool closed_ = false;
};

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
                       const WorkloadGenerator& workload,
                       const RunSpec& spec) {
  const std::string label = VariantName(variant);
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = LogStructuredStore::Create(cfg, MakePolicy(variant), &status);
  if (store == nullptr) return Fail(status, label);

  if (VariantNeedsOracle(variant)) {
    store->SetExactFrequencyOracle(
        [&workload](PageId p) { return workload.ExactFrequency(p); });
  }

  const uint64_t user_pages = std::min<uint64_t>(
      workload.NumPages(),
      cfg.UserPagesForFillFactor(spec.fill_factor));
  if (user_pages < workload.NumPages()) {
    return Fail(Status::InvalidArgument(
                    "device too small for workload at this fill factor"),
                label);
  }

  Rng rng(spec.seed);

  // Load phase: first write of every page.
  for (PageId p = 0; p < user_pages; ++p) {
    Status s = store->Write(p);
    if (!s.ok()) return Fail(s, label);
  }

  const uint64_t warm = static_cast<uint64_t>(
      spec.warmup_multiplier * static_cast<double>(user_pages));
  for (uint64_t i = 0; i < warm; ++i) {
    Status s = store->Write(workload.NextPage(rng));
    if (!s.ok()) return Fail(s, label);
  }

  store->ResetMeasurement();
  const uint64_t measure = static_cast<uint64_t>(
      spec.measure_multiplier * static_cast<double>(user_pages));
  for (uint64_t i = 0; i < measure; ++i) {
    Status s = store->Write(workload.NextPage(rng));
    if (!s.ok()) return Fail(s, label);
  }

  // Snapshot, not stats(): with async_seal the device counters live on
  // the I/O thread until merged.
  const StoreStats stats = store->StatsSnapshot();
  RunResult r;
  r.status = Status::OK();
  r.variant = label;
  r.wamp = stats.WriteAmplification();
  r.mean_clean_emptiness = stats.MeanCleanEmptiness();
  r.measured_updates = stats.user_updates;
  r.effective_fill = store->CurrentFillFactor();
  FillDeviceMetrics(stats, &r);
  return r;
}

ParallelRunResult RunSyntheticParallel(const StoreConfig& config,
                                       Variant variant,
                                       const WorkloadGenerator& workload,
                                       const RunSpec& spec, uint32_t threads,
                                       uint32_t shards) {
  const std::string label = VariantName(variant);
  if (threads < 1) threads = 1;
  if (shards == 0) shards = threads;
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = ShardedStore::Create(
      cfg, shards, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) return FailParallel(status, label, threads, shards);

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
    return FailParallel(Status::InvalidArgument(
                            "device too small for workload at this fill factor"),
                        label, threads, shards);
  }

  // One RNG stream per thread; thread 0 uses the spec seed unchanged so a
  // 1-thread run draws the exact sequence RunSynthetic would.
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
  if (!s.ok()) return FailParallel(s, label, threads, shards);

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
  if (!s.ok()) return FailParallel(s, label, threads, shards);

  store->ResetMeasurement();
  const uint64_t measure = static_cast<uint64_t>(
      spec.measure_multiplier * static_cast<double>(user_pages));
  const auto t0 = std::chrono::steady_clock::now();
  s = update_phase(measure);
  const auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) return FailParallel(s, label, threads, shards);

  const StoreStats total = store->AggregatedStats();
  ParallelRunResult pr;
  pr.threads = threads;
  pr.shards = shards;
  pr.measure_seconds = std::chrono::duration<double>(t1 - t0).count();
  pr.updates_per_second =
      pr.measure_seconds > 0
          ? static_cast<double>(total.user_updates) / pr.measure_seconds
          : 0.0;
  pr.shard_wamp = store->PerShardWriteAmplification();
  pr.result.status = Status::OK();
  pr.result.variant = label;
  pr.result.wamp = total.WriteAmplification();
  pr.result.mean_clean_emptiness = total.MeanCleanEmptiness();
  pr.result.measured_updates = total.user_updates;
  pr.result.effective_fill = store->CurrentFillFactor();
  FillDeviceMetrics(total, &pr.result);
  return pr;
}

RunResult RunTrace(const StoreConfig& config, Variant variant,
                   const Trace& trace, size_t measure_from) {
  const std::string label = VariantName(variant);
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = LogStructuredStore::Create(cfg, MakePolicy(variant), &status);
  if (store == nullptr) return Fail(status, label);

  std::vector<double> freqs;
  if (VariantNeedsOracle(variant)) {
    freqs = trace.ComputeExactFrequencies(measure_from, trace.Size());
    store->SetExactFrequencyOracle([freqs = std::move(freqs)](PageId p) {
      return p < freqs.size() ? freqs[p] : 1.0;
    });
  }

  const auto& recs = trace.records();
  measure_from = std::min(measure_from, recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i == measure_from) store->ResetMeasurement();
    const TraceRecord& rec = recs[i];
    Status s;
    if (rec.op == TraceRecord::Op::kWrite) {
      s = store->Write(rec.page, rec.bytes);
    } else {
      s = store->Delete(rec.page);
      if (s.code() == Status::Code::kNotFound) s = Status::OK();
    }
    if (!s.ok()) return Fail(s, label);
  }

  const StoreStats stats = store->StatsSnapshot();
  RunResult r;
  r.status = Status::OK();
  r.variant = label;
  r.wamp = stats.WriteAmplification();
  r.mean_clean_emptiness = stats.MeanCleanEmptiness();
  r.measured_updates = stats.user_updates;
  r.effective_fill = store->CurrentFillFactor();
  FillDeviceMetrics(stats, &r);
  return r;
}

namespace {

// Zero-router fast path: each shard thread streams its pre-split
// sub-trace. A barrier at the measurement boundary replaces the router's
// in-band reset markers: every shard finishes its warm-up records, the
// last arrival stamps t0, then all shards reset counters and apply their
// measured suffix. Per-shard record subsequences are exactly the
// router's, so stats and final state match it bit-for-bit.
Status ReplayPresplitParallel(ShardedStore* store, const ShardedTrace& st,
                              double* measure_seconds_out) {
  const uint32_t shards = store->num_shards();
  std::vector<Status> statuses(shards);
  std::mutex mu;
  std::condition_variable cv;
  uint32_t arrived = 0;
  std::chrono::steady_clock::time_point t0{};

  auto shard_fn = [&](uint32_t s) {
    const auto& recs = st.sub[s].records();
    const size_t boundary = std::min(st.measure_from[s], recs.size());
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
    statuses[s] = apply(0, boundary);
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
    if (statuses[s].ok()) statuses[s] = apply(boundary, recs.size());
  };

  Status s = RunOnThreads(shards, [&](uint32_t t) -> Status {
    shard_fn(t);
    return Status::OK();
  });
  (void)s;
  if (measure_seconds_out != nullptr) {
    *measure_seconds_out =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  for (const Status& st_s : statuses) {
    if (!st_s.ok()) return st_s;
  }
  return Status::OK();
}

}  // namespace

Status ReplayTraceParallel(ShardedStore* store, const Trace& trace,
                           size_t measure_from,
                           double* measure_seconds_out,
                           const ShardedTrace* presplit) {
  const uint32_t shards = store->num_shards();
  if (presplit != nullptr && presplit->Valid() && presplit->shards == shards) {
    return ReplayPresplitParallel(store, *presplit, measure_seconds_out);
  }
  const auto& recs = trace.records();
  measure_from = std::min(measure_from, recs.size());

  std::vector<ReplayQueue> queues(shards);
  std::vector<Status> statuses(shards);
  std::atomic<bool> failed{false};

  // One replay thread per shard: applies its queue's batches in FIFO
  // order. On a store error it keeps draining (so the router never
  // blocks on a full queue) but stops applying.
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s] {
      ReplayQueue::Batch batch;
      while (queues[s].Pop(&batch)) {
        if (batch.reset_before) {
          store->WithShardLocked(
              s, [](StoreShard& shard) { shard.ResetMeasurement(); });
        }
        if (failed.load(std::memory_order_relaxed)) continue;
        for (const TraceRecord& rec : batch.recs) {
          Status st;
          if (rec.op == TraceRecord::Op::kWrite) {
            st = store->Write(rec.page, rec.bytes);
          } else {
            st = store->Delete(rec.page);
            if (st.code() == Status::Code::kNotFound) st = Status::OK();
          }
          if (!st.ok()) {
            statuses[s] = st;
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  // The router: walk the trace in order, stage each record for its
  // owning shard, flush batches as they fill. Per-shard FIFO + a single
  // router = per-page order preserved.
  std::vector<ReplayQueue::Batch> staging(shards);
  auto flush = [&](uint32_t s) {
    if (staging[s].recs.empty() && !staging[s].reset_before) return;
    queues[s].Push(std::move(staging[s]));
    staging[s] = ReplayQueue::Batch();
  };

  std::chrono::steady_clock::time_point t0{};
  bool boundary_reached = false;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i == measure_from) {
      // Boundary: everything staged so far precedes the marker, and the
      // marker reaches every shard even if no further record routes to
      // it.
      for (uint32_t s = 0; s < shards; ++s) {
        flush(s);
        staging[s].reset_before = true;
        flush(s);
      }
      t0 = std::chrono::steady_clock::now();
      boundary_reached = true;
    }
    if (failed.load(std::memory_order_relaxed)) break;
    const uint32_t s = PageShard(recs[i].page, shards);
    staging[s].recs.push_back(recs[i]);
    if (staging[s].recs.size() >= ReplayQueue::kBatchRecords) flush(s);
  }
  for (uint32_t s = 0; s < shards; ++s) {
    if (measure_from == recs.size()) {
      // Degenerate boundary at end-of-trace: still deliver the reset.
      flush(s);
      staging[s].reset_before = true;
    }
    flush(s);
    queues[s].Close();
  }
  if (measure_from == recs.size()) {
    t0 = std::chrono::steady_clock::now();
    boundary_reached = true;
  }
  for (std::thread& th : workers) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (measure_seconds_out != nullptr) {
    // 0 when a failure stopped the router before the boundary — never
    // the garbage a default-constructed t0 would produce.
    *measure_seconds_out =
        boundary_reached ? std::chrono::duration<double>(t1 - t0).count()
                         : 0.0;
  }

  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

ParallelRunResult RunTraceParallel(const StoreConfig& config, Variant variant,
                                   const Trace& trace, size_t measure_from,
                                   uint32_t shards,
                                   const ShardedTrace* presplit) {
  const std::string label = VariantName(variant);
  if (shards < 1) shards = 1;
  StoreConfig cfg = config;
  ApplyVariantConfig(variant, &cfg);

  Status status;
  auto store = ShardedStore::Create(
      cfg, shards, [variant] { return MakePolicy(variant); }, &status);
  if (store == nullptr) return FailParallel(status, label, shards, shards);

  std::vector<double> freqs;
  if (VariantNeedsOracle(variant)) {
    freqs = trace.ComputeExactFrequencies(measure_from, trace.Size());
    store->SetExactFrequencyOracle([freqs = std::move(freqs)](PageId p) {
      return p < freqs.size() ? freqs[p] : 1.0;
    });
  }

  double measure_seconds = 0.0;
  Status s = ReplayTraceParallel(store.get(), trace, measure_from,
                                 &measure_seconds, presplit);
  if (!s.ok()) return FailParallel(s, label, shards, shards);

  const StoreStats total = store->AggregatedStats();
  ParallelRunResult pr;
  pr.threads = shards;
  pr.shards = shards;
  pr.measure_seconds = measure_seconds;
  pr.updates_per_second =
      pr.measure_seconds > 0
          ? static_cast<double>(total.user_updates) / pr.measure_seconds
          : 0.0;
  pr.shard_wamp = store->PerShardWriteAmplification();
  pr.result.status = Status::OK();
  pr.result.variant = label;
  pr.result.wamp = total.WriteAmplification();
  pr.result.mean_clean_emptiness = total.MeanCleanEmptiness();
  pr.result.measured_updates = total.user_updates;
  pr.result.effective_fill = store->CurrentFillFactor();
  FillDeviceMetrics(total, &pr.result);
  return pr;
}

}  // namespace lss
