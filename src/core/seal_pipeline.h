#ifndef LSS_CORE_SEAL_PIPELINE_H_
#define LSS_CORE_SEAL_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/io_backend.h"
#include "core/stats.h"
#include "core/types.h"

namespace lss {

/// The per-shard emission seam: every backend op a shard emits goes
/// through Enqueue and one Apply, whichever executor runs it. The inline
/// executor (StoreConfig::async_seal off) applies the op on the caller's
/// thread inside Enqueue, leaves the backend in per-operation sync mode
/// and calls Sync() only when a barrier (Drain) asks. The threaded one
/// (async_seal on) is a bounded queue drained by one I/O thread, so a
/// writer hands off a sealed-in-memory segment and continues while the
/// payload write, metadata append and fsync happen off the write path.
/// Either way the backend observes the same op sequence (Sync aside).
///
/// Ordering. Ops apply strictly in enqueue order. That carries the
/// shard's crash-ordering invariant — a victim's free record is emitted
/// only after the seals/checkpoints holding its relocated pages — from
/// call order into queue order.
///
/// Group commit (threaded). The backend runs in deferred-sync mode
/// (SegmentBackend::SetDeferredSync) and the I/O thread calls Sync() once
/// per drained batch: one fsync pair covers every seal, checkpoint and
/// delete queued since the last — classic group commit. With
/// backend_fsync off the Sync() is a metadata no-op but still releases
/// deferred hole punches.
///
/// applied_ advances only once the batch is fully durable, so
/// WaitApplied means a waited-on seal's bytes are on the device,
/// readable by the concurrent ReadPagePayload path.
///
/// Threading. Enqueue / WaitApplied / Drain / Shutdown are called by the
/// shard's owner thread (under the shard lock in a ShardedStore); the
/// I/O thread touches only the backend, the queue, and its own stats
/// block — never shard state — so it takes no shard lock and cannot
/// deadlock against one. A backend failure is sticky: the inline executor
/// reports it from the failing Enqueue, the threaded one on the next
/// Enqueue / WaitApplied / Shutdown, the way an asynchronous group
/// commit acknowledges errors late.
class SealPipeline {
 public:
  struct Op {
    enum class Kind : uint8_t { kSeal, kCheckpoint, kCheckpointDelta,
                                kReclaim, kDelete, kRehome };
    Kind kind = Kind::kSeal;
    /// kSeal / kCheckpoint / kCheckpointDelta / kRehome: the full
    /// durable record (for kCheckpointDelta only the suffix entries and
    /// range; for kRehome the backend writes metadata only and syncs
    /// internally — the record must be durable before the shard's next
    /// seal of the reused slot, which queue order alone would not
    /// guarantee within a group-commit batch).
    BackendSegmentRecord record;
    /// kReclaim: the freed segment.
    SegmentId segment = kInvalidSegment;
    /// kDelete: the tombstoned page and its append sequence.
    PageId page = kInvalidPage;
    uint64_t seq = 0;
    /// kReclaim / kDelete: shard clock at emission.
    UpdateCount unow = 0;
  };

  enum class Executor : uint8_t { kInline, kThreaded };

  /// `backend` must outlive the pipeline. Between Start() and Shutdown()
  /// the executor owns every mutating backend call; concurrent
  /// ReadPagePayload from the shard's thread is allowed (reads are
  /// stateless on all backends). Threaded only: `queue_depth` bounds the
  /// queue, `count_fsyncs` (StoreConfig::backend_fsync) gates the
  /// group-fsync counters.
  SealPipeline(SegmentBackend* backend, Executor executor,
               uint32_t queue_depth, bool count_fsyncs);
  ~SealPipeline();

  SealPipeline(const SealPipeline&) = delete;
  SealPipeline& operator=(const SealPipeline&) = delete;

  /// Threaded: switches the backend to deferred sync and starts the I/O
  /// thread. Call after SegmentBackend::Open (and Scan, when recovering).
  void Start();

  /// Returns the op's 1-based ticket, or 0 when rejected (see error()).
  /// Inline the op is applied before return and a failing op is itself
  /// rejected; threaded, this blocks while the queue is full.
  uint64_t Enqueue(Op op);

  /// Last ticket fully applied (threaded: and covered by a group sync).
  uint64_t applied_ticket() const;

  /// Blocks until `ticket` has been applied (inline: never); returns the
  /// sticky error if the pipeline died instead.
  Status WaitApplied(uint64_t ticket) const;

  /// Durable barrier over every op enqueued so far: threaded, waits out
  /// the queue (batches end in a group sync); inline, one backend Sync().
  Status Drain();

  /// Drains the queue and joins the I/O thread (threaded). Idempotent;
  /// Enqueue is rejected afterwards. Returns the sticky error.
  Status Shutdown();

  /// The sticky backend error (OK while healthy).
  Status error() const;

  /// Lock-free "error() is not OK" for per-op checks on the write path.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Stats sink to hand to SegmentBackend::Open: the backend's device_*
  /// counters live with the pipeline in both executors.
  StoreStats* backend_stats() { return &backend_stats_; }

  /// device_* and checkpoint-record counters, plus (threaded
  /// only) seal_queue_* and group_fsync*. Threaded, a snapshot published
  /// once per batch; inline, read directly by the owner thread.
  StoreStats StatsSnapshot() const;

  /// Waits out the queue, then zeroes the counters (the wait makes the
  /// zeroing race-free: an idle I/O thread does not touch its stats).
  /// Returns the sticky error if waiting failed.
  Status ResetStats();

 private:
  /// Applies one op and counts checkpoint records; both executors.
  Status Apply(const Op& op);
  void ThreadMain();
  Status WaitIdle() const;           // every ticket handed out applied
  void SetError(const Status& s);    // first failure wins; holds mu_

  SegmentBackend* backend_;
  const Executor executor_;
  const uint32_t queue_depth_;
  const bool count_fsyncs_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;           // wakes the I/O thread
  mutable std::condition_variable done_cv_;   // wakes producers and waiters
  std::deque<Op> queue_;
  uint64_t enqueued_ = 0;  // tickets handed out
  uint64_t applied_ = 0;   // tickets applied (+synced); == enqueued_ when idle
  bool stop_ = false;
  bool started_ = false;
  Status error_;
  std::atomic<bool> failed_{false};  // !error_.ok(), readable without mu_
  std::thread thread_;
  uint64_t queue_enqueued_ = 0;  // threaded seal_queue_* counters
  uint64_t queue_stalls_ = 0;

  /// Written by Apply (and SegmentBackend::Open before Start); threaded,
  /// published to published_stats_ under stats_mu_ after each batch so
  /// snapshots never race the backend.
  StoreStats backend_stats_;
  mutable std::mutex stats_mu_;
  StoreStats published_stats_;
};

}  // namespace lss

#endif  // LSS_CORE_SEAL_PIPELINE_H_
