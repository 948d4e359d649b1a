#include "core/seal_pipeline.h"

#include <utility>
#include <vector>

namespace lss {

SealPipeline::SealPipeline(SegmentBackend* backend, Executor executor,
                           uint32_t queue_depth, bool count_fsyncs)
    : backend_(backend),
      executor_(executor),
      queue_depth_(queue_depth < 1 ? 1 : queue_depth),
      count_fsyncs_(count_fsyncs) {}

SealPipeline::~SealPipeline() { Shutdown(); }

void SealPipeline::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  if (executor_ == Executor::kInline) return;
  {
    // Publish what Open/Scan already accumulated (the geometry record,
    // recovery device counters) — a snapshot taken before the first
    // batch must not read as "no backend activity".
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    published_stats_ = backend_stats_;
  }
  backend_->SetDeferredSync(true);
  thread_ = std::thread([this] { ThreadMain(); });
}

uint64_t SealPipeline::Enqueue(Op op) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_ || stop_ || !error_.ok()) return 0;
  if (executor_ == Executor::kInline) {
    const Status s = Apply(op);
    applied_ = ++enqueued_;
    if (!s.ok()) {
      SetError(s);
      return 0;
    }
    return enqueued_;
  }
  if (queue_.size() >= queue_depth_) {
    ++queue_stalls_;
    done_cv_.wait(lock, [this] {
      return queue_.size() < queue_depth_ || stop_ || !error_.ok();
    });
    if (stop_ || !error_.ok()) return 0;
  }
  queue_.push_back(std::move(op));
  ++queue_enqueued_;
  const uint64_t ticket = ++enqueued_;
  work_cv_.notify_one();
  return ticket;
}

uint64_t SealPipeline::applied_ticket() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

Status SealPipeline::WaitApplied(uint64_t ticket) const {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, ticket] {
    return applied_ >= ticket || !error_.ok();
  });
  return error_;
}

Status SealPipeline::WaitIdle() const {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = enqueued_;
  done_cv_.wait(lock, [this, target] {
    return applied_ >= target || !error_.ok();
  });
  return error_;
}

Status SealPipeline::Drain() {
  Status s = WaitIdle();
  if (executor_ == Executor::kThreaded || !s.ok()) return s;
  // Inline: every op is applied already; the barrier is the one sync the
  // I/O thread would have issued at the end of its batch.
  std::lock_guard<std::mutex> lock(mu_);
  s = backend_->Sync();
  if (!s.ok()) SetError(s);
  return s;
}

Status SealPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_one();
    done_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  return error();
}

Status SealPipeline::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void SealPipeline::SetError(const Status& s) {
  if (!error_.ok()) return;
  error_ = s;
  failed_.store(true, std::memory_order_release);
}

StoreStats SealPipeline::StatsSnapshot() const {
  // Inline: Apply ran on the caller's thread, which is reading now.
  if (executor_ == Executor::kInline) return backend_stats_;
  StoreStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = published_stats_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.seal_queue_enqueued = queue_enqueued_;
  s.seal_queue_stalls = queue_stalls_;
  return s;
}

Status SealPipeline::ResetStats() {
  Status s = WaitIdle();
  // The I/O thread is idle (or dead) now and only touches its stats
  // while applying ops, which only this owner thread can enqueue.
  backend_stats_.ResetMeasurement();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    published_stats_.ResetMeasurement();
  }
  std::lock_guard<std::mutex> lock(mu_);
  queue_enqueued_ = 0;
  queue_stalls_ = 0;
  return s;
}

Status SealPipeline::Apply(const Op& op) {
  Status s;
  switch (op.kind) {
    case Op::Kind::kSeal:
      return backend_->SealSegment(op.record);
    case Op::Kind::kCheckpoint:
      s = backend_->Checkpoint(op.record);
      if (s.ok()) {
        ++backend_stats_.checkpoints_written;
        ++backend_stats_.checkpoint_full_records;
      }
      return s;
    case Op::Kind::kCheckpointDelta:
      s = backend_->CheckpointDelta(op.record);
      if (s.ok()) {
        ++backend_stats_.checkpoints_written;
        ++backend_stats_.checkpoint_delta_records;
      }
      return s;
    case Op::Kind::kReclaim:
      return backend_->ReclaimSegment(op.segment, op.unow);
    case Op::Kind::kDelete:
      return backend_->RecordDelete(op.page, op.seq, op.unow);
    case Op::Kind::kRehome:
      // The backend syncs internally: the record is durable before the
      // next op (the reused slot's seal) runs, even mid-batch.
      return backend_->RehomeEntries(op.record);
  }
  return Status::InvalidArgument("unknown seal pipeline op");
}

void SealPipeline::ThreadMain() {
  std::vector<Op> batch;
  for (;;) {
    batch.clear();
    bool dead;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing left to drain
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      dead = !error_.ok();
      done_cv_.notify_all();  // backpressured producers may refill
    }

    Status s = Status::OK();
    if (!dead) {
      // Apply in queue order — the order carries the crash-ordering
      // invariants, so a failure must stop the batch, not skip over.
      for (const Op& op : batch) {
        s = Apply(op);
        if (!s.ok()) break;
      }
      // Group commit: one sync covers the whole batch (and releases the
      // hole punches that were waiting on durability).
      if (s.ok()) {
        s = backend_->Sync();
        if (s.ok() && count_fsyncs_) {
          ++backend_stats_.group_fsyncs;
          backend_stats_.group_fsync_ops += batch.size();
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      published_stats_ = backend_stats_;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Tickets advance even past a failure so waiters wake; the sticky
      // error, not the ticket count, is the source of truth then.
      applied_ += batch.size();
      if (!s.ok()) SetError(s);
      done_cv_.notify_all();
    }
  }
}

}  // namespace lss
