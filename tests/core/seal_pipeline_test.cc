#include "core/seal_pipeline.h"

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace lss {
namespace {

using Executor = SealPipeline::Executor;
using Kind = SealPipeline::Op::Kind;

// One mutating backend call as the backend saw it. `key` is the segment
// id, or the page id for a delete. `entries` is the number of segment
// entries the record covers: for a delta checkpoint that is prefix +
// suffix, because the suffix alone depends on when the durable watermark
// committed, which the I/O thread's timing decides.
struct LoggedOp {
  Kind kind;
  uint64_t key;
  uint64_t entries;
  bool operator==(const LoggedOp& o) const {
    return std::tie(kind, key, entries) == std::tie(o.kind, o.key, o.entries);
  }
};

std::ostream& operator<<(std::ostream& os, const LoggedOp& op) {
  return os << "{kind " << static_cast<int>(op.kind) << ", key " << op.key
            << ", entries " << op.entries << "}";
}

// Logs every mutating call (Sync excluded; it is counted separately) and
// forwards it to a NullBackend. The log is written by whichever thread
// applies the ops and read by the test only after a Drain/Shutdown/Close,
// which orders the two. Optionally fails the n-th (1-based) logged op.
class RecordingBackend : public NullBackend {
 public:
  explicit RecordingBackend(std::vector<LoggedOp>* log) : log_(log) {}

  void FailOp(size_t n) { fail_at_ = n; }
  int syncs() const { return syncs_; }
  bool deferred_sync() const { return deferred_sync_; }

  Status SealSegment(const BackendSegmentRecord& r) override {
    return Log(Kind::kSeal, r.id, r.entries.size());
  }
  Status Checkpoint(const BackendSegmentRecord& r) override {
    return Log(Kind::kCheckpoint, r.id, r.entries.size());
  }
  Status CheckpointDelta(const BackendSegmentRecord& r) override {
    return Log(Kind::kCheckpointDelta, r.id,
               r.prefix_entries + r.entries.size());
  }
  Status RehomeEntries(const BackendSegmentRecord& r) override {
    return Log(Kind::kRehome, r.id, r.entries.size());
  }
  Status ReclaimSegment(SegmentId id, UpdateCount) override {
    return Log(Kind::kReclaim, id, 0);
  }
  Status RecordDelete(PageId page, uint64_t, UpdateCount) override {
    return Log(Kind::kDelete, page, 0);
  }
  Status Sync() override {
    ++syncs_;
    return Status::OK();
  }
  void SetDeferredSync(bool on) override { deferred_sync_ = on; }

 private:
  Status Log(Kind kind, uint64_t key, uint64_t entries) {
    if (fail_at_ != 0 && log_->size() + 1 == fail_at_) {
      return Status::Corruption("injected");
    }
    log_->push_back(LoggedOp{kind, key, entries});
    return Status::OK();
  }

  std::vector<LoggedOp>* log_;
  size_t fail_at_ = 0;
  int syncs_ = 0;
  bool deferred_sync_ = false;
};

SealPipeline::Op SealOp(SegmentId id) {
  SealPipeline::Op op;
  op.kind = Kind::kSeal;
  op.record.id = id;
  return op;
}

SealPipeline::Op DeleteOp(PageId page) {
  SealPipeline::Op op;
  op.kind = Kind::kDelete;
  op.page = page;
  return op;
}

const char* Name(Executor e) {
  return e == Executor::kInline ? "inline" : "threaded";
}

constexpr Executor kBoth[] = {Executor::kInline, Executor::kThreaded};

TEST(SealPipelineTest, TicketsAreMonotonicAndWaitsReturn) {
  for (const Executor e : kBoth) {
    SCOPED_TRACE(Name(e));
    std::vector<LoggedOp> log;
    RecordingBackend backend(&log);
    SealPipeline pipeline(&backend, e, /*queue_depth=*/2,
                          /*count_fsyncs=*/true);
    pipeline.Start();
    uint64_t last = 0;
    for (SegmentId id = 0; id < 20; ++id) {
      const uint64_t ticket = pipeline.Enqueue(SealOp(id));
      EXPECT_EQ(ticket, last + 1);
      // Inline: applied before Enqueue returns.
      if (e == Executor::kInline) {
        EXPECT_EQ(pipeline.applied_ticket(), ticket);
      }
      last = ticket;
    }
    EXPECT_TRUE(pipeline.WaitApplied(last).ok());
    EXPECT_TRUE(pipeline.Drain().ok());
    EXPECT_EQ(pipeline.applied_ticket(), last);
    ASSERT_EQ(log.size(), 20u);
    for (SegmentId id = 0; id < 20; ++id) EXPECT_EQ(log[id].key, id);
    EXPECT_TRUE(pipeline.Shutdown().ok());
  }
}

TEST(SealPipelineTest, FailingOpIsSticky) {
  for (const Executor e : kBoth) {
    SCOPED_TRACE(Name(e));
    std::vector<LoggedOp> log;
    RecordingBackend backend(&log);
    backend.FailOp(2);
    SealPipeline pipeline(&backend, e, /*queue_depth=*/4,
                          /*count_fsyncs=*/false);
    pipeline.Start();
    EXPECT_NE(pipeline.Enqueue(SealOp(0)), 0u);
    const uint64_t failing = pipeline.Enqueue(SealOp(1));
    // Inline rejects the failing op itself; threaded hands out a ticket
    // and reports the failure once the I/O thread reaches it.
    if (e == Executor::kInline) {
      EXPECT_EQ(failing, 0u);
    } else {
      EXPECT_EQ(pipeline.WaitApplied(failing).code(),
                Status::Code::kCorruption);
    }
    EXPECT_EQ(pipeline.Enqueue(DeleteOp(7)), 0u);
    EXPECT_EQ(pipeline.error().code(), Status::Code::kCorruption);
    EXPECT_TRUE(pipeline.failed());
    EXPECT_EQ(pipeline.Drain().code(), Status::Code::kCorruption);
    EXPECT_EQ(pipeline.Shutdown().code(), Status::Code::kCorruption);
    // Nothing after the failure reached the backend.
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].key, 0u);
  }
}

TEST(SealPipelineTest, ShutdownIsIdempotentAndRejectsEnqueue) {
  for (const Executor e : kBoth) {
    SCOPED_TRACE(Name(e));
    std::vector<LoggedOp> log;
    RecordingBackend backend(&log);
    SealPipeline pipeline(&backend, e, /*queue_depth=*/1,
                          /*count_fsyncs=*/false);
    pipeline.Start();
    for (SegmentId id = 0; id < 8; ++id) {
      EXPECT_NE(pipeline.Enqueue(SealOp(id)), 0u);
    }
    EXPECT_TRUE(pipeline.Shutdown().ok());
    // Shutdown drained: every accepted op reached the backend.
    EXPECT_EQ(log.size(), 8u);
    EXPECT_TRUE(pipeline.Shutdown().ok());
    EXPECT_EQ(pipeline.Enqueue(SealOp(9)), 0u);
    EXPECT_TRUE(pipeline.error().ok());
    EXPECT_EQ(log.size(), 8u);
  }
}

TEST(SealPipelineTest, InlineExecutorSyncsOnlyWhenAsked) {
  std::vector<LoggedOp> log;
  RecordingBackend backend(&log);
  SealPipeline pipeline(&backend, Executor::kInline, /*queue_depth=*/1,
                        /*count_fsyncs=*/true);
  pipeline.Start();
  for (SegmentId id = 0; id < 8; ++id) {
    const uint64_t ticket = pipeline.Enqueue(SealOp(id));
    EXPECT_TRUE(pipeline.WaitApplied(ticket).ok());
  }
  EXPECT_TRUE(pipeline.ResetStats().ok());
  EXPECT_EQ(backend.syncs(), 0);
  EXPECT_FALSE(backend.deferred_sync());
  // The barrier is the one place an inline pipeline syncs.
  EXPECT_TRUE(pipeline.Drain().ok());
  EXPECT_EQ(backend.syncs(), 1);
  EXPECT_TRUE(pipeline.Shutdown().ok());
  EXPECT_EQ(backend.syncs(), 1);
  EXPECT_FALSE(backend.deferred_sync());
  // No I/O-thread counters inline.
  const StoreStats s = pipeline.StatsSnapshot();
  EXPECT_EQ(s.seal_queue_enqueued, 0u);
  EXPECT_EQ(s.group_fsyncs, 0u);
}

TEST(SealPipelineTest, ThreadedExecutorGroupCommitsInDeferredMode) {
  std::vector<LoggedOp> log;
  RecordingBackend backend(&log);
  SealPipeline pipeline(&backend, Executor::kThreaded, /*queue_depth=*/4,
                        /*count_fsyncs=*/true);
  pipeline.Start();
  EXPECT_TRUE(backend.deferred_sync());
  for (SegmentId id = 0; id < 8; ++id) {
    EXPECT_NE(pipeline.Enqueue(SealOp(id)), 0u);
  }
  EXPECT_TRUE(pipeline.Drain().ok());
  const StoreStats s = pipeline.StatsSnapshot();
  EXPECT_EQ(s.seal_queue_enqueued, 8u);
  EXPECT_GT(s.group_fsyncs, 0u);
  EXPECT_EQ(s.group_fsync_ops, 8u);
  EXPECT_EQ(static_cast<uint64_t>(backend.syncs()), s.group_fsyncs);
  EXPECT_TRUE(pipeline.Shutdown().ok());
}

TEST(SealPipelineTest, BothExecutorsCountCheckpointRecords) {
  for (const Executor e : kBoth) {
    SCOPED_TRACE(Name(e));
    std::vector<LoggedOp> log;
    RecordingBackend backend(&log);
    SealPipeline pipeline(&backend, e, /*queue_depth=*/4,
                          /*count_fsyncs=*/false);
    pipeline.Start();
    SealPipeline::Op full;
    full.kind = Kind::kCheckpoint;
    SealPipeline::Op delta;
    delta.kind = Kind::kCheckpointDelta;
    EXPECT_NE(pipeline.Enqueue(full), 0u);
    EXPECT_NE(pipeline.Enqueue(delta), 0u);
    EXPECT_NE(pipeline.Enqueue(delta), 0u);
    EXPECT_TRUE(pipeline.Drain().ok());
    StoreStats s = pipeline.StatsSnapshot();
    EXPECT_EQ(s.checkpoints_written, 3u);
    EXPECT_EQ(s.checkpoint_full_records, 1u);
    EXPECT_EQ(s.checkpoint_delta_records, 2u);
    EXPECT_TRUE(pipeline.ResetStats().ok());
    s = pipeline.StatsSnapshot();
    EXPECT_EQ(s.checkpoints_written, 0u);
    EXPECT_EQ(s.seal_queue_enqueued, 0u);
    EXPECT_TRUE(pipeline.Shutdown().ok());
  }
}

// The claim in seal_pipeline.h: whichever executor applies the ops, the
// backend observes the same operation sequence. Drive one MDC churn with
// deletes, periodic delta checkpoints and explicit barriers through a
// synchronous and an asynchronous store and compare what each backend
// saw, op by op.
TEST(SealPipelineTest, AsyncStoreEmitsTheSyncOpSequence) {
  auto drive = [](bool async_seal) {
    StoreConfig cfg;
    cfg.page_bytes = 4096;
    cfg.segment_bytes = 64 * 4096;
    cfg.num_segments = 48;
    cfg.clean_trigger_segments = 2;
    cfg.clean_batch_segments = 4;
    cfg.write_buffer_segments = 0;
    cfg.checkpoint_interval_ops = 16;
    cfg.checkpoint_delta = true;
    cfg.async_seal = async_seal;
    cfg.seal_queue_depth = 4;
    ApplyVariantConfig(Variant::kMdc, &cfg);
    std::vector<LoggedOp> log;
    Status st;
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &st,
        [&log](uint32_t) { return std::make_unique<RecordingBackend>(&log); });
    EXPECT_NE(store, nullptr) << st.ToString();
    if (store == nullptr) return log;
    const PageId pages = 1800;
    for (PageId p = 0; p < pages; ++p) EXPECT_TRUE(store->Write(p).ok());
    Rng rng(41);
    for (int i = 0; i < 20000; ++i) {
      const PageId p = rng.NextBounded(pages);
      if (store->Contains(p) && rng.NextBool(0.2)) {
        EXPECT_TRUE(store->Delete(p).ok());
      } else {
        EXPECT_TRUE(store->Write(p).ok());
      }
      if (i % 5000 == 4999) {
        EXPECT_TRUE(store->Checkpoint().ok());
      }
    }
    EXPECT_TRUE(store->Close().ok());
    const StoreStats s = store->AggregatedStats();
    // The churn must reach every op kind the comparison is about.
    EXPECT_GT(s.checkpoint_full_records, 0u);
    EXPECT_GT(s.checkpoint_delta_records, 0u);
    EXPECT_GT(s.segments_cleaned, 0u);
    EXPECT_GT(s.deletes, 0u);
    return log;
  };
  const std::vector<LoggedOp> sync_ops = drive(false);
  const std::vector<LoggedOp> async_ops = drive(true);
  ASSERT_EQ(sync_ops.size(), async_ops.size());
  for (size_t i = 0; i < sync_ops.size(); ++i) {
    ASSERT_EQ(sync_ops[i], async_ops[i]) << "op " << i;
  }
}

}  // namespace
}  // namespace lss
