#include "core/store_shard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace lss {

namespace {

// The flush's and the cleaner's placement loops prefetch the page-table
// slot of the page this many positions ahead, so its miss overlaps the
// placements in between instead of stalling the one that remaps it.
constexpr size_t kPrefetchDistance = 16;

// §5.2.2 "Non-first Write": assume up1 was midway between unow and up2;
// the prior up1 becomes the new up2.
double CarryUp2(double old_up2, UpdateCount unow) {
  return old_up2 + 0.5 * (static_cast<double>(unow) - old_up2);
}

}  // namespace

StoreShard::StoreShard(const StoreConfig& config,
                       std::unique_ptr<CleaningPolicy> policy,
                       PageTable* table, uint32_t shard_id,
                       uint32_t num_shards,
                       std::unique_ptr<SegmentBackend> backend)
    : config_(config),
      policy_(std::move(policy)),
      backend_(backend ? std::move(backend)
                       : std::make_unique<NullBackend>()),
      pipeline_(backend_.get(),
                config.async_seal ? SealPipeline::Executor::kThreaded
                                  : SealPipeline::Executor::kInline,
                config.seal_queue_depth, config.backend_fsync),
      table_(*table),
      buffer_(static_cast<uint64_t>(config.write_buffer_segments) *
              config.segment_bytes),
      shard_id_(shard_id),
      num_shards_(num_shards) {
  assert(policy_ != nullptr);
  segments_.reserve(config_.num_segments);
  free_list_.reserve(config_.num_segments);
  for (uint32_t i = 0; i < config_.num_segments; ++i) {
    segments_.emplace_back(config_.segment_bytes);
  }
  // Allocate from low ids first (cosmetic; any order works).
  for (uint32_t i = config_.num_segments; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
  slot_generation_.assign(config_.num_segments, 0);
  ckpt_chain_.assign(config_.num_segments, CheckpointChain{});
  seal_ticket_.assign(config_.num_segments, 0);
}

StoreShard::~StoreShard() {
  if (!closed_) Close();
}

Status StoreShard::OpenBackend(bool recover) {
  // The backend's device counters live with the pipeline that drives it.
  Status s = backend_->Open(config_, shard_id_, num_shards_,
                            pipeline_.backend_stats(), recover);
  // Start after Open: Scan (during a recovering open) still runs on the
  // caller's thread, safely — the queue is empty until the first write.
  if (s.ok()) pipeline_.Start();
  return s;
}

Status StoreShard::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status result = Status::OK();
  // Drain the buffer and seal every open segment so the device holds the
  // complete store; with the null backend this is pure bookkeeping.
  if (!buffer_.Empty() && sticky_error_.ok()) {
    result = FlushUserBuffer();
    if (!result.ok()) sticky_error_ = result;
  }
  for (uint64_t key = 0; key < open_segments_.size(); ++key) {
    if (open_segments_[key] == kInvalidSegment) continue;
    Status s = SealOpenSegment(static_cast<uint32_t>(key >> 1),
                               static_cast<uint32_t>(key & 1));
    if (!s.ok() && result.ok()) result = s;
  }
  // Everything is sealed now, so any still-withheld victim reclaims are
  // safe to announce before the backend's final sync.
  Status s = ReleaseReclaims();
  if (!s.ok() && result.ok()) result = s;
  // Stop the pipeline; the threaded executor drains first, so every
  // queued seal reaches the device before the backend closes and no
  // acknowledged write is lost when Close races in-flight seals.
  s = pipeline_.Shutdown();
  if (!s.ok() && result.ok()) result = s;
  s = backend_->Close();
  if (!s.ok() && result.ok()) result = s;
  return result;
}

void StoreShard::SetExactFrequencyOracle(ExactFrequencyFn oracle) {
  oracle_ = std::move(oracle);
}

double StoreShard::EstimateUpf(PageId page) const {
  if (oracle_) return oracle_(page);
  const PageMeta& m = table_.Get(page);
  if (m.last_update == 0 || unow_ <= m.last_update) return 0.0;
  return 1.0 / static_cast<double>(unow_ - m.last_update);
}

size_t StoreShard::LivePageCount() const {
  size_t n = 0;
  for (PageId p = 0; p < table_.Size(); ++p) {
    if (OwnsPage(p) && table_.Present(p)) ++n;
  }
  return n;
}

double StoreShard::CurrentFillFactor() const {
  uint64_t live = 0;
  for (const Segment& s : segments_) live += s.live_bytes();
  for (size_t i = 0; i < buffer_.Count(); ++i) {
    const BufferedWrite& w = buffer_.Get(i);
    if (w.page != kInvalidPage) live += w.bytes;
    // An unsettled write's previous entry is still counted live above.
    if (i >= buffer_settled_ && !w.first_write && !w.prev.InBuffer()) {
      live -= segments_[w.prev.segment].entry_bytes(w.prev.index);
    }
  }
  const double device = static_cast<double>(config_.num_segments) *
                        static_cast<double>(config_.segment_bytes);
  return static_cast<double>(live) / device;
}

void StoreShard::KillOldVersion(PageId page, const PageLocation& loc) {
  assert(!loc.InBuffer());
  const double exact = oracle_ ? oracle_(page) : 0.0;
  segments_[loc.segment].Kill(loc.index, exact);
}

Status StoreShard::CheckWriteArgs(PageId page, uint32_t bytes) const {
  if (bytes > config_.segment_bytes) {
    return Status::InvalidArgument("page larger than a segment");
  }
  if (page >= PageTable::kMaxPages) {
    return Status::InvalidArgument("page id must be below 2^32");
  }
  return Status::OK();
}

Status StoreShard::Write(PageId page, uint32_t bytes) {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  Status args = CheckWriteArgs(page, bytes);
  if (!args.ok()) return args;
  if (bytes == 0) bytes = config_.page_bytes;
  assert(OwnsPage(page));
  ++unow_;
  ++stats_.user_updates;

  PageMeta& m = EnsurePage(page);
  const double exact = oracle_ ? oracle_(page) : 0.0;
  const bool first = !m.loc.Present();

  if (config_.write_buffer_segments > 0) {
    // Only the page table is touched here: the previous version (at
    // m.loc) is retired when the write is settled (SettleWrite).
    BufferedWrite w;
    w.page = page;
    w.exact_upf = exact;
    w.unow = unow_;
    w.prev = m.loc;
    w.bytes = bytes;
    w.first_write = first;
    m.loc = PageLocation{kBufferSegment, buffer_.Add(w)};
    m.bytes = bytes;
    m.last_update = unow_;
    if (buffer_.Full()) {
      Status s = FlushUserBuffer();
      if (!s.ok()) sticky_error_ = s;
      return s;
    }
    return Status::OK();
  }

  // Unbuffered: place immediately in arrival order. First writes get the
  // coldest possible estimate (up2 = 0), warming up as they are re-written.
  // The estimate based on the previous update timestamp (multi-log's
  // estimator) must be computed before last_update is overwritten.
  double est_upf = exact;
  double up2 = 0.0;
  if (!first) {
    if (!oracle_ && unow_ > m.last_update) {
      est_upf = 1.0 / static_cast<double>(unow_ - m.last_update);
    }
    up2 = CarryUp2(segments_[m.loc.segment].Up2Estimate(), unow_);
    KillOldVersion(page, m.loc);
  }
  m.bytes = bytes;
  m.last_update = unow_;
  Status s = PlacePage(page, m, bytes, up2, exact, est_upf, /*is_gc=*/false);
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Delete(PageId page) {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  if (!table_.Present(page)) {
    return Status::NotFound("page not present");
  }
  assert(OwnsPage(page));
  PageMeta& m = EnsurePage(page);
  // Kills must run in arrival order (a segment's exact_upf_sum is a
  // floating-point sum), so the buffered writes' kills go first.
  SettleBuffered();
  if (m.loc.InBuffer()) {
    BufferedWrite& w = buffer_.GetMutable(m.loc.index);
    // Tombstone the buffer slot; flush skips it. The buffered bytes stay
    // counted toward the flush threshold, which is harmless.
    w.page = kInvalidPage;
  } else {
    KillOldVersion(page, m.loc);
  }
  m.loc = PageLocation{};
  m.bytes = 0;
  ++stats_.deletes;
  Status s = EmitDelete(page, ++write_seq_, unow_);
  if (s.ok()) s = MaybePeriodicCheckpoint();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Flush() {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  if (buffer_.Empty()) return Status::OK();
  Status s = FlushUserBuffer();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::Checkpoint() {
  if (closed_) return Status::InvalidArgument("store is closed");
  AbsorbPipelineError();
  if (!sticky_error_.ok()) return sticky_error_;
  Status s = Status::OK();
  if (!buffer_.Empty()) s = FlushUserBuffer();
  // Snapshot every non-empty open segment.
  if (s.ok()) s = CheckpointOpenSegments();
  ops_since_checkpoint_ = 0;
  // The barrier: wait out the queue and make it all durable.
  if (s.ok()) s = pipeline_.Drain();
  // Everything emitted is durable now; pending watermarks can commit so
  // the next round's deltas base on what this barrier persisted.
  if (s.ok()) CommitDurableWatermarks();
  if (!s.ok()) sticky_error_ = s;
  return s;
}

Status StoreShard::ReadPage(PageId page, std::vector<uint8_t>* out) const {
  const PageMeta& m = table_.Get(page);
  if (!m.loc.Present()) return Status::NotFound("page not present");
  if (m.loc.InBuffer()) {
    return Status::InvalidArgument("page still in write buffer");
  }
  const Segment& seg = segments_[m.loc.segment];
  if (seg.state() != SegmentState::kSealed) {
    return Status::InvalidArgument("page in an unsealed segment");
  }
  // The in-memory seal may still be queued (threaded executor); wait
  // until the I/O thread has written the payload before reading it back.
  // The pipeline thread never takes the shard lock, so waiting under it
  // is deadlock-free.
  const uint64_t ticket = seal_ticket_[m.loc.segment];
  if (ticket != 0) {
    Status s = pipeline_.WaitApplied(ticket);
    if (!s.ok()) return s;
  }
  return backend_->ReadPagePayload(m.loc.segment,
                                   seg.entry_offset(m.loc.index), page,
                                   m.bytes, out);
}

void StoreShard::SettleWrite(BufferedWrite* writes, size_t k, size_t end) {
  // Group prefetching: the previous version's segment header two
  // distances ahead, and its slot one distance ahead, once the header
  // holding the slot column's address has arrived.
  if (k + 2 * kPrefetchDistance < end) {
    const PageLocation& ahead = writes[k + 2 * kPrefetchDistance].prev;
    if (ahead.Present() && !ahead.InBuffer()) {
      segments_[ahead.segment].PrefetchHeader();
    }
  }
  if (k + kPrefetchDistance < end) {
    const PageLocation& ahead = writes[k + kPrefetchDistance].prev;
    if (ahead.Present() && !ahead.InBuffer()) {
      segments_[ahead.segment].PrefetchSlot(ahead.index);
    }
  }
  BufferedWrite& w = writes[k];
  if (w.first_write) return;
  double old_up2;
  if (w.prev.InBuffer()) {
    // Paper accounting: the buffer is a queue of writes, so the
    // superseded copy stays queued and is flushed as a write that is dead
    // on arrival (it costs a physical page write and becomes instant
    // garbage). Arrival order settled it already, so its up2 is final.
    BufferedWrite& old = writes[w.prev.index];
    old_up2 = old.up2;
    old.superseded = true;
  } else {
    Segment& seg = segments_[w.prev.segment];
    old_up2 = seg.Up2Estimate();
    seg.Kill(w.prev.index, w.exact_upf);
  }
  w.up2 = CarryUp2(old_up2, w.unow);
}

void StoreShard::SettleBuffered() {
  const size_t end = buffer_.Count();
  for (size_t k = buffer_settled_; k < end; ++k) {
    SettleWrite(buffer_.data(), k, end);
  }
  buffer_settled_ = end;
}

Status StoreShard::FlushUserBuffer() {
  std::vector<BufferedWrite>& batch = flush_batch_;
  buffer_.DrainInto(&batch);
  const size_t settled = buffer_settled_;
  buffer_settled_ = 0;

  // Settle the writes Delete has not, in arrival order and before any
  // placement or cleaning reads a segment. The same pass finds the oldest
  // up2 for §5.2.2 "First Write": first writes get the oldest up2 in the
  // batch ("pages mostly contain cold data, assigning a up2 that makes
  // the page 'coldish' is usually appropriate").
  double oldest = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < batch.size(); ++k) {
    if (k >= settled) SettleWrite(batch.data(), k, batch.size());
    const BufferedWrite& w = batch[k];
    if (w.page != kInvalidPage && !w.first_write) {
      oldest = std::min(oldest, w.up2);
    }
  }
  if (!std::isfinite(oldest)) oldest = 0.0;
  for (BufferedWrite& w : batch) {
    if (w.first_write) w.up2 = oldest;
  }

  // Place hottest first; the key is the exact frequency when an oracle
  // is installed (the *-opt variants), else the up2 estimate (§5.3).
  // The radix order is the stable descending sort's permutation, so ties
  // keep arrival order. Without separation pages go in arrival order.
  const uint32_t* order = nullptr;
  if (config_.separate_user_writes) {
    const bool exact = static_cast<bool>(oracle_);
    std::vector<uint64_t>& keys = flush_order_.keys();
    keys.clear();
    for (const BufferedWrite& w : batch) {
      keys.push_back(DescendingKey(exact ? w.exact_upf : w.up2));
    }
    order = flush_order_.Sort().data();
  }

  for (size_t k = 0; k < batch.size(); ++k) {
    if (k + kPrefetchDistance < batch.size()) {
      const size_t ahead = k + kPrefetchDistance;
      table_.Prefetch(batch[order != nullptr ? order[ahead] : ahead].page);
    }
    const BufferedWrite& w = batch[order != nullptr ? order[k] : k];
    if (w.page == kInvalidPage) continue;  // deleted while buffered
    double est = w.exact_upf;
    if (!oracle_ && !w.first_write) {
      // up2-implied frequency: two updates over (unow - up2) ticks (§4.3).
      const double interval = static_cast<double>(unow_) - w.up2;
      est = interval > 0 ? 2.0 / interval : 2.0;
    }
    Status s = PlacePage(w.page, EnsurePage(w.page), w.bytes, w.up2,
                         w.exact_upf, est, /*is_gc=*/false,
                         /*dead_on_arrival=*/w.superseded);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StoreShard::PlacePage(PageId page, PageMeta& meta, uint32_t bytes,
                             double up2, double exact_upf, double est_upf,
                             bool is_gc, bool dead_on_arrival) {
  const uint32_t log = policy_->PlacementLog(*this, page, is_gc, est_upf);
  const uint32_t stream =
      (is_gc && !config_.gc_shares_user_stream) ? kGcStream : kUserStream;

  SegmentId id = kInvalidSegment;
  Segment* seg = OpenSegmentFor(log, stream, is_gc, &id);
  if (seg == nullptr) {
    return sticky_error_.ok() ? Status::OutOfSpace("no free segment to open")
                              : sticky_error_;
  }
  // Seal-and-reopen until the page fits. One round usually suffices, but
  // OpenSegmentFor may adopt a partially-filled segment the cleaner
  // opened for this key, so this must loop (bounded: each round seals a
  // segment, and a fresh segment always fits the page).
  for (int rounds = 0; !seg->HasRoomFor(bytes); ++rounds) {
    if (rounds > 4) {
      return Status::Corruption("unable to open a segment with room");
    }
    Status s = SealOpenSegment(log, stream);
    if (!s.ok()) return s;
    seg = OpenSegmentFor(log, stream, is_gc, &id);
    if (seg == nullptr) {
      return sticky_error_.ok()
                 ? Status::OutOfSpace("no free segment to open")
                 : sticky_error_;
    }
  }
  const uint32_t idx =
      seg->Append(page, bytes, up2, exact_upf, ++write_seq_, meta.last_update);
  if (dead_on_arrival) {
    // A queued duplicate: the physical write happens, the version is
    // immediately garbage, and the page table keeps pointing at the
    // newer copy. Marked dead-on-arrival so durable records never
    // resurrect it (the flush sort makes its seq order meaningless).
    seg->Kill(idx, exact_upf, /*dead_on_arrival=*/true);
  } else {
    meta.loc = PageLocation{id, idx};
  }
  if (is_gc) {
    ++stats_.gc_pages_written;
    stats_.gc_bytes_written += bytes;
    // This open segment now holds a relocated page; reclaim records for
    // the cleaner's victims are withheld until it seals.
    auto pos =
        std::lower_bound(gc_dirty_open_.begin(), gc_dirty_open_.end(), id);
    if (pos == gc_dirty_open_.end() || *pos != id) {
      gc_dirty_open_.insert(pos, id);
    }
  } else {
    ++stats_.user_pages_written;
    stats_.user_bytes_written += bytes;
  }
  // Seal exactly-full segments eagerly. With fixed-size pages segments
  // fill to the byte, and an exactly-full segment left open is invisible
  // to the cleaner while pinning a whole segment of space.
  if (!seg->HasRoomFor(1)) return SealOpenSegment(log, stream);
  return Status::OK();
}

Segment* StoreShard::OpenSegmentFor(uint32_t log, uint32_t stream, bool is_gc,
                                    SegmentId* id_out) {
  const uint64_t key = OpenKey(log, stream);
  SegmentId open = OpenSegmentAt(key);
  if (open != kInvalidSegment) {
    *id_out = open;
    return &segments_[open];
  }
  const SegmentId id = AllocateSegment(log);
  if (id == kInvalidSegment) return nullptr;
  // Allocation can run the cleaner, and the cleaner's own placements may
  // have opened a segment for this very key; adopt it and return the
  // allocated segment to the pool instead of orphaning an open segment.
  open = OpenSegmentAt(key);
  if (open != kInvalidSegment) {
    free_list_.push_back(id);
    *id_out = open;
    return &segments_[open];
  }
  // Reuse changes the slot's payload identity: the new fill generation
  // closes any checkpoint chain of the previous occupant.
  InvalidateCheckpointChain(id);
  segments_[id].Open(log, is_gc ? SegmentSource::kGc : SegmentSource::kUser,
                     unow_);
  if (key >= open_segments_.size()) {
    open_segments_.resize(key + 1, kInvalidSegment);
  }
  open_segments_[key] = id;
  ++open_count_;
  *id_out = id;
  return &segments_[id];
}

BackendSegmentRecord StoreShard::MakeSealRecord(SegmentId id,
                                                const Segment& seg,
                                                bool checkpoint) const {
  BackendSegmentRecord rec;
  rec.id = id;
  rec.log = seg.log();
  rec.source = seg.source();
  rec.open_time = seg.open_time();
  // A checkpointed segment has no seal time yet; the clock at snapshot
  // time stands in (recovery rebuilds it as sealed-at-that-instant,
  // which is what age-based policies should see).
  rec.seal_time = checkpoint ? unow_ : seg.seal_time();
  rec.unow = unow_;
  rec.checkpoint = checkpoint;
  rec.generation = slot_generation_[id];
  // In-place-killed entries are recorded live under their own id (see
  // Segment::RecordEntry for why).
  seg.AppendRecordEntries(&rec.entries);
  return rec;
}

Status StoreShard::EnqueueOp(SealPipeline::Op op, uint64_t* ticket_out) {
  const uint64_t ticket = pipeline_.Enqueue(std::move(op));
  if (ticket == 0) {
    const Status e = pipeline_.error();
    return e.ok() ? Status::InvalidArgument("seal pipeline is stopped") : e;
  }
  if (ticket_out != nullptr) *ticket_out = ticket;
  return Status::OK();
}

Status StoreShard::EmitSeal(SegmentId id, const Segment& seg) {
  ++ops_since_checkpoint_;
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kSeal;
  op.record = MakeSealRecord(id, seg);
  return EnqueueOp(std::move(op), &seal_ticket_[id]);
}

Status StoreShard::EmitCheckpoint(SegmentId id, const Segment& seg,
                                  bool delta) {
  const uint64_t gen = slot_generation_[id];
  const uint64_t entries = seg.entry_count();
  const uint64_t bytes = seg.used_bytes();
  SealPipeline::Op op;
  op.kind = delta ? SealPipeline::Op::Kind::kCheckpointDelta
                  : SealPipeline::Op::Kind::kCheckpoint;
  op.record = MakeSealRecord(id, seg, /*checkpoint=*/true);
  if (delta) {
    // Only the suffix past the durable watermark travels; the base chain
    // already covers the prefix byte-for-byte (in-place kills never
    // change recorded content — see the resurrection rule in
    // Segment::RecordEntry).
    const uint32_t wm_entries = seg.checkpoint_entries();
    const uint64_t wm_bytes = seg.checkpoint_bytes();
    assert(wm_entries <= entries && wm_bytes <= bytes);
    BackendSegmentRecord& rec = op.record;
    rec.delta = true;
    rec.prefix_entries = wm_entries;
    rec.suffix_offset = wm_bytes;
    rec.suffix_length = bytes - wm_bytes;
    rec.entries.erase(rec.entries.begin(), rec.entries.begin() + wm_entries);
  }
  uint64_t ticket = 0;
  Status s = EnqueueOp(std::move(op), &ticket);
  if (!s.ok()) return s;
  // The chain tracks *emitted* coverage (queue order = log order); the
  // durable watermark waits for the record to be applied and synced,
  // which inline it already is when the next round commits it.
  ckpt_chain_[id] = CheckpointChain{true, gen, entries, bytes};
  pending_watermarks_.push_back(PendingWatermark{
      id, gen, static_cast<uint32_t>(entries), bytes, ticket});
  return s;
}

Status StoreShard::EmitOpenSegmentCheckpoint(SegmentId id,
                                             const Segment& seg) {
  const CheckpointChain& chain = ckpt_chain_[id];
  if (!config_.checkpoint_delta || !chain.valid ||
      chain.generation != slot_generation_[id]) {
    // Deltas off, no base, or the slot was refilled since: a full
    // record starts the chain over.
    return EmitCheckpoint(id, seg, /*delta=*/false);
  }
  if (chain.emitted_entries == seg.entry_count() &&
      chain.emitted_bytes == seg.used_bytes()) {
    // The emitted chain already covers every entry (in-place kills since
    // then re-record identically, so there is nothing new to persist).
    return Status::OK();
  }
  return EmitCheckpoint(id, seg, /*delta=*/true);
}

void StoreShard::CommitDurableWatermarks() {
  if (pending_watermarks_.empty()) return;
  if (pipeline_.failed()) {
    pending_watermarks_.clear();
    return;
  }
  const uint64_t applied = pipeline_.applied_ticket();
  size_t kept = 0;
  for (size_t i = 0; i < pending_watermarks_.size(); ++i) {
    const PendingWatermark& pw = pending_watermarks_[i];
    if (pw.ticket > applied) {
      if (kept != i) pending_watermarks_[kept] = pw;
      ++kept;
      continue;
    }
    // Stale generations (the slot sealed or was refilled since emission)
    // are dropped: the watermark belongs to a payload that no longer
    // exists in this slot.
    if (pw.generation == slot_generation_[pw.id] &&
        segments_[pw.id].state() == SegmentState::kOpen) {
      segments_[pw.id].SetCheckpointWatermark(pw.entries, pw.bytes);
    }
  }
  pending_watermarks_.resize(kept);
}

Status StoreShard::EmitReclaim(SegmentId id, UpdateCount unow) {
  ++ops_since_checkpoint_;
  // A free record erases every earlier record of the slot on replay —
  // including the checkpoint chain of a *new* occupant when the victim's
  // withheld free releases after the slot was reused. Whatever chain the
  // slot carries is dead in the log the moment this record lands, so the
  // next checkpoint of the slot must start over with a full record.
  InvalidateCheckpointChain(id);
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kReclaim;
  op.segment = id;
  op.unow = unow;
  return EnqueueOp(std::move(op));
}

Status StoreShard::EmitDelete(PageId page, uint64_t seq, UpdateCount unow) {
  ++ops_since_checkpoint_;
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kDelete;
  op.page = page;
  op.seq = seq;
  op.unow = unow;
  return EnqueueOp(std::move(op));
}

Status StoreShard::CheckpointGcDirtyOpen(SegmentId skip) {
  if (gc_dirty_open_.empty()) return Status::OK();
  CommitDurableWatermarks();
  for (SegmentId id : gc_dirty_open_) {
    if (id == skip) continue;
    const Segment& seg = segments_[id];
    if (seg.state() != SegmentState::kOpen || seg.entry_count() == 0) continue;
    // Skip-when-covered is safe here too: an already-emitted chain
    // precedes the forced free record in queue = log order.
    Status s = EmitOpenSegmentCheckpoint(id, seg);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StoreShard::CheckpointOpenSegments() {
  ++stats_.checkpoint_rounds;
  // Harvest durability first so this round's deltas base on the newest
  // durable watermark instead of re-sending already-synced suffixes.
  CommitDurableWatermarks();
  for (const SegmentId id : open_segments_) {
    if (id == kInvalidSegment || segments_[id].entry_count() == 0) continue;
    Status s = EmitOpenSegmentCheckpoint(id, segments_[id]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StoreShard::MaybePeriodicCheckpoint() {
  if (!CheckpointingEnabled() ||
      ops_since_checkpoint_ < config_.checkpoint_interval_ops) {
    return Status::OK();
  }
  ops_since_checkpoint_ = 0;
  return CheckpointOpenSegments();
}

void StoreShard::AbsorbPipelineError() {
  if (sticky_error_.ok() && pipeline_.failed()) {
    sticky_error_ = pipeline_.error();
  }
}

StoreStats StoreShard::stats() const {
  StoreStats s = stats_;
  s.Merge(pipeline_.StatsSnapshot());
  return s;
}

void StoreShard::ResetMeasurement() {
  // The pipeline waits out its queue first, so no in-flight op's
  // counters straddle the reset.
  pipeline_.ResetStats();
  stats_.ResetMeasurement();
}

Status StoreShard::SealOpenSegment(uint32_t log, uint32_t stream) {
  const uint64_t key = OpenKey(log, stream);
  const SegmentId id = OpenSegmentAt(key);
  assert(id != kInvalidSegment);
  Segment& seg = segments_[id];
  const bool was_gc = seg.source() == SegmentSource::kGc;
  seg.Seal(unow_);
  // The seal record supersedes the slot's checkpoint chain (and closes
  // it backend-side too); any late watermark for this generation must
  // not survive into the slot's next life.
  InvalidateCheckpointChain(id);
  if (was_gc) {
    ++stats_.gc_segments_sealed;
  } else {
    ++stats_.user_segments_sealed;
  }
  open_segments_[key] = kInvalidSegment;
  --open_count_;

  // If this slot is a reclaimed victim whose free record is still
  // withheld, it must be announced now: the new seal overwrites the old
  // payload anyway (withholding protects nothing any more), and the
  // free record must precede the new seal record in the metadata log so
  // replay resolves the slot to its new contents.
  for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
    if (reclaim_queue_[i].id != id) continue;
    // The forced-out free record erases the victim's entries from
    // replay. With checkpointing on, first persist every open segment
    // still holding GC-moved pages, so the relocated copies precede the
    // free record on the device — this closes the residual crash window
    // documented at reclaim_queue_.
    if (CheckpointingEnabled()) {
      Status cs = CheckpointGcDirtyOpen(id);
      if (!cs.ok()) return cs;
    }
    Status s = EmitReclaim(id, reclaim_queue_[i].unow);
    if (!s.ok()) return s;
    reclaim_queue_.erase(reclaim_queue_.begin() +
                         static_cast<ptrdiff_t>(i));
    break;
  }

  Status s = EmitSeal(id, seg);
  if (!s.ok()) return s;

  // Once no open segment holds GC-moved pages, every relocated page is
  // sealed (durable on a real backend, or ordered ahead of any later
  // free record in the pipeline queue) and the withheld victim reclaims
  // can reach the device — in checkpoint mode only those whose dead
  // entries' successors are recorded too (ReleaseSafeReclaims).
  auto dirty =
      std::lower_bound(gc_dirty_open_.begin(), gc_dirty_open_.end(), id);
  if (dirty != gc_dirty_open_.end() && *dirty == id) {
    gc_dirty_open_.erase(dirty);
  }
  if (gc_dirty_open_.empty() && !reclaim_queue_.empty()) {
    Status r =
        CheckpointingEnabled() ? ReleaseSafeReclaims() : ReleaseReclaims();
    if (!r.ok()) return r;
  }
  return MaybePeriodicCheckpoint();
}

SegmentId StoreShard::AllocateSegment(uint32_t log) {
  if (!cleaning_ && free_list_.size() <= config_.clean_trigger_segments) {
    Status s = Clean(log);
    if (!s.ok()) {
      // Out-of-space with segments still free is survivable (best-effort
      // cleaning); anything else — a backend write failure above all —
      // poisons the shard so the caller sees the real error, not a
      // misleading out-of-space.
      if (s.code() != Status::Code::kOutOfSpace) {
        sticky_error_ = s;
        return kInvalidSegment;
      }
      if (free_list_.empty()) return kInvalidSegment;
    }
  }
  if (free_list_.empty()) return kInvalidSegment;
  if (CheckpointingEnabled() && !reclaim_queue_.empty()) {
    // Crash safety: never reseal a slot whose free record is still
    // withheld. The rewrite's payload pwrite would tear regions that the
    // slot's still-live durable record references, and when the victim's
    // relocated copies land in the very same slot (the cleaner reuses
    // just-freed victims immediately) no checkpoint elsewhere can save
    // them. Prefer any non-withheld free slot; relative order of the
    // rest is preserved so this stays deterministic.
    auto pick_non_withheld = [this](SegmentId* out) {
      for (size_t i = free_list_.size(); i > 0; --i) {
        if (!IsWithheld(free_list_[i - 1])) {
          *out = free_list_[i - 1];
          free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i - 1));
          return true;
        }
      }
      return false;
    };
    SegmentId id = kInvalidSegment;
    if (pick_non_withheld(&id)) return id;
    // Only withheld slots remain. A safe release round (checkpoint the
    // opens, emit the frees whose victims have no still-needed entries)
    // usually clears some — it is valid mid-clean too. If nothing
    // clears, fall through to reusing a withheld slot, made crash-safe
    // below by re-homing.
    Status s = ReleaseSafeReclaims();
    if (!s.ok()) {
      sticky_error_ = s;
      return kInvalidSegment;
    }
    if (pick_non_withheld(&id)) return id;
    // Every remaining free slot is a withheld victim; the common pick
    // below reuses one. The reuse will eventually overwrite the
    // victim's payload (a crashing rewrite can tear it), so any victim
    // entry that replay could still need must first reach the device
    // under another record. Entries whose current version already sits
    // in an emitted record are settled permanently (an emitted
    // superseding record stays in the log even if the page is later
    // rewritten into the buffer) and are pruned; the remainder — if
    // any — is persisted under a re-homing record, made durable before
    // this call returns, which recovery resolves newest-record-wins and
    // re-materialises when it still holds a page's latest version.
    // Plain reuse of a slot holding needed entries is thereby
    // impossible by construction.
    const SegmentId reuse = free_list_.back();
    std::vector<Segment::Entry> still_needed;
    size_t queue_pos = reclaim_queue_.size();
    for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
      QueuedReclaim& qr = reclaim_queue_[i];
      if (qr.id != reuse) continue;
      for (const Segment::Entry& e : qr.needed) {
        if (!SuccessorEmitted(e.page)) still_needed.push_back(e);
      }
      queue_pos = i;
      break;
    }
    if (still_needed.empty()) {
      ++stats_.withheld_slot_reuses_plain;
    } else {
      stats_.rehome_entries_written += still_needed.size();
      Status rs = EmitRehome(reuse, std::move(still_needed));
      if (!rs.ok()) {
        sticky_error_ = rs;
        return kInvalidSegment;
      }
      ++stats_.withheld_slot_reuses_rehomed;
    }
    // Every entry of the victim is settled now (emitted successors or
    // the re-homing record just made durable), so its free record goes
    // out immediately — and must precede the slot's new occupant in the
    // log: a free record landing after the occupant's first checkpoint
    // would erase that record (and its delta chain) from replay.
    if (queue_pos < reclaim_queue_.size()) {
      Status fs = EmitReclaim(reuse, reclaim_queue_[queue_pos].unow);
      if (!fs.ok()) {
        sticky_error_ = fs;
        return kInvalidSegment;
      }
      reclaim_queue_.erase(reclaim_queue_.begin() +
                           static_cast<ptrdiff_t>(queue_pos));
    }
  }
  const SegmentId id = free_list_.back();
  free_list_.pop_back();
  return id;
}

uint64_t StoreShard::HarvestVictims(const std::vector<SegmentId>& victims,
                                    std::vector<MovedPage>* moved,
                                    std::vector<MovedRun>* runs) {
  uint64_t reclaimed = 0;
  for (SegmentId id : victims) {
    Segment& seg = segments_[id];
    assert(seg.state() == SegmentState::kSealed);
    stats_.mutable_clean_emptiness().Add(seg.Emptiness());
    ++stats_.segments_cleaned;
    reclaimed += seg.available_bytes();
    const double seg_up2 = seg.up2();
    const size_t run_begin = moved->size();
    // Capture, before the Reset below, every entry the victim's durable
    // seal record still lists live that a recovery might need — the
    // slot's free record (and any reuse of the slot) must wait for them:
    //   - live entries: harvested now but not yet placed; until the
    //     copy lands the victim's record is the only durable home;
    //   - in-place-killed entries (recorded live under their original
    //     identity, see Segment::RecordEntry) whose superseding version
    //     is not yet recorded (write buffer / mid-placement).
    // The captured values are the seal record's: both come from
    // Segment::RecordEntry.
    const bool checkpointing = CheckpointingEnabled();
    std::vector<Segment::Entry> needed;
    for (uint32_t i = 0; i < seg.entry_count(); ++i) {
      const PageId page = seg.live_page(i);
      if (page == kInvalidPage) {
        if (checkpointing) {
          const Segment::Entry rec = seg.RecordEntry(i);
          if (rec.page != kInvalidPage && !SuccessorRecorded(rec.page)) {
            needed.push_back(rec);
          }
        }
        continue;
      }
      if (checkpointing) needed.push_back(seg.RecordEntry(i));
      MovedPage mp;
      mp.page = page;
      mp.bytes = seg.entry_bytes(i);
      mp.up2 = seg_up2;
      mp.exact_upf = oracle_ ? oracle_(page) : 0.0;
      // A live entry's last_update is its page's (CheckInvariants, 4).
      assert(seg.entry_last_update(i) == table_.Get(page).last_update);
      if (oracle_) {
        mp.est_upf = mp.exact_upf;
      } else {
        const UpdateCount last_update = seg.entry_last_update(i);
        mp.est_upf = unow_ > last_update
                         ? 1.0 / static_cast<double>(unow_ - last_update)
                         : 0.0;
      }
      moved->push_back(mp);
    }
    if (runs != nullptr && moved->size() > run_begin) {
      runs->push_back(MovedRun{run_begin, moved->size(), seg_up2});
    }
    seg.Reset();
    InvalidateCheckpointChain(id);
    free_list_.push_back(id);
    // The backend is told later (ReleaseReclaims): a durable free record
    // now would let a crash erase this victim's entries while its moved
    // pages are still in unsealed destinations.
    reclaim_queue_.push_back(QueuedReclaim{id, unow_, std::move(needed)});
  }
  return reclaimed;
}

bool StoreShard::SuccessorRecorded(PageId page) const {
  // Absent: the delete's tombstone was emitted (and precedes any free
  // record in log order). Otherwise the current version must sit at a
  // real entry of a non-free segment — sealed segments are recorded, and
  // open ones are covered by the checkpoint round ReleaseSafeReclaims
  // runs before emitting frees. Buffered or mid-placement versions (the
  // table still pointing at a stale or dangling location) are not
  // recorded anywhere yet.
  const PageMeta& m = table_.Get(page);
  if (!m.loc.Present()) return true;
  if (m.loc.InBuffer()) return false;
  if (m.loc.segment >= segments_.size()) return false;
  const Segment& s = segments_[m.loc.segment];
  if (s.state() == SegmentState::kFree) return false;
  if (m.loc.index >= s.entry_count()) return false;
  return s.live_page(m.loc.index) == page;
}

bool StoreShard::SuccessorEmitted(PageId page) const {
  // As SuccessorRecorded, but a version sitting in a merely-open
  // segment does not count: nothing has been emitted for it yet (the
  // caller must sequence a checkpoint round itself if it wants open
  // segments covered). Note this can never match the victim's own entry
  // a caller is testing — the victim was Reset at harvest, so a table
  // location still pointing there is dangling, not a match.
  const PageMeta& m = table_.Get(page);
  if (!m.loc.Present()) return true;
  if (m.loc.InBuffer()) return false;
  if (m.loc.segment >= segments_.size()) return false;
  const Segment& s = segments_[m.loc.segment];
  if (s.state() != SegmentState::kSealed) return false;
  if (m.loc.index >= s.entry_count()) return false;
  return s.live_page(m.loc.index) == page;
}

Status StoreShard::EmitRehome(SegmentId victim,
                              std::vector<Segment::Entry> entries) {
  ++ops_since_checkpoint_;
  BackendSegmentRecord rec;
  rec.id = victim;
  rec.log = 0;
  rec.source = SegmentSource::kGc;
  rec.open_time = unow_;
  rec.seal_time = unow_;
  rec.unow = unow_;
  rec.entries = std::move(entries);
  SealPipeline::Op op;
  op.kind = SealPipeline::Op::Kind::kRehome;
  op.record = std::move(rec);
  uint64_t ticket = 0;
  Status s = EnqueueOp(std::move(op), &ticket);
  if (!s.ok()) return s;
  // Queue order already puts the rehome ahead of the reused slot's
  // future seal, and the backend syncs the record internally; waiting
  // here only surfaces a backend failure now, before the shard commits
  // to the reuse.
  return pipeline_.WaitApplied(ticket);
}

Status StoreShard::ReleaseSafeReclaims() {
  if (reclaim_queue_.empty()) return Status::OK();
  auto releasable = [this](const QueuedReclaim& qr) {
    // Every needed entry's current version must be recorded — or be
    // coverable by the checkpoint round below. Harvested-but-unplaced
    // pages fail this automatically: their table location dangles at
    // the Reset victim until the copy is placed.
    for (const Segment::Entry& e : qr.needed) {
      if (!SuccessorRecorded(e.page)) return false;
    }
    return true;
  };
  bool any = false;
  for (const QueuedReclaim& qr : reclaim_queue_) {
    if (releasable(qr)) {
      any = true;
      break;
    }
  }
  if (!any) return Status::OK();
  // One checkpoint round puts every successor or relocated copy still
  // sitting in an open segment on the device ahead of the free records.
  Status s = CheckpointOpenSegments();
  if (!s.ok()) return s;
  // A mid-loop emission failure leaves the queue partially compacted;
  // that is fine — the caller poisons the shard on any failure here.
  size_t kept = 0;
  for (size_t i = 0; i < reclaim_queue_.size(); ++i) {
    QueuedReclaim& qr = reclaim_queue_[i];
    if (releasable(qr)) {
      s = EmitReclaim(qr.id, qr.unow);
      if (!s.ok()) return s;
    } else {
      // Guard against self-move: moving an element onto itself would
      // leave its needed list in a moved-from (empty) state and let a
      // later round release it prematurely.
      if (kept != i) reclaim_queue_[kept] = std::move(qr);
      ++kept;
    }
  }
  reclaim_queue_.resize(kept);
  return Status::OK();
}

Status StoreShard::ReleaseReclaims() {
  while (!reclaim_queue_.empty()) {
    const QueuedReclaim& qr = reclaim_queue_.back();
    Status s = EmitReclaim(qr.id, qr.unow);
    if (!s.ok()) return s;
    reclaim_queue_.pop_back();
  }
  return Status::OK();
}

Status StoreShard::Clean(uint32_t triggering_log) {
  cleaning_ = true;
  Status result = Status::OK();
  const size_t batch =
      std::max<size_t>(1, policy_->PreferredBatch(config_.clean_batch_segments));

  // Progress is measured in reclaimed *bytes*, not free-list growth: a
  // cycle can free one victim and immediately consume one segment for the
  // relocated pages (net zero on the pool) while still reclaiming most of
  // a segment's worth of dead space — those dribbles accumulate into free
  // segments over the next cycles. The device is declared full only after
  // repeated cycles whose victims were fully live (nothing reclaimable),
  // with a generous cycle cap as a backstop.
  int no_progress_cycles = 0;
  uint64_t cycle_cap = 16ull * config_.num_segments;
  while (free_list_.size() <= config_.clean_trigger_segments) {
    if (cycle_cap-- == 0) {
      result = Status::OutOfSpace("cleaning cycle cap exceeded");
      break;
    }
    const size_t free_before = free_list_.size();

    std::vector<SegmentId>& victims = clean_victims_;
    victims.clear();
    policy_->SelectVictims(*this, triggering_log, batch, &victims);
    if (victims.empty()) {
      result = Status::OutOfSpace("cleaner found no victim segments");
      break;
    }

    // Read phase: collect the still-live pages of every victim, then free
    // the victims. GC'd pages carry their segment's up2 (§5.2.2 "Garbage
    // Collection Writes").
    std::vector<MovedPage>& moved = clean_moved_;
    std::vector<MovedRun>& runs = clean_runs_;
    moved.clear();
    runs.clear();
    uint64_t reclaimed = HarvestVictims(victims, &moved, &runs);
    ++stats_.cleanings;

    if (config_.separate_gc_writes) {
      if (oracle_) {
        std::stable_sort(moved.begin(), moved.end(),
                         [](const MovedPage& a, const MovedPage& b) {
                           return a.exact_upf > b.exact_upf;
                         });
      } else {
        // Hottest first by up2. Every page of a victim carries that
        // victim's up2, so the stable sort of the pages is the stable
        // sort of the victims' runs, concatenated.
        std::stable_sort(runs.begin(), runs.end(),
                         [](const MovedRun& a, const MovedRun& b) {
                           return a.up2 > b.up2;
                         });
        std::vector<MovedPage>& sorted = clean_sorted_;
        sorted.clear();
        for (const MovedRun& r : runs) {
          sorted.insert(sorted.end(), moved.begin() + r.begin,
                        moved.begin() + r.end);
        }
        moved.swap(sorted);
      }
    }

    // Write phase: relocate. Placement allocates from the just-freed
    // pool; moved bytes never exceed the freed capacity, but policies
    // that fan pages out across many logs (multi-log) can transiently
    // need more *open* segments than one cycle frees. On out-of-space,
    // harvest one more victim and retry rather than declaring the device
    // full.
    bool place_failed = false;
    int emergencies = 0;
    for (size_t i = 0; i < moved.size();) {
      if (i + kPrefetchDistance < moved.size()) {
        table_.Prefetch(moved[i + kPrefetchDistance].page);
      }
      const MovedPage& mp = moved[i];
      Status s = PlacePage(mp.page, EnsurePage(mp.page), mp.bytes, mp.up2,
                           mp.exact_upf, mp.est_upf, /*is_gc=*/true);
      if (s.ok()) {
        // The copy is placed: the page's table location now points at
        // the destination, so the source victim's needed entry for it
        // reads as recorded (SuccessorRecorded) from here on.
        ++i;
        continue;
      }
      std::vector<SegmentId> extra;
      if (s.code() == Status::Code::kOutOfSpace && emergencies < 8) {
        policy_->SelectVictims(*this, triggering_log, 1, &extra);
      }
      if (extra.empty()) {
        result = s;
        place_failed = true;
        break;
      }
      ++emergencies;
      // Appended after the ordered runs; then retry moved[i].
      reclaimed += HarvestVictims(extra, &moved, /*runs=*/nullptr);
    }
    if (place_failed) break;

    if (reclaimed == 0 && free_list_.size() <= free_before) {
      if (++no_progress_cycles >= 3) {
        result = Status::OutOfSpace("cleaning made no progress");
        break;
      }
    } else {
      no_progress_cycles = 0;
    }
  }

  // Victims whose moved pages all landed in segments that sealed during
  // the cycle need not wait for the next organic seal. In checkpoint
  // mode release eagerly even while destinations are still open: the
  // write phase placed every moved page, so one checkpoint round makes
  // the copies durable and the free records (of victims without
  // unresolved successors) can follow — keeping the free pool clear of
  // withheld slots, so the allocation skip above rarely has to divert.
  if (CheckpointingEnabled()) {
    if (!reclaim_queue_.empty() && result.ok()) {
      Status r = ReleaseSafeReclaims();
      if (!r.ok()) result = r;
    }
  } else if (gc_dirty_open_.empty() && !reclaim_queue_.empty()) {
    Status r = ReleaseReclaims();
    if (result.ok() && !r.ok()) result = r;
  }

  cleaning_ = false;
  return result;
}

Status StoreShard::Recover() {
  BackendRecovery log;
  Status s = backend_->Scan(&log);
  if (!s.ok()) return s;
  ResolvedRecovery resolved;
  s = ResolveRecovery(std::move(log), config_.num_segments, &resolved);
  if (!s.ok()) return s;

  auto check_page = [this](PageId page, const char* holder) {
    if (page >= PageTable::kMaxPages) {
      return Status::Corruption("recovery: page id beyond the page table");
    }
    if (!OwnsPage(page)) {
      return Status::Corruption(
          std::string("recovery: ") + holder +
          " holds a page this shard does not own (was the store created "
          "with a different shard count?)");
    }
    return Status::OK();
  };

  // Rebuild each sealed segment exactly as the original run filled it:
  // same entry order, same up2 accumulation, so the seal-time up2 the
  // cleaning policies rank by comes back bit-for-bit.
  std::vector<uint8_t> is_sealed(segments_.size(), 0);
  for (const ResolvedRecovery::Slot& slot : resolved.slots) {
    const BackendSegmentRecord& rec = slot.record;
    Segment& seg = segments_[rec.id];
    seg.Open(rec.log, rec.source, rec.open_time);
    for (const Segment::Entry& e : rec.entries) {
      if (!seg.HasRoomFor(e.bytes)) {
        return Status::Corruption("recovery: entries overflow segment");
      }
      if (e.page == kInvalidPage) {
        seg.AppendDead(e.bytes, e.up2);
        continue;
      }
      if (s = check_page(e.page, "segment"); !s.ok()) return s;
      seg.Append(e.page, e.bytes, e.up2, e.exact_upf, e.seq, e.last_update);
    }
    seg.Seal(rec.seal_time);
    is_sealed[rec.id] = 1;
  }
  size_t unplaced = 0;  // re-homed winners still without a slot
  for (const ResolvedRecovery::Rehomed& r : resolved.rehomed) {
    for (size_t i = 0; i < r.record.entries.size(); ++i) {
      const PageId page = r.record.entries[i].page;
      if (page == kInvalidPage) continue;
      if (s = check_page(page, "re-homing record"); !s.ok()) return s;
      unplaced += r.wins[i];
    }
  }

  // Winners in slots enter the page table; every other version in a
  // slot is dead.
  for (const ResolvedRecovery::Slot& slot : resolved.slots) {
    const BackendSegmentRecord& rec = slot.record;
    for (uint32_t i = 0; i < rec.entries.size(); ++i) {
      const Segment::Entry& e = rec.entries[i];
      if (e.page == kInvalidPage) continue;
      if (slot.wins[i]) {
        PageMeta& m = EnsurePage(e.page);
        m.loc = PageLocation{rec.id, i};
        m.bytes = e.bytes;
        m.last_update = e.last_update;
      } else {
        segments_[rec.id].Kill(i, e.exact_upf);
      }
    }
  }

  // Remaining segments are free, lowest id allocated first as in a
  // fresh store.
  free_list_.clear();
  for (uint32_t i = config_.num_segments; i > 0; --i) {
    if (!is_sealed[i - 1]) free_list_.push_back(i - 1);
  }

  unow_ = std::max(unow_, resolved.unow);
  write_seq_ = std::max(write_seq_, resolved.max_seq);

  // Materialise winning re-homed entries into fresh GC segments and
  // re-emit them under real seal records, so the next recovery resolves
  // the same versions from ordinary slots (the new seal outranks the
  // re-homing record by log position — repeated crash/recover cycles
  // stay idempotent). Packed in log order, lowest free slot first.
  auto take_slot = [this, &unplaced](SegmentId* out) -> Status {
    if (!free_list_.empty()) {
      *out = free_list_.back();
      free_list_.pop_back();
      return Status::OK();
    }
    // Every slot is durably recorded. This assumes the reuse that forced
    // the re-homing left the old victim slot fully dead after resolution
    // (each of its entries lost to the re-homing record or to an earlier
    // superseding record), and frees one such slot: its free record
    // erases nothing live and precedes the new seal in the log, mirroring
    // the runtime reuse order. Crash images taken under the async seal
    // pipeline can break the assumption (ROADMAP, "Find the re-homing
    // recovery bug by sweeping every crash point"); Open then fails here.
    for (SegmentId id = 0; id < segments_.size(); ++id) {
      Segment& seg = segments_[id];
      if (seg.state() != SegmentState::kSealed || seg.live_count() != 0) {
        continue;
      }
      Status rs = EmitReclaim(id, unow_);
      if (!rs.ok()) return rs;
      seg.Reset();
      *out = id;
      return Status::OK();
    }
    return Status::Corruption(
        "recovery: no slot available to materialise re-homed entries (" +
        std::to_string(unplaced) + " still unplaced)");
  };
  SegmentId cur = kInvalidSegment;
  for (const ResolvedRecovery::Rehomed& r : resolved.rehomed) {
    for (size_t i = 0; i < r.record.entries.size(); ++i) {
      if (!r.wins[i]) continue;
      const Segment::Entry& e = r.record.entries[i];
      if (cur == kInvalidSegment || !segments_[cur].HasRoomFor(e.bytes)) {
        if (cur != kInvalidSegment) {
          segments_[cur].Seal(unow_);
          Status es = EmitSeal(cur, segments_[cur]);
          if (!es.ok()) return es;
        }
        Status as = take_slot(&cur);
        if (!as.ok()) return as;
        segments_[cur].Open(/*log=*/0, SegmentSource::kGc, unow_);
      }
      const uint32_t idx = segments_[cur].Append(
          e.page, e.bytes, e.up2, e.exact_upf, e.seq, e.last_update);
      PageMeta& m = EnsurePage(e.page);
      m.loc = PageLocation{cur, idx};
      m.bytes = e.bytes;
      m.last_update = e.last_update;
      ++stats_.rehome_entries_recovered;
      --unplaced;
    }
  }
  if (cur != kInvalidSegment) {
    segments_[cur].Seal(unow_);
    Status es = EmitSeal(cur, segments_[cur]);
    if (!es.ok()) return es;
  }

  return CheckInvariants();
}

Status StoreShard::CheckInvariants() const {
  // 1. Segment counters match entries.
  for (SegmentId id = 0; id < segments_.size(); ++id) {
    if (!segments_[id].CheckCountersConsistent()) {
      return Status::Corruption("segment counters inconsistent");
    }
  }
  // 2. Free-list segments are in kFree state, uniquely listed.
  std::vector<uint8_t> in_free(segments_.size(), 0);
  for (SegmentId id : free_list_) {
    if (id >= segments_.size()) return Status::Corruption("bad free id");
    if (in_free[id]) return Status::Corruption("duplicate free id");
    in_free[id] = 1;
    if (segments_[id].state() != SegmentState::kFree) {
      return Status::Corruption("free-list segment not free");
    }
  }
  for (SegmentId id = 0; id < segments_.size(); ++id) {
    if (segments_[id].state() == SegmentState::kFree && !in_free[id]) {
      return Status::Corruption("free segment missing from free list");
    }
  }
  // 3. Every open segment is registered as the open segment of its
  // (log, stream); none may leak outside the map.
  {
    size_t open_count = 0;
    for (const Segment& s : segments_) {
      open_count += (s.state() == SegmentState::kOpen) ? 1 : 0;
    }
    size_t tracked = 0;
    for (const SegmentId id : open_segments_) {
      if (id == kInvalidSegment) continue;
      ++tracked;
      if (segments_[id].state() != SegmentState::kOpen) {
        return Status::Corruption("tracked open segment not open");
      }
    }
    if (open_count != tracked || open_count != open_count_) {
      return Status::Corruption("open segment not tracked in map");
    }
  }
  // 4. Every present page owned by this shard points at a live entry
  // holding its id, size and last_update (HarvestVictims reads the
  // entry's copy), and every live entry is pointed at by exactly its
  // page. (The page table is shared; pages of other shards point into
  // their own shard's segments and are skipped here.)
  uint64_t live_entries = 0;
  for (const Segment& s : segments_) live_entries += s.live_count();
  // An unsettled buffered write leaves its previous version live: an
  // earlier buffer slot, or a live entry holding the page, which no
  // present page points at any more.
  for (size_t k = buffer_settled_; k < buffer_.Count(); ++k) {
    const BufferedWrite& w = buffer_.Get(k);
    if (w.first_write) continue;
    const PageLocation& prev = w.prev;
    if (prev.InBuffer()) {
      if (prev.index >= k || buffer_.Get(prev.index).page != w.page) {
        return Status::Corruption("pending write's previous slot does not hold page");
      }
      continue;
    }
    if (prev.segment >= segments_.size() ||
        segments_[prev.segment].state() == SegmentState::kFree ||
        prev.index >= segments_[prev.segment].entry_count() ||
        segments_[prev.segment].live_page(prev.index) != w.page) {
      return Status::Corruption("pending write's previous entry not live");
    }
    --live_entries;
  }
  uint64_t present_in_segments = 0;
  for (PageId p = 0; p < table_.Size(); ++p) {
    if (!OwnsPage(p)) continue;
    const PageMeta& m = table_.Get(p);
    if (!m.loc.Present()) continue;
    if (m.loc.InBuffer()) {
      if (m.loc.index >= buffer_.Count()) {
        return Status::Corruption("buffer slot out of range");
      }
      if (buffer_.Get(m.loc.index).page != p) {
        return Status::Corruption("buffer slot does not hold page");
      }
      continue;
    }
    ++present_in_segments;
    if (m.loc.segment >= segments_.size()) {
      return Status::Corruption("page points at bad segment");
    }
    const Segment& s = segments_[m.loc.segment];
    if (s.state() == SegmentState::kFree) {
      return Status::Corruption("page points at free segment");
    }
    if (m.loc.index >= s.entry_count()) {
      return Status::Corruption("page entry index out of range");
    }
    if (s.live_page(m.loc.index) != p) {
      return Status::Corruption("entry does not hold page");
    }
    if (s.entry_bytes(m.loc.index) != m.bytes) {
      return Status::Corruption("entry size mismatch");
    }
    if (s.entry_last_update(m.loc.index) != m.last_update) {
      return Status::Corruption("entry last_update mismatch");
    }
  }
  if (present_in_segments != live_entries) {
    return Status::Corruption("live entry count != present page count");
  }
  return Status::OK();
}

}  // namespace lss
