#ifndef LSS_CORE_STORE_SHARD_H_
#define LSS_CORE_STORE_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/config.h"
#include "core/io_backend.h"
#include "core/page_table.h"
#include "core/seal_pipeline.h"
#include "core/segment.h"
#include "core/stats.h"
#include "core/types.h"
#include "core/write_buffer.h"
#include "util/radix_order.h"
#include "util/rng.h"

namespace lss {

/// Shard a page id routes to: a SplitMix64 hash decorrelates page ids
/// from their routing so contiguous id ranges spread across shards.
/// Every layer (ShardedStore, invariant checks, workload partitioning)
/// must agree on this one function.
inline uint32_t PageShard(PageId page, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<uint32_t>(SplitMix64(page) % num_shards);
}

/// One independent log-structured log: segments, free pool, open
/// segments, user write buffer, update-count clock, stats and cleaning
/// policy — the complete single-log state of the paper's simulator
/// (§6.1.1). A ShardedStore owns one or more shards and routes pages to
/// them by hash; with one shard it is the paper's simulator.
///
/// The page table is *shared*: each shard holds a reference to a
/// lock-free PageTable so that a dense global table serves all shards.
/// The table synchronises only its own chunk publication. A shard only
/// ever touches metadata of pages it owns (PageShard), so the shard-level
/// serialisation below is all the per-page fields need.
///
/// Concurrency contract: a StoreShard is NOT internally synchronised.
/// All calls on one shard must be serialised by the caller (ShardedStore
/// wraps every shard in its own mutex). The cleaning policy instance is
/// owned by the shard, so policy state (e.g. multi-log's band maps) is
/// confined to the shard and needs no locking of its own. Every backend
/// op goes through the shard's SealPipeline, applied inline or, with
/// StoreConfig::async_seal, by one I/O thread in emission order off the
/// write path; that thread never touches shard state, so the contract
/// above is unchanged.
///
/// The write path implements the paper's MDC machinery (§5): an optional
/// user write buffer whose contents are sorted by estimated update
/// frequency before being packed into segments, the up2 carry rules for
/// re-writes / first writes / GC writes, and separate (optionally sorted)
/// placement of GC'd pages.
class StoreShard {
 public:
  /// `table` must outlive the shard. `config` must already be validated;
  /// `policy` must be non-null. `shard_id`/`num_shards` define which
  /// pages the shard owns (all of them when num_shards <= 1). `backend`
  /// is the shard's persistence backend (null means the bookkeeping-only
  /// NullBackend); OpenBackend must be called before the first Write.
  StoreShard(const StoreConfig& config, std::unique_ptr<CleaningPolicy> policy,
             PageTable* table, uint32_t shard_id = 0, uint32_t num_shards = 1,
             std::unique_ptr<SegmentBackend> backend = nullptr);

  StoreShard(const StoreShard&) = delete;
  StoreShard& operator=(const StoreShard&) = delete;

  /// Closes (best effort) if the caller did not.
  ~StoreShard();

  /// Opens the persistence backend. `recover` true expects durable state
  /// from a previous run; follow with Recover() to rebuild from it.
  Status OpenBackend(bool recover = false);

  /// Rebuilds segments, free list, page-table entries and clocks from
  /// the backend's durable state (Open'd with recover = true). The
  /// newest version of each page wins by append sequence; delete
  /// tombstones keep dead pages dead. Leaves the shard ready for writes.
  Status Recover();

  /// Flushes the write buffer, seals all open segments so their contents
  /// are durable, and closes the backend. The shard rejects further
  /// writes afterwards. Called automatically at destruction, but callers
  /// that care about the resulting Status (or about durability
  /// guarantees) should call it explicitly.
  Status Close();

  /// Installs an exact update-frequency oracle for the `*-opt` policy
  /// variants. Must be set before the first Write. The oracle must be
  /// normalised so the mean frequency over user pages is 1, and must be
  /// safe to call from any shard's thread.
  void SetExactFrequencyOracle(ExactFrequencyFn oracle);

  /// Writes (inserts or updates) page `page`. `bytes` of 0 means the
  /// configured default page size. Advances the update-count clock.
  /// Fails with kOutOfSpace when cleaning cannot reclaim room.
  Status Write(PageId page, uint32_t bytes = 0);

  /// The argument checks of Write: the page id must fit the page table
  /// and the page must fit a segment. Reads only the configuration, so it
  /// is safe to call without the shard's lock.
  Status CheckWriteArgs(PageId page, uint32_t bytes) const;

  /// Removes a page; its storage becomes reclaimable garbage.
  Status Delete(PageId page);

  /// Drains any buffered user writes into segments.
  Status Flush();

  /// Durable barrier: flushes the buffer, persists a checkpoint record
  /// for every non-empty open segment, and waits until everything
  /// emitted so far (async mode: the whole seal queue) is applied and
  /// synced. On return every previously acknowledged write survives a
  /// crash. Requires checkpointing or a durable barrier to make sense —
  /// works in both sync and async modes, with any backend.
  Status Checkpoint();

  /// True if `page` currently has a live version (buffered or stored).
  bool Contains(PageId page) const { return table_.Present(page); }

  /// Reads the current version's payload through the backend. Only pages
  /// whose version lives in a *sealed* segment are readable — buffered or
  /// open-segment versions have not reached the device yet (Close seals
  /// everything, so after reopen every live page is readable). The null
  /// backend synthesizes the deterministic payload pattern.
  Status ReadPage(PageId page, std::vector<uint8_t>* out) const;

  /// Size in bytes of the current version of `page` (0 if absent).
  uint32_t PageSize(PageId page) const {
    const PageMeta& m = table_.Get(page);
    return m.loc.Present() ? m.bytes : 0;
  }

  // --- Introspection (used by policies, benches and tests) -----------

  const StoreConfig& config() const { return config_; }
  /// All counters, by value: the shard's own merged with its seal
  /// pipeline's (device_*, checkpoint records, and in async
  /// mode seal_queue_* / group_fsync*; see SealPipeline::StatsSnapshot).
  StoreStats stats() const;

  /// Zeroes all counters, shard- and pipeline-side (the pipeline waits
  /// out its queue first, so no in-flight op straddles the reset).
  void ResetMeasurement();

  const CleaningPolicy& policy() const { return *policy_; }
  const SegmentBackend& backend() const { return *backend_; }

  uint32_t shard_id() const { return shard_id_; }
  uint32_t num_shards() const { return num_shards_; }

  /// True if this shard is the routing target of `page`.
  bool OwnsPage(PageId page) const {
    return num_shards_ <= 1 || PageShard(page, num_shards_) == shard_id_;
  }

  /// The update-count clock unow (paper §5.1.2). Each shard keeps its own
  /// clock, ticking once per user update routed to it.
  UpdateCount unow() const { return unow_; }

  /// All physical segments of this shard, indexed by (shard-local)
  /// SegmentId.
  const std::vector<Segment>& segments() const { return segments_; }

  /// Number of segments currently in the free pool.
  size_t FreeSegmentCount() const { return free_list_.size(); }

  /// Number of live (present) pages owned by this shard. O(P); for tests
  /// and diagnostics.
  size_t LivePageCount() const;

  /// One past the highest page id this shard has materialised in the
  /// page table. Unlike the shared table's Size(), no other shard moves
  /// it, so policies reading it stay deterministic when shards run on
  /// threads; at one shard the two are equal.
  size_t page_id_limit() const { return page_id_limit_; }

  /// Whether an exact-frequency oracle is installed.
  bool HasOracle() const { return static_cast<bool>(oracle_); }

  /// Current update-frequency estimate for `page`: the oracle value when
  /// installed, otherwise 1/(interval since the page's last update) —
  /// the "previous update timestamp" estimate the multi-log paper uses.
  /// Returns 0 for pages with no history.
  double EstimateUpf(PageId page) const;

  /// Fill factor in effect: live page bytes / shard device bytes.
  double CurrentFillFactor() const;

  /// Exhaustive cross-check of page table <-> segment entries <-> free
  /// list <-> counters, restricted to pages this shard owns. O(device).
  /// Returns the first inconsistency found.
  Status CheckInvariants() const;

 private:
  // A page version being relocated by the cleaner.
  struct MovedPage {
    PageId page;
    uint32_t bytes;
    double up2;        // carried from the victim segment (§5.2.2)
    double exact_upf;  // oracle value or 0
    double est_upf;    // placement estimate at clean time
  };
  // One victim's harvested pages, moved[begin, end), all carrying its up2.
  struct MovedRun {
    size_t begin;
    size_t end;
    double up2;
  };

  // Streams keep user data and cleaner output in different open segments.
  static constexpr uint32_t kUserStream = 0;
  static constexpr uint32_t kGcStream = 1;

  // Kills the old version of `page` at segment entry `loc` prior to
  // rewriting or deleting it.
  void KillOldVersion(PageId page, const PageLocation& loc);

  // Settles buffered write writes[k] of writes[0, end): carries its
  // previous version's up2 forward (§5.2.2 "Non-first Write") and kills
  // that version's segment entry, or marks a previous buffered copy
  // superseded. Writes must be settled in arrival order. Also prefetches
  // for the writes ahead of k.
  void SettleWrite(BufferedWrite* writes, size_t k, size_t end);

  // Settles every buffered write not yet settled.
  void SettleBuffered();

  Status FlushUserBuffer();

  // table_.Ensure(page), noting the page in page_id_limit_.
  PageMeta& EnsurePage(PageId page) {
    page_id_limit_ = std::max<size_t>(page_id_limit_, page + 1);
    return table_.Ensure(page);
  }

  // Appends one page version to the open segment of the policy-chosen
  // log. `meta` is `page`'s table slot, which is remapped to the new
  // version (unless dead on arrival). Updates stats.
  Status PlacePage(PageId page, PageMeta& meta, uint32_t bytes, double up2,
                   double exact_upf, double est_upf, bool is_gc,
                   bool dead_on_arrival = false);

  // Returns the open segment for (log, stream), opening one if needed.
  // Returns nullptr on out-of-space.
  Segment* OpenSegmentFor(uint32_t log, uint32_t stream, bool is_gc,
                          SegmentId* id_out);

  // Seals the open segment of (log, stream) and persists it through the
  // backend. A backend write failure is returned (and must stop the
  // write path — the in-memory seal already happened, but durability is
  // gone).
  Status SealOpenSegment(uint32_t log, uint32_t stream);

  // Pops a free segment, running the cleaner first if the pool is low.
  SegmentId AllocateSegment(uint32_t log);

  // Reads the live pages of `victims` into `moved` (recording clean-time
  // emptiness), and each victim's span of them into `runs` unless null,
  // then resets the victims and returns them to the free pool, queueing
  // their backend reclaim for a crash-safe release point (see
  // reclaim_queue_). Returns the reclaimed (dead) bytes across the
  // victims.
  uint64_t HarvestVictims(const std::vector<SegmentId>& victims,
                          std::vector<MovedPage>* moved,
                          std::vector<MovedRun>* runs);

  // One cleaning invocation: repeatedly selects a victim batch, relocates
  // live pages, and frees the victims, until the free pool is above the
  // trigger or no progress is possible. Cleaning is entirely shard-local:
  // victims, relocation targets and the policy all belong to this shard,
  // so concurrent shards never contend on a victim.
  Status Clean(uint32_t triggering_log);

  static uint64_t OpenKey(uint32_t log, uint32_t stream) {
    return (static_cast<uint64_t>(log) << 1) | stream;
  }

  // The open segment of OpenKey `key`, or kInvalidSegment.
  SegmentId OpenSegmentAt(uint64_t key) const {
    return key < open_segments_.size() ? open_segments_[key]
                                       : kInvalidSegment;
  }

  // Builds the backend's durable record for a segment this shard is
  // sealing (snapshots the entry list with current liveness). With
  // `checkpoint` the segment is still open and the record marks a
  // replayable prefix.
  BackendSegmentRecord MakeSealRecord(SegmentId id, const Segment& seg,
                                      bool checkpoint = false) const;

  // Announces every queued victim reclaim to the backend. Called only
  // when it is crash-safe to do so — see reclaim_queue_ below.
  Status ReleaseReclaims();

  // --- Backend emission: one seam for sync and async modes -----------
  // Every Emit* enqueues onto the seal pipeline, whose queue order
  // preserves the emission order. Inline (sync mode) a backend failure
  // returns from the Emit* call; threaded, from a later call.

  // A rejected enqueue maps to the pipeline's sticky error (or a
  // stopped-pipeline error). `ticket_out` receives the op's ticket.
  Status EnqueueOp(SealPipeline::Op op, uint64_t* ticket_out = nullptr);

  Status EmitSeal(SegmentId id, const Segment& seg);
  // Full record of an open segment, or with `delta`
  // (StoreConfig::checkpoint_delta) only the suffix past the slot's
  // durable watermark, chained to the previous record.
  Status EmitCheckpoint(SegmentId id, const Segment& seg, bool delta);
  // Checkpoint decision for one open segment: skip when the emitted
  // chain already covers every entry, delta when a same-generation chain
  // exists, full otherwise (no chain, generation changed or delta
  // disabled).
  Status EmitOpenSegmentCheckpoint(SegmentId id, const Segment& seg);
  Status EmitReclaim(SegmentId id, UpdateCount unow);
  Status EmitDelete(PageId page, uint64_t seq, UpdateCount unow);

  bool CheckpointingEnabled() const {
    return config_.checkpoint_interval_ops > 0;
  }

  // Bumps the slot's fill generation and closes its emitted chain; any
  // later checkpoint of the slot starts over with a full record. Called
  // whenever the slot's payload identity changes: Segment::Open (reuse),
  // seal, and harvest/reset.
  void InvalidateCheckpointChain(SegmentId id) {
    ++slot_generation_[id];
    ckpt_chain_[id].valid = false;
  }

  // Advances the durable watermark of every slot whose pending
  // checkpoint record the pipeline has applied AND synced (threaded
  // tickets only move after the batch group-fsync; inline, the backend
  // syncs each record before returning).
  void CommitDurableWatermarks();

  /// True if `id` is a cleaned victim whose free record is still
  /// withheld (reclaim_queue_ is at most a few entries, so linear).
  bool IsWithheld(SegmentId id) const {
    for (const QueuedReclaim& qr : reclaim_queue_) {
      if (qr.id == id) return true;
    }
    return false;
  }

  // Persists a checkpoint of every open segment currently holding
  // GC-moved pages (except `skip`, which is being sealed right now).
  // Called before a victim's free record is forced out by a slot reseal:
  // the checkpoints put the victim's relocated pages on the device ahead
  // of the free record, closing the PR 3 residual crash window.
  Status CheckpointGcDirtyOpen(SegmentId skip);

  // Emits a checkpoint for every non-empty open segment, in
  // deterministic key order.
  Status CheckpointOpenSegments();

  // Emits a checkpoint round (CheckpointOpenSegments) once
  // checkpoint_interval_ops backend ops have accumulated.
  Status MaybePeriodicCheckpoint();

  // True when `page`'s current version is recorded — or will be by the
  // next checkpoint round: absent (its tombstone was emitted at delete
  // time), or located at a real entry of a sealed/open segment. False
  // while the version sits in the write buffer or is still mid-placement
  // (the table then points at a stale or dangling location).
  bool SuccessorRecorded(PageId page) const;

  // Strict form of SuccessorRecorded: true only when the current version
  // is provably in an already-*emitted* backend record — absent
  // (tombstone emitted at delete time) or located in a sealed segment.
  // An open segment counts only via a completed checkpoint round, which
  // callers must sequence themselves; emission is permanent, so once
  // true for a given version the superseding record stays in the log.
  bool SuccessorEmitted(PageId page) const;

  // Persists a re-homing record carrying `entries` (still-needed entries
  // of withheld victim `victim`) before the slot is reused. The backend
  // makes the record durable internally — even mid-batch in async mode.
  Status EmitRehome(SegmentId victim, std::vector<Segment::Entry> entries);

  // Checkpoint mode: emits the free record of every withheld reclaim
  // whose erasure is safe — all pending successors recorded — after one
  // checkpoint round covering open segments. Reclaims with unresolved
  // successors stay withheld.
  Status ReleaseSafeReclaims();

  // Surfaces the pipeline's sticky error into sticky_error_ (async mode:
  // backend failures happen on the I/O thread and are reported on the
  // next store operation, like a late group-commit ack).
  void AbsorbPipelineError();

  StoreConfig config_;
  std::unique_ptr<CleaningPolicy> policy_;
  std::unique_ptr<SegmentBackend> backend_;
  /// The one emission path to backend_. Declared after backend_ so it
  /// shuts down before the backend is destroyed.
  SealPipeline pipeline_;
  ExactFrequencyFn oracle_;

  std::vector<Segment> segments_;
  std::vector<SegmentId> free_list_;
  /// Open segment of each (log, stream), indexed by OpenKey;
  /// kInvalidSegment where none is open. Index order is key order, so a
  /// walk over it emits in deterministic key order. Grows on demand
  /// (multi-log adds logs at run time).
  std::vector<SegmentId> open_segments_;
  /// Number of entries of open_segments_ that hold a segment.
  size_t open_count_ = 0;

  /// Cleaned victims whose reclaim has not yet been announced to the
  /// backend. A victim's durable free record erases its entries from
  /// recovery, so it must not become durable while the victim's
  /// relocated live pages sit in segments that have not sealed — the
  /// crash would lose previously-durable data. The shard therefore
  /// withholds ReclaimSegment until no open segment holds GC-moved
  /// pages (gc_dirty_open_ empty), or until the victim's slot itself is
  /// resealed with new data (at which point the old payload is being
  /// overwritten and withholding protects nothing; the free record must
  /// then precede the new seal record in the metadata log).
  ///
  /// Residual window (checkpointing OFF only): the simulator reuses
  /// freed slots immediately, so a victim can be resealed — forcing its
  /// free record out — while a GC segment holding its relocated pages is
  /// still open; a crash exactly there reverts those pages to older
  /// versions. With checkpoint_interval_ops > 0 the window is closed:
  /// CheckpointGcDirtyOpen persists those open segments immediately
  /// before the forced free record, so replay always finds the
  /// relocated copies. (Holding freed slots back instead would change
  /// allocation order and break the null-backend determinism contract.)
  struct QueuedReclaim {
    SegmentId id;
    UpdateCount unow;
    /// The victim entries its durable seal record still holds live that
    /// a recovery might need: live pages harvested but not yet placed
    /// (the table dangles at the victim mid-clean), and in-place-killed
    /// entries whose superseding version was not yet recorded at harvest
    /// time (write buffer or mid-placement) — exactly the entries the
    /// seal record keeps live under their original page
    /// (Segment::RecordEntry).
    /// While any remain unsettled the victim's durable record may be the
    /// only durable copy, so in checkpoint mode its free record is
    /// withheld (ReleaseSafeReclaims) and a reuse of the slot must first
    /// re-home them under a kMetaRehome record (AllocateSegment).
    /// Entries are pruned once their current version is provably in an
    /// *emitted* record (SuccessorEmitted after a checkpoint round);
    /// emission is permanent, so pruning never needs to be undone.
    std::vector<Segment::Entry> needed;
  };
  std::vector<QueuedReclaim> reclaim_queue_;
  /// Open segments that received GC-moved pages since they were opened,
  /// ascending by id. At most one per open GC stream, so a sorted vector.
  std::vector<SegmentId> gc_dirty_open_;

  /// Pipeline ticket of each segment's latest emitted seal, indexed by
  /// SegmentId. ReadPage waits on it so a read never races the payload
  /// write still sitting in the threaded queue (0 = never sealed here).
  std::vector<uint64_t> seal_ticket_;
  /// Backend ops emitted since the last checkpoint round (periodic
  /// checkpointing, see MaybePeriodicCheckpoint).
  uint64_t ops_since_checkpoint_ = 0;

  /// Per-slot fill generation, bumped by InvalidateCheckpointChain each
  /// time the slot's payload identity changes. A delta checkpoint is
  /// valid only against a chain of the same generation; watermarks
  /// committed late (async) are dropped when the generation moved on.
  std::vector<uint64_t> slot_generation_;
  /// What the slot's emitted (not necessarily durable) checkpoint chain
  /// covers. Skip-when-covered is judged against this: emitted records
  /// precede any later free record in queue = log order, which is all
  /// the crash-ordering invariants need.
  struct CheckpointChain {
    bool valid = false;
    uint64_t generation = 0;
    uint64_t emitted_entries = 0;
    uint64_t emitted_bytes = 0;
  };
  std::vector<CheckpointChain> ckpt_chain_;
  /// Checkpoint records emitted whose watermark has not committed yet.
  /// CommitDurableWatermarks, run before every checkpoint round and after
  /// every barrier, moves each into the Segment's watermark once the
  /// pipeline's applied ticket passes it (inline: always) — never
  /// earlier, so a delta's base range is always durable. Consecutive
  /// deltas of a slot may therefore overlap; byte-stability makes the
  /// overlap identical.
  struct PendingWatermark {
    SegmentId id;
    uint64_t generation;
    uint32_t entries;
    uint64_t bytes;
    uint64_t ticket;
  };
  std::vector<PendingWatermark> pending_watermarks_;

  PageTable& table_;
  size_t page_id_limit_ = 0;
  WriteBuffer buffer_;
  /// Buffered writes [0, buffer_settled_) are settled (SettleWrite). A
  /// buffered Write defers the kill of the previous version, so only the
  /// page table is touched under the caller's lock; the flush settles the
  /// rest in one prefetched pass. Between flushes, only Delete (which
  /// settles first, so kills keep arrival order), CheckInvariants and
  /// CurrentFillFactor (which account for the unsettled writes) read
  /// segment liveness.
  size_t buffer_settled_ = 0;
  /// FlushUserBuffer's batch and its placement order, reused across
  /// flushes: the batch trades storage with buffer_ (DrainInto), so
  /// neither regrows. The cleaner runs inside the flush's placement loop
  /// and must touch neither.
  std::vector<BufferedWrite> flush_batch_;
  RadixOrder flush_order_;
  /// Clean's victim batch, relocation list, its victims' runs and the
  /// list reordered by run, reused across cycles.
  std::vector<SegmentId> clean_victims_;
  std::vector<MovedPage> clean_moved_;
  std::vector<MovedRun> clean_runs_;
  std::vector<MovedPage> clean_sorted_;
  StoreStats stats_;

  uint32_t shard_id_;
  uint32_t num_shards_;

  UpdateCount unow_ = 0;
  /// Shard-wide append sequence: one tick per segment entry and delete
  /// tombstone, giving recovery a total version order per page.
  uint64_t write_seq_ = 0;
  bool cleaning_ = false;
  bool closed_ = false;
  Status sticky_error_;
};

}  // namespace lss

#endif  // LSS_CORE_STORE_SHARD_H_
