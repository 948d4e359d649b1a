#ifndef LSS_CORE_IO_BACKEND_H_
#define LSS_CORE_IO_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/segment.h"
#include "core/stats.h"
#include "core/types.h"
#include "util/rng.h"

namespace lss {

/// Durable record of one sealed segment: identity, placement metadata
/// and the full entry list in append order — `Segment::Entry` already
/// carries everything recovery needs (the shard-wide append `seq` that
/// orders page versions across segments, the page's `last_update` for
/// frequency estimates, the placement metadata, and the payload
/// `offset`). An entry with `page == kInvalidPage` was already dead at
/// seal time (a superseded buffered duplicate); its bytes still occupy
/// device space and are reconstructed as dead on recovery.
struct BackendSegmentRecord {
  SegmentId id = kInvalidSegment;
  uint32_t log = 0;
  SegmentSource source = SegmentSource::kNone;
  UpdateCount open_time = 0;
  UpdateCount seal_time = 0;
  /// Shard clock at seal; recovery restores unow to the max seen.
  UpdateCount unow = 0;
  /// True when this record snapshots a still-open segment (a checkpoint,
  /// see SegmentBackend::Checkpoint). Recovery rebuilds a checkpointed
  /// segment as sealed with the snapshot's entry prefix; a later real
  /// seal or free record for the same slot supersedes the checkpoint.
  bool checkpoint = false;
  /// Position of the record in the metadata log, assigned by Scan in
  /// replay order. Recovery breaks equal-seq ties between a page's
  /// surviving versions toward the later record, so a re-homing record
  /// beats the victim slot's original seal (whose payload region may be
  /// torn by the new occupant's crashing write) and a post-recovery
  /// reseal of a materialised slot beats the re-homing record that
  /// seeded it.
  uint64_t ordinal = 0;
  /// True for a delta checkpoint (SegmentBackend::CheckpointDelta): the
  /// record covers only the payload suffix appended since the durable
  /// watermark and chains to the previous checkpoint record of the same
  /// slot generation by ordinal. `entries` then holds only the suffix
  /// entries (their `offset` fields still name absolute positions in the
  /// slot payload).
  bool delta = false;
  /// Fill generation of the slot the chain belongs to (bumped by the
  /// shard on every Segment::Open of the slot). A delta is only valid
  /// against a base checkpoint of the same generation.
  uint64_t generation = 0;
  /// Ordinal of the previous checkpoint record in this slot's chain
  /// (full or delta). Assigned by the writing backend; recovery applies
  /// a delta only when its base_ordinal names the current chain tip.
  uint64_t base_ordinal = 0;
  /// Entries of the chain retained below this delta: recovery truncates
  /// the assembled entry list to this count before appending `entries`.
  uint64_t prefix_entries = 0;
  /// Payload byte range this delta rewrote: [suffix_offset,
  /// suffix_offset + suffix_length) within the slot.
  uint64_t suffix_offset = 0;
  uint64_t suffix_length = 0;
  std::vector<Segment::Entry> entries;
};

/// Everything a backend recovered from its durable state, in replay-
/// resolved form: the latest seal record per still-sealed segment, all
/// delete tombstones, and the high-water marks of the shard clocks.
struct BackendRecovery {
  std::vector<BackendSegmentRecord> segments;
  /// Re-homing records (SegmentBackend::RehomeEntries): still-needed
  /// entries of a withheld victim slot, persisted before that slot was
  /// reused. `id` names the victim; the entries have no payload of
  /// their own (pattern-reconstructible) and no surviving slot —
  /// recovery materialises the winners into fresh segments.
  std::vector<BackendSegmentRecord> rehomed;
  /// Delta checkpoint records in replay order (`delta` true). Unlike
  /// `segments` these are NOT last-record-per-slot resolved: recovery
  /// walks each slot's chain from its surviving full checkpoint record,
  /// applying every delta whose base_ordinal matches the chain tip;
  /// deltas orphaned by a later seal, free or full checkpoint of the
  /// slot simply never match and are ignored.
  std::vector<BackendSegmentRecord> deltas;
  /// (page, seq) delete tombstones; a tombstone newer than every surviving
  /// entry of a page means the page is absent.
  std::vector<std::pair<PageId, uint64_t>> deletes;
  uint64_t max_seq = 0;
  UpdateCount unow = 0;
};

/// Per-shard persistence backend behind StoreShard. The simulator's
/// bookkeeping (segments, page table, cleaning) stays in memory and is
/// bit-for-bit independent of the backend; the backend only mirrors
/// state transitions onto a device:
///
///   SealSegment    one segment's payload + metadata become durable
///   ReclaimSegment a cleaned segment's space is released
///   RecordDelete   a page delete becomes durable
///   Scan           rebuild the mirrored state after a restart
///
/// Exactly one backend instance exists per shard (PR 2 serialised each
/// shard behind its own mutex), so implementations need no internal
/// locking. All methods return Status; the shard treats any failure as
/// fatal for the affected operation (write failures become the store's
/// sticky error, exactly like out-of-space).
class SegmentBackend {
 public:
  virtual ~SegmentBackend() = default;

  /// Binds the backend to a shard's geometry and stats sink and makes it
  /// ready for writes. `recover` false starts from an empty device
  /// (truncating any leftover state); true requires existing durable
  /// state, which a following Scan() call reads — and that state's
  /// recorded geometry (shard id / shard count / segment layout) must
  /// match, so a store cannot silently reopen with a different shard
  /// count and lose the unvisited shards' pages. `stats` outlives the
  /// backend and receives the device_* counters.
  virtual Status Open(const StoreConfig& config, uint32_t shard_id,
                      uint32_t num_shards, StoreStats* stats,
                      bool recover) = 0;

  /// Persists a sealed segment (payload and metadata). Called by the
  /// shard immediately after the in-memory seal (or by its seal pipeline
  /// when StoreConfig::async_seal is on).
  virtual Status SealSegment(const BackendSegmentRecord& record) = 0;

  /// Persists a snapshot of a partially-filled *open* segment
  /// (`record.checkpoint` true): payload prefix plus a checkpoint
  /// metadata record. On recovery the snapshot acts as a seal record
  /// unless a later seal or free record supersedes it, so a crash loses
  /// at most the appends since the last checkpoint instead of the whole
  /// open segment. Backends that persist nothing accept and ignore it.
  virtual Status Checkpoint(const BackendSegmentRecord& record) {
    (void)record;
    return Status::OK();
  }

  /// Persists a suffix-only delta checkpoint (`record.delta` true):
  /// rewrites only the payload range [suffix_offset, suffix_offset +
  /// suffix_length) of the slot and appends a kMetaCheckpointDelta
  /// record chained (by ordinal) to the slot's previous checkpoint
  /// record, which must exist and carry the same generation — the shard
  /// guarantees this by falling back to a full Checkpoint() whenever the
  /// slot generation changed. Backends that persist nothing accept and
  /// ignore it.
  virtual Status CheckpointDelta(const BackendSegmentRecord& record) {
    (void)record;
    return Status::OK();
  }

  /// Persists a re-homing record: the still-needed entries of a
  /// withheld victim slot (`record.id`), written — and made durable,
  /// even in deferred-sync mode — BEFORE the shard reuses that slot, so
  /// a crash after the reuse overwrites the victim's payload can still
  /// recover the entries from the record (payloads are pattern-
  /// reconstructible). No payload is written. Backends that persist
  /// nothing accept and ignore it.
  virtual Status RehomeEntries(const BackendSegmentRecord& record) {
    (void)record;
    return Status::OK();
  }

  /// Group-commit hook: makes every operation accepted so far durable
  /// with (at most) one fsync pair, and releases any deferred
  /// space-reclamation work that required durability first. The seal
  /// pipeline calls this once per drained batch instead of paying one
  /// fsync per seal.
  virtual Status Sync() { return Status::OK(); }

  /// When on, SealSegment / Checkpoint / RecordDelete append without
  /// syncing and durability comes from explicit Sync() calls (the group
  /// commit mode the async pipeline runs in). When off (default) the
  /// backend syncs per operation as StoreConfig::backend_fsync demands.
  virtual void SetDeferredSync(bool on) { (void)on; }

  /// Power-loss simulation hook for crash tests: releases device
  /// resources WITHOUT flushing queued records or syncing, as if the
  /// process died this instant. Default backends just Close().
  virtual void Abandon() { Close(); }

  /// Releases a reclaimed segment's device space. Called after the
  /// cleaner reset a victim.
  virtual Status ReclaimSegment(SegmentId id, UpdateCount unow) = 0;

  /// Persists a delete tombstone so the page stays dead across reopen.
  virtual Status RecordDelete(PageId page, uint64_t seq, UpdateCount unow) = 0;

  /// Reads one page's payload from a sealed segment. `offset` is the
  /// byte offset of the version inside the segment (prefix sum of the
  /// preceding entries). Backends without stored payloads synthesize it.
  virtual Status ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                                 uint32_t bytes, std::vector<uint8_t>* out) = 0;

  /// Reads back the durable state written so far (only meaningful after
  /// Open(recover=true)).
  virtual Status Scan(BackendRecovery* out) = 0;

  /// Flushes and releases device resources. Idempotent; also invoked by
  /// destructors, which ignore the result.
  virtual Status Close() = 0;

  /// Diagnostic label ("null", "file").
  virtual std::string name() const = 0;
};

/// Deterministic page payload: 64-bit words keyed by (page id, word
/// index). Both FileBackend (when writing payloads) and NullBackend
/// (when synthesizing reads) use this pattern, so "is every live page
/// readable with the right contents" is checkable against any backend.
inline uint64_t PagePatternWord(PageId page, uint64_t word_index) {
  return SplitMix64(page * 0x9E3779B97F4A7C15ull + word_index + 1);
}

/// Fills `out[0, bytes)` with the pattern for `page`.
void FillPagePayload(PageId page, uint32_t bytes, uint8_t* out);

/// True if `data[0, bytes)` matches the pattern for `page`.
bool VerifyPagePayload(PageId page, uint32_t bytes, const uint8_t* data);

/// The bookkeeping-only backend: every hook succeeds without touching a
/// device, preserving the paper simulator's behaviour exactly. Scan
/// recovers nothing (a reopened null store is an empty store), and reads
/// synthesize the deterministic pattern.
class NullBackend : public SegmentBackend {
 public:
  Status Open(const StoreConfig&, uint32_t, uint32_t, StoreStats*,
              bool) override {
    return Status::OK();
  }
  Status SealSegment(const BackendSegmentRecord&) override {
    return Status::OK();
  }
  Status ReclaimSegment(SegmentId, UpdateCount) override {
    return Status::OK();
  }
  Status RecordDelete(PageId, uint64_t, UpdateCount) override {
    return Status::OK();
  }
  Status ReadPagePayload(SegmentId, uint64_t, PageId page, uint32_t bytes,
                         std::vector<uint8_t>* out) override {
    out->resize(bytes);
    FillPagePayload(page, bytes, out->data());
    return Status::OK();
  }
  Status Scan(BackendRecovery* out) override {
    *out = BackendRecovery{};
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::string name() const override { return "null"; }
};

/// Real file-backed persistence, one instance (= one pair of files) per
/// shard under StoreConfig::backend_dir:
///
///   shard-NNNN.dat   payload: segment slot i at byte offset
///                    i * segment_bytes, written whole (pwrite) when the
///                    segment seals; pages carry the deterministic
///                    pattern, dead entries are zero-filled.
///   shard-NNNN.meta  metadata log: one binary record per seal, reclaim
///                    and delete, appended in operation order and
///                    replayed by Scan (last record per segment wins).
///
/// fsync runs after each seal (and on Close) unless
/// StoreConfig::backend_fsync is off; payload writes use O_DIRECT when
/// backend_direct_io is set (requires 4 KiB-aligned segments; silently
/// falls back where the platform lacks O_DIRECT). Reclaim punches a hole
/// in the payload slot where fallocate supports it, returning the space
/// to the filesystem while keeping offsets stable.
///
/// Device counters (bytes written, write/fsync counts and seconds,
/// bytes punched) accumulate into the shard's StoreStats.
///
/// Subclassing: the payload write path is virtual (AcquirePayloadBuffer
/// / WritePayload / SyncBoth) so UringBackend (core/uring_backend.h) can
/// overlap payload writes through an io_uring ring while sharing the
/// metadata serialisation and Scan literally — the two backends produce
/// byte-identical metadata logs by construction.
class FileBackend : public SegmentBackend {
 public:
  FileBackend() = default;
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  Status Open(const StoreConfig& config, uint32_t shard_id,
              uint32_t num_shards, StoreStats* stats, bool recover) override;
  Status SealSegment(const BackendSegmentRecord& record) override;
  Status Checkpoint(const BackendSegmentRecord& record) override;
  Status CheckpointDelta(const BackendSegmentRecord& record) override;
  Status RehomeEntries(const BackendSegmentRecord& record) override;
  Status Sync() override;
  void SetDeferredSync(bool on) override { deferred_sync_ = on; }
  void Abandon() override;
  Status ReclaimSegment(SegmentId id, UpdateCount unow) override;
  Status RecordDelete(PageId page, uint64_t seq, UpdateCount unow) override;
  Status ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                         uint32_t bytes, std::vector<uint8_t>* out) override;
  Status Scan(BackendRecovery* out) override;
  Status Close() override;
  std::string name() const override { return "file"; }

  /// Path of the payload / metadata file for `shard_id` under `dir`.
  static std::string DataPath(const std::string& dir, uint32_t shard_id);
  static std::string MetaPath(const std::string& dir, uint32_t shard_id);

 protected:
  // Appends one complete metadata record, consuming one replay ordinal
  // (next_ordinal_) on success — the writer-side mirror of Scan's
  // per-record numbering, which delta records reference as base_ordinal.
  Status AppendMeta(const void* data, size_t len);

  // --- Payload-write seam (overridden by UringBackend) ----------------

  /// Returns the buffer the caller fills with one payload write's bytes
  /// (at least segment_bytes; 4 KiB-aligned), or nullptr on resource
  /// exhaustion. The base backend always hands out its single reusable
  /// payload_buf_; an overlapping backend hands out a pool slot that
  /// stays owned by the in-flight write until its completion is reaped.
  virtual uint8_t* AcquirePayloadBuffer();

  /// Writes `len` payload bytes from `buf` (a pointer previously
  /// returned by AcquirePayloadBuffer) at `offset` in the data file and
  /// accounts the device counters. The base backend blocks in pwrite;
  /// an overlapping backend may return after submission only — the
  /// bytes must be readable and durable-orderable by the next SyncBoth.
  virtual Status WritePayload(const uint8_t* buf, uint64_t len,
                              uint64_t offset);

  /// Durability barrier: every payload write issued so far has fully
  /// completed and both files are fsynced (fsync skipped when
  /// StoreConfig::backend_fsync is off — but an overlapping backend
  /// still waits out its in-flight writes, because callers may read or
  /// rewrite the ranges afterwards). Virtual for exactly that reason.
  virtual Status SyncBoth();

  // Shared payload-write + metadata-append path of SealSegment and
  // Checkpoint (they differ only in record type and durability rules).
  Status WriteSegmentRecord(const BackendSegmentRecord& record,
                            bool checkpoint);
  void ReleaseFds();

  // A reclaimed segment moves through three stages before its payload is
  // hole-punched, so the punch can never destroy data the metadata log
  // still references (see DrainReclaims in the .cc; the shard orders the
  // ReclaimSegment call itself relative to the relocated pages' seals).
  // `record_appended` and `record_durable` are distinct in group-commit
  // mode: several seals may pass between the append and the Sync() that
  // makes it durable, and the record must land exactly once.
  struct PendingReclaim {
    SegmentId id;
    UpdateCount unow;
    bool record_appended;  // free record written to the log
    bool record_durable;   // ...and covered by an fsync
    bool punch;            // cleared when the slot is resealed first
  };

  Status DrainReclaims(bool punching_allowed);

  StoreConfig config_;
  StoreStats* stats_ = nullptr;
  uint32_t shard_id_ = 0;
  uint32_t num_shards_ = 1;
  std::vector<PendingReclaim> pending_reclaims_;
  int data_fd_ = -1;
  /// Buffered fd for sub-segment page reads (O_DIRECT rejects unaligned
  /// preads); -1 when data_fd_ itself is buffered.
  int read_fd_ = -1;
  int meta_fd_ = -1;
  bool direct_io_ = false;
  /// Group-commit mode (SetDeferredSync): per-op fsyncs are skipped and
  /// Sync() supplies durability + releases deferred punches.
  bool deferred_sync_ = false;
  /// Append position in the metadata log.
  uint64_t meta_offset_ = 0;
  /// Replay ordinal the next appended record will carry (count of valid
  /// records in the log; Scan re-derives it on reopen).
  uint64_t next_ordinal_ = 0;
  /// Per-slot checkpoint-chain tip: ordinal and generation of the last
  /// checkpoint record (full or delta) appended for the slot, or -1 when
  /// no chain is open (after a seal or free record for the slot, and for
  /// every slot after Scan). CheckpointDelta links new records to the
  /// tip and refuses to append without one.
  std::vector<int64_t> chain_tip_ordinal_;
  std::vector<uint64_t> chain_generation_;
  /// Reused pwrite buffer for a whole segment (aligned when direct_io_).
  uint8_t* payload_buf_ = nullptr;
};

/// Test double: forwards every hook to a base backend (NullBackend by
/// default) but fails the Nth seal / reclaim / delete with a configured
/// status, and can simulate a whole-process power loss (CrashAfterOps).
/// Exercises the store's backend-error paths — sticky errors in Flush,
/// cleaning aborts — and drives the crash-recovery torture harness
/// (tests/integration/crash_recovery_test.cc).
class FaultInjectionBackend : public SegmentBackend {
 public:
  explicit FaultInjectionBackend(
      std::unique_ptr<SegmentBackend> base = nullptr)
      : base_(base ? std::move(base) : std::make_unique<NullBackend>()) {}

  /// Fail every SealSegment once `count` seals have succeeded (0 fails
  /// the first). Negative disables.
  void FailSealsAfter(int64_t count, Status error) {
    fail_seal_after_ = count;
    seal_error_ = std::move(error);
  }
  void FailReclaimsAfter(int64_t count, Status error) {
    fail_reclaim_after_ = count;
    reclaim_error_ = std::move(error);
  }
  void FailDeletesAfter(int64_t count, Status error) {
    fail_delete_after_ = count;
    delete_error_ = std::move(error);
  }

  int64_t seals() const { return seals_; }
  int64_t reclaims() const { return reclaims_; }
  int64_t deletes() const { return deletes_; }
  int64_t checkpoints() const { return checkpoints_; }
  int64_t delta_checkpoints() const { return delta_checkpoints_; }
  int64_t syncs() const { return syncs_; }
  int64_t rehomes() const { return rehomes_; }

  /// Simulated power loss: the next `ops` mutating operations (seals,
  /// checkpoints, re-homes, reclaims, deletes, syncs) are forwarded
  /// normally, then the one after that "kills the process" — when the
  /// base is a file backend its durable files are torn the way an
  /// interrupted writeback would leave them (a truncated or checksum-
  /// corrupt metadata record at the log tail and, for a seal or
  /// checkpoint, a partial payload overwrite of the crashing slot; the
  /// tear style is drawn from `seed`) — the base is Abandon()ed so none
  /// of its queued records get flushed, and every later call fails.
  /// Arming is thread-safe: the torture harness arms from the driver
  /// thread while a seal pipeline is applying operations.
  void CrashAfterOps(int64_t ops, uint64_t seed);
  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  Status Open(const StoreConfig& config, uint32_t shard_id,
              uint32_t num_shards, StoreStats* stats, bool recover) override {
    config_ = config;
    shard_id_ = shard_id;
    return base_->Open(config, shard_id, num_shards, stats, recover);
  }
  Status SealSegment(const BackendSegmentRecord& record) override {
    if (Status s; !CrashGate(&s, &record)) return s;
    if (fail_seal_after_ >= 0 && seals_ >= fail_seal_after_) {
      return seal_error_;
    }
    ++seals_;
    return base_->SealSegment(record);
  }
  Status Checkpoint(const BackendSegmentRecord& record) override {
    if (Status s; !CrashGate(&s, &record)) return s;
    ++checkpoints_;
    return base_->Checkpoint(record);
  }
  Status CheckpointDelta(const BackendSegmentRecord& record) override {
    // The gate gets the record so a crash here can tear the suffix range
    // the delta was rewriting (TearAndDie writes a partial prefix of the
    // suffix payload, never the bytes below suffix_offset — those belong
    // to earlier durable records and real hardware was not writing them).
    if (Status s; !CrashGate(&s, &record)) return s;
    ++delta_checkpoints_;
    return base_->CheckpointDelta(record);
  }
  Status RehomeEntries(const BackendSegmentRecord& record) override {
    // No payload accompanies a re-homing record, so a crash here tears
    // only the metadata tail — never the victim slot's payload (passing
    // `record` to the gate would wrongly overwrite the victim with a
    // payload this record does not have).
    if (Status s; !CrashGate(&s, nullptr)) return s;
    ++rehomes_;
    return base_->RehomeEntries(record);
  }
  Status Sync() override {
    if (Status s; !CrashGate(&s, nullptr)) return s;
    ++syncs_;
    return base_->Sync();
  }
  void SetDeferredSync(bool on) override { base_->SetDeferredSync(on); }
  void Abandon() override {
    if (!crashed()) base_->Abandon();
  }
  Status ReclaimSegment(SegmentId id, UpdateCount unow) override {
    if (Status s; !CrashGate(&s, nullptr)) return s;
    if (fail_reclaim_after_ >= 0 && reclaims_ >= fail_reclaim_after_) {
      return reclaim_error_;
    }
    ++reclaims_;
    return base_->ReclaimSegment(id, unow);
  }
  Status RecordDelete(PageId page, uint64_t seq, UpdateCount unow) override {
    if (Status s; !CrashGate(&s, nullptr)) return s;
    if (fail_delete_after_ >= 0 && deletes_ >= fail_delete_after_) {
      return delete_error_;
    }
    ++deletes_;
    return base_->RecordDelete(page, seq, unow);
  }
  Status ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                         uint32_t bytes, std::vector<uint8_t>* out) override {
    if (crashed()) return CrashedStatus();
    return base_->ReadPagePayload(id, offset, page, bytes, out);
  }
  Status Scan(BackendRecovery* out) override {
    if (crashed()) return CrashedStatus();
    return base_->Scan(out);
  }
  Status Close() override {
    // After a simulated crash the device is gone: the base was already
    // abandoned and nothing further may be flushed.
    if (crashed()) return CrashedStatus();
    return base_->Close();
  }
  std::string name() const override { return "fault(" + base_->name() + ")"; }

 private:
  static Status CrashedStatus() {
    return Status::Corruption("simulated crash: backend is dead");
  }
  // Returns true when the op may proceed; false with *out set when the
  // backend is (now) dead. `record` names the slot a crashing seal or
  // checkpoint was about to overwrite, for the partial-payload tear.
  bool CrashGate(Status* out, const BackendSegmentRecord* record);
  void TearAndDie(const BackendSegmentRecord* record);

  std::unique_ptr<SegmentBackend> base_;
  StoreConfig config_;
  uint32_t shard_id_ = 0;
  int64_t seals_ = 0;
  int64_t reclaims_ = 0;
  int64_t deletes_ = 0;
  int64_t checkpoints_ = 0;
  int64_t delta_checkpoints_ = 0;
  int64_t syncs_ = 0;
  int64_t rehomes_ = 0;
  int64_t fail_seal_after_ = -1;
  int64_t fail_reclaim_after_ = -1;
  int64_t fail_delete_after_ = -1;
  Status seal_error_;
  Status reclaim_error_;
  Status delete_error_;

  static constexpr int64_t kCrashDisarmed =
      std::numeric_limits<int64_t>::min() / 2;
  std::atomic<int64_t> crash_budget_{kCrashDisarmed};
  std::atomic<bool> crashed_{false};
  uint64_t crash_seed_ = 0;
};

/// Builds the backend selected by `config.backend` for one shard. Never
/// fails — path and platform errors surface from SegmentBackend::Open.
std::unique_ptr<SegmentBackend> MakeBackend(const StoreConfig& config);

/// Rejects configs whose backend cannot support reopen-after-restart
/// (the null backend persists nothing). ShardedStore::Open checks it.
Status ValidateReopenConfig(const StoreConfig& config);

}  // namespace lss

#endif  // LSS_CORE_IO_BACKEND_H_
