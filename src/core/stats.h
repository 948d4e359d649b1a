#ifndef LSS_CORE_STATS_H_
#define LSS_CORE_STATS_H_

#include <cstdint>

#include "util/histogram.h"

namespace lss {

/// Counters of one StoreShard: the shard's own plus those of its seal
/// pipeline, merged by StoreShard::stats() (ShardedStore::AggregatedStats
/// sums them across shards). The headline metric is
/// write amplification Wamp = (GC page moves) / (user page writes), the
/// paper's Equation 2 measured empirically. ResetMeasurement() zeroes the
/// counters without disturbing store state, so benches can warm up to
/// steady state and then measure (paper §6.2 writes 100x the store size so
/// "the write amplification stabilized").
class StoreStats {
 public:
  StoreStats() : clean_emptiness_(0.0, 1.0, 100) {}

  /// Logical user updates submitted via Write().
  uint64_t user_updates = 0;
  /// Physical page writes of user data into segments. Differs from
  /// user_updates when the write buffer absorbs re-updates of a buffered
  /// page.
  uint64_t user_pages_written = 0;
  /// Still-live pages moved by the cleaner (the paper's "page moves",
  /// §1.2 — the numerator of Wamp).
  uint64_t gc_pages_written = 0;
  /// Segments filled with user data and sealed.
  uint64_t user_segments_sealed = 0;
  /// Segments filled with GC'd pages and sealed.
  uint64_t gc_segments_sealed = 0;
  /// Victim segments reclaimed.
  uint64_t segments_cleaned = 0;
  /// Cleaning cycles executed.
  uint64_t cleanings = 0;
  /// Deletes (trims) applied.
  uint64_t deletes = 0;

  // --- Logical byte volume (denominators for device ratios) ----------

  /// Payload bytes of user page versions placed into segments.
  uint64_t user_bytes_written = 0;
  /// Payload bytes of GC-moved page versions placed into segments.
  uint64_t gc_bytes_written = 0;

  // --- Device counters (filled by a real SegmentBackend into its seal
  // --- pipeline's stats; all zero on the null backend) ----------------

  /// Bytes handed to pwrite (segment payloads plus metadata records).
  uint64_t device_bytes_written = 0;
  /// pwrite calls issued.
  uint64_t device_write_ops = 0;
  /// fsync/fdatasync calls issued.
  uint64_t device_fsyncs = 0;
  /// Payload bytes released back to the filesystem via hole punching.
  uint64_t device_bytes_punched = 0;
  /// Wall-clock seconds spent inside pwrite.
  double device_write_seconds = 0.0;
  /// Wall-clock seconds spent inside fsync.
  double device_fsync_seconds = 0.0;
  /// Metadata-log compactions (FileBackend::CompactMeta): rewrites of
  /// `.meta` down to its live records. Their bytes, write and fsyncs are
  /// also counted in the device_* counters above.
  uint64_t meta_compactions = 0;
  /// Bytes of the compacted logs written by those rewrites.
  uint64_t meta_compaction_bytes = 0;
  /// Wall-clock seconds spent compacting: reading and replaying the old
  /// log, writing and syncing the new one, renaming it into place.
  double meta_compaction_seconds = 0.0;

  // --- Seal pipeline (core/seal_pipeline.h): seal_queue_* / group_fsync*
  // --- are the I/O thread's, zero in sync mode; checkpoint records are
  // --- counted by SealPipeline::Apply, rounds by the shard. ----------

  /// Operations (seals, reclaims, deletes, checkpoints) handed to the
  /// per-shard I/O thread.
  uint64_t seal_queue_enqueued = 0;
  /// Times a writer blocked because the seal queue was full
  /// (backpressure events, not wall-clock).
  uint64_t seal_queue_stalls = 0;
  /// Group-commit fsync rounds issued by the I/O thread.
  uint64_t group_fsyncs = 0;
  /// Operations covered by those rounds; group_fsync_ops / group_fsyncs
  /// is the achieved commit-batch size.
  uint64_t group_fsync_ops = 0;
  /// Open-segment checkpoint records persisted (periodic or barrier).
  uint64_t checkpoints_written = 0;
  /// Checkpoint rounds executed (each CheckpointOpenSegments pass over
  /// the open segments, whether it emitted records or skipped them all
  /// because the delta chains already covered every entry).
  uint64_t checkpoint_rounds = 0;
  /// checkpoints_written split by kind: full records re-persist the
  /// whole slot payload, delta records only the suffix appended since
  /// the durable watermark (StoreConfig::checkpoint_delta).
  uint64_t checkpoint_full_records = 0;
  uint64_t checkpoint_delta_records = 0;
  /// Device bytes spent on checkpointing: payload ranges rewritten plus
  /// the checkpoint metadata records (file backend only; a subset of
  /// device_bytes_written).
  uint64_t checkpoint_bytes_written = 0;
  /// Times AllocateSegment reused a slot whose free record is still
  /// withheld after first re-homing the victim's still-needed entries
  /// under a durable re-homing record (reachable only when a policy
  /// keeps more GC destinations open than there are spare free slots —
  /// multi-log at tiny free pools). The torture harness's multi-log
  /// geometry asserts this fires; each such reuse is crash-safe.
  uint64_t withheld_slot_reuses_rehomed = 0;
  /// Times AllocateSegment reused a withheld slot whose victim had no
  /// still-needed entries (all superseded by already-emitted records),
  /// so no re-homing record was required. Plain reuse of a slot that
  /// still holds needed entries is impossible by construction.
  uint64_t withheld_slot_reuses_plain = 0;
  /// Victim entries persisted into re-homing records before slot reuse.
  uint64_t rehome_entries_written = 0;
  /// Re-homed entries materialised into fresh segments during Recover.
  uint64_t rehome_entries_recovered = 0;

  /// Total withheld-slot reuses (re-homed + plain).
  uint64_t WithheldSlotReuses() const {
    return withheld_slot_reuses_rehomed + withheld_slot_reuses_plain;
  }

  /// Write amplification (Equation 2), measured: moved pages per physical
  /// user page write.
  double WriteAmplification() const {
    if (user_pages_written == 0) return 0.0;
    return static_cast<double>(gc_pages_written) /
           static_cast<double>(user_pages_written);
  }

  /// Mean segment emptiness E observed at clean time (the paper's E in
  /// Table 1; Cost = 2/E, Equation 1).
  double MeanCleanEmptiness() const { return clean_emptiness_.mean(); }

  /// Full distribution of emptiness at clean time.
  const Histogram& clean_emptiness() const { return clean_emptiness_; }
  Histogram& mutable_clean_emptiness() { return clean_emptiness_; }

  /// Measured device traffic per logical user byte: how many bytes the
  /// backend physically wrote (payload, unfilled segment tails, GC
  /// re-writes, metadata) for each byte the user submitted. The device
  /// analogue of the simulator's 1 + Wamp prediction; 0 without a real
  /// backend.
  double DeviceBytesPerUserByte() const {
    if (user_bytes_written == 0) return 0.0;
    return static_cast<double>(device_bytes_written) /
           static_cast<double>(user_bytes_written);
  }

  /// Wall-clock seconds the thread driving the backend (the seal
  /// pipeline's I/O thread in async mode, the writer itself in sync
  /// mode) spent *blocked* on device work: writes + fsyncs.
  double BackendBlockingSeconds() const {
    return device_write_seconds + device_fsync_seconds;
  }

  /// Accumulates another store's counters into this one (ShardedStore
  /// merges per-shard stats on read). Both histograms must share the
  /// default geometry, which every StoreStats does.
  void Merge(const StoreStats& other) {
    user_updates += other.user_updates;
    user_pages_written += other.user_pages_written;
    gc_pages_written += other.gc_pages_written;
    user_segments_sealed += other.user_segments_sealed;
    gc_segments_sealed += other.gc_segments_sealed;
    segments_cleaned += other.segments_cleaned;
    cleanings += other.cleanings;
    deletes += other.deletes;
    user_bytes_written += other.user_bytes_written;
    gc_bytes_written += other.gc_bytes_written;
    device_bytes_written += other.device_bytes_written;
    device_write_ops += other.device_write_ops;
    device_fsyncs += other.device_fsyncs;
    device_bytes_punched += other.device_bytes_punched;
    device_write_seconds += other.device_write_seconds;
    device_fsync_seconds += other.device_fsync_seconds;
    meta_compactions += other.meta_compactions;
    meta_compaction_bytes += other.meta_compaction_bytes;
    meta_compaction_seconds += other.meta_compaction_seconds;
    seal_queue_enqueued += other.seal_queue_enqueued;
    seal_queue_stalls += other.seal_queue_stalls;
    group_fsyncs += other.group_fsyncs;
    group_fsync_ops += other.group_fsync_ops;
    checkpoints_written += other.checkpoints_written;
    checkpoint_rounds += other.checkpoint_rounds;
    checkpoint_full_records += other.checkpoint_full_records;
    checkpoint_delta_records += other.checkpoint_delta_records;
    checkpoint_bytes_written += other.checkpoint_bytes_written;
    withheld_slot_reuses_rehomed += other.withheld_slot_reuses_rehomed;
    withheld_slot_reuses_plain += other.withheld_slot_reuses_plain;
    rehome_entries_written += other.rehome_entries_written;
    rehome_entries_recovered += other.rehome_entries_recovered;
    clean_emptiness_.Merge(other.clean_emptiness_);
  }

  /// Zeroes all counters; store state is untouched.
  void ResetMeasurement() {
    user_updates = 0;
    user_pages_written = 0;
    gc_pages_written = 0;
    user_segments_sealed = 0;
    gc_segments_sealed = 0;
    segments_cleaned = 0;
    cleanings = 0;
    deletes = 0;
    user_bytes_written = 0;
    gc_bytes_written = 0;
    device_bytes_written = 0;
    device_write_ops = 0;
    device_fsyncs = 0;
    device_bytes_punched = 0;
    device_write_seconds = 0.0;
    device_fsync_seconds = 0.0;
    meta_compactions = 0;
    meta_compaction_bytes = 0;
    meta_compaction_seconds = 0.0;
    seal_queue_enqueued = 0;
    seal_queue_stalls = 0;
    group_fsyncs = 0;
    group_fsync_ops = 0;
    checkpoints_written = 0;
    checkpoint_rounds = 0;
    checkpoint_full_records = 0;
    checkpoint_delta_records = 0;
    checkpoint_bytes_written = 0;
    withheld_slot_reuses_rehomed = 0;
    withheld_slot_reuses_plain = 0;
    rehome_entries_written = 0;
    rehome_entries_recovered = 0;
    clean_emptiness_.Reset();
  }

 private:
  Histogram clean_emptiness_;
};

}  // namespace lss

#endif  // LSS_CORE_STATS_H_
