#ifndef LSS_CORE_SEGMENT_H_
#define LSS_CORE_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace lss {

/// Lifecycle of a physical segment. Free segments hold no data; open
/// segments are being appended to; sealed segments are immutable and are
/// the only cleaning candidates.
enum class SegmentState : uint8_t { kFree, kOpen, kSealed };

/// Which placement stream filled a segment (user writes vs. pages moved by
/// the cleaner). Kept for diagnostics and for policies that treat the two
/// differently.
enum class SegmentSource : uint8_t { kNone, kUser, kGc };

/// A physical segment: an append-only run of page versions plus the
/// bookkeeping the cleaning analysis needs (paper §5.1.1):
///   A  available (dead) bytes           -> available_bytes()
///   C  count of live pages              -> live_count()
///   up2 penultimate-update estimate     -> up2()
/// plus the seal time (for age/cost-benefit), the owning log (multi-log),
/// and the exact-frequency sum of live pages (for the *-opt variants).
class Segment {
 public:
  /// One page version in the form seal, checkpoint and re-homing records
  /// carry it (core/io_backend.h): identity and size, the shard-wide
  /// append sequence, the page's up1 at append time, the placement
  /// estimates and the payload offset. The segment itself stores entries
  /// split into a hot and a cold column (see Slot and Cold below) and
  /// builds this form on demand (RecordEntry, AppendRecordEntries).
  /// `page == kInvalidPage` marks an entry recorded dead.
  struct Entry {
    PageId page = kInvalidPage;
    uint32_t bytes = 0;
    uint64_t seq = 0;
    UpdateCount last_update = 0;
    double up2 = 0.0;
    double exact_upf = 0.0;
    /// Byte offset of this version inside the segment payload (the sum
    /// of the preceding entries' sizes); fixed at append time.
    uint64_t offset = 0;
    /// The page this entry was appended for, also when it is recorded
    /// dead (kInvalidPage only for an entry recovered dead). A backend
    /// that rewrites a slot in place — open-segment checkpoints, reseals
    /// of the same segment — uses it to regenerate byte-identical content
    /// for dead regions, so a torn rewrite can never corrupt payload that
    /// an earlier durable record for the slot still references.
    PageId orig_page = kInvalidPage;
    /// Dead on arrival: a superseded buffered duplicate killed at append
    /// time (see Kill).
    bool doa = false;
  };

  explicit Segment(uint32_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Segments are indexed containers owned by the store; copying one would
  // duplicate bookkeeping that the page table points into.
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
  Segment(Segment&&) = default;
  Segment& operator=(Segment&&) = default;

  /// Transitions kFree -> kOpen for appending. `log` is the placement log
  /// (0 for single-log policies), `source` records the filling stream.
  void Open(uint32_t log, SegmentSource source, UpdateCount now);

  /// True if an append of `bytes` fits.
  bool HasRoomFor(uint32_t bytes) const {
    return used_bytes_ + bytes <= capacity_;
  }

  /// Appends a live page version of `page` (< PageTable::kMaxPages, so
  /// it fits the hot column's 32 bits). `up2` is the page's carried
  /// penultimate-update estimate (averaged into the segment's up2 at seal,
  /// §5.2.2); `exact_upf` is the oracle frequency or 0. `seq` and
  /// `last_update` are recorded for the persistence backend (0 when no
  /// backend cares). Returns the entry index for the page table.
  uint32_t Append(PageId page, uint32_t bytes, double up2, double exact_upf,
                  uint64_t seq = 0, UpdateCount last_update = 0);

  /// Recovery hook: re-creates an entry that was already dead when the
  /// segment originally sealed (its page id is no longer known). The
  /// bytes count toward used space and the up2 toward the seal average,
  /// exactly as the live append + kill did in the original run.
  uint32_t AppendDead(uint32_t bytes, double up2);

  /// Marks entry `idx` dead because its page was overwritten or deleted.
  /// Mirrors §5.2.1: subtracts the page size from the live bytes and
  /// decrements C. `dead_on_arrival` marks a superseded buffered
  /// duplicate, which durable records must never resurrect (see
  /// RecordEntry).
  void Kill(uint32_t idx, double exact_upf, bool dead_on_arrival = false);

  /// Transitions kOpen -> kSealed. The segment's up2 becomes the mean of
  /// the appended pages' up2 values (§5.2.2 "the value for up2 for the new
  /// segment is the average up2 for all pages written to it").
  void Seal(UpdateCount now);

  /// Transitions kSealed (or kOpen, when resetting) -> kFree and drops all
  /// entries, keeping the entry storage for the slot's next fill.
  void Reset();

  // --- Accessors -----------------------------------------------------

  SegmentState state() const { return state_; }
  SegmentSource source() const { return source_; }
  uint32_t log() const { return log_; }
  uint32_t capacity_bytes() const { return capacity_; }

  /// A: bytes not occupied by live page versions (dead entries plus any
  /// unused tail).
  uint32_t available_bytes() const { return capacity_ - live_bytes_; }
  /// Live payload bytes (B - A).
  uint32_t live_bytes() const { return live_bytes_; }
  /// C: number of live pages.
  uint32_t live_count() const { return live_count_; }
  /// E = A / B, the fraction of the segment that is empty (paper §2.1).
  double Emptiness() const {
    return static_cast<double>(available_bytes()) /
           static_cast<double>(capacity_);
  }

  /// Appended bytes so far, including dead entries (the payload prefix a
  /// checkpoint of this segment would cover).
  uint32_t used_bytes() const { return used_bytes_; }

  /// Durable checkpoint watermark of the current fill generation: the
  /// entry count and byte offset covered by the last checkpoint record
  /// of this segment that is known durable (StoreShard advances it only
  /// after the record's group-fsync). A delta checkpoint re-records only
  /// the suffix past the watermark; Open/Reset clear it, so a reused
  /// slot always starts a fresh chain with a full checkpoint.
  uint32_t checkpoint_entries() const { return ckpt_entries_; }
  uint64_t checkpoint_bytes() const { return ckpt_bytes_; }
  void SetCheckpointWatermark(uint32_t entries, uint64_t bytes) {
    ckpt_entries_ = entries;
    ckpt_bytes_ = bytes;
  }

  /// Segment-level penultimate-update estimate (valid once sealed).
  double up2() const { return up2_; }
  /// up2 usable in any state: the sealed value, or the running mean over
  /// pages appended so far while the segment is still open.
  double Up2Estimate() const {
    if (state_ == SegmentState::kSealed) return up2_;
    return slots_.empty() ? 0.0
                          : up2_accum_ / static_cast<double>(slots_.size());
  }
  /// Update-count clock value when the segment was sealed.
  UpdateCount seal_time() const { return seal_time_; }
  /// Update-count clock value when the segment was opened.
  UpdateCount open_time() const { return open_time_; }

  /// Sum of oracle frequencies over live pages (0 when no oracle is in
  /// use). Mean live-page frequency is exact_upf_sum()/live_count().
  double exact_upf_sum() const { return exact_upf_sum_; }

  // --- Entries --------------------------------------------------------

  /// Number of entries appended in the current fill, dead ones included.
  uint32_t entry_count() const { return static_cast<uint32_t>(slots_.size()); }
  /// The page entry `i` holds, or kInvalidPage once it is dead.
  PageId live_page(uint32_t i) const {
    const Slot& s = slots_[i];
    return s.state == SlotState::kLive ? s.page : kInvalidPage;
  }
  uint32_t entry_bytes(uint32_t i) const { return slots_[i].bytes; }
  uint64_t entry_offset(uint32_t i) const { return slots_[i].offset; }
  UpdateCount entry_last_update(uint32_t i) const {
    return cold_[i].last_update;
  }

  /// Entry `i` in record form. In-place-killed entries are recorded
  /// *live* under their own id: their successor always carries a larger
  /// append sequence, so replay's newest-wins picks the successor
  /// whenever its record survived, and legitimately resurrects this
  /// version when the crash took the successor's record with it. Without
  /// this, re-recording a segment (a later checkpoint, or the seal after
  /// one) would erase the only durable copy of a page whose newest
  /// version never reached the device. Dead-on-arrival duplicates and
  /// entries recovered dead are recorded dead: the flush sort makes a
  /// duplicate's seq order against its successor meaningless, and a
  /// recovered-dead entry's page is no longer known.
  Entry RecordEntry(uint32_t i) const;
  /// Appends every entry's record form to `out`, in append order.
  void AppendRecordEntries(std::vector<Entry>* out) const;

  /// Test hook: recomputes live_bytes/live_count from the entries and
  /// checks them against the maintained counters.
  bool CheckCountersConsistent() const;

 private:
  uint32_t capacity_;
  SegmentState state_ = SegmentState::kFree;
  SegmentSource source_ = SegmentSource::kNone;
  uint32_t log_ = 0;

  /// Entries are stored as two parallel columns (PAX-style): the hot
  /// column holds what Kill, the cleaner's harvest and reads touch, the
  /// cold column what only records read. A segment stores no orig_page or
  /// doa: the hot page id survives a kill, and the state says how the
  /// entry died.
  enum class SlotState : uint8_t {
    kLive,
    kKilled,          // overwritten or deleted in place
    kDeadOnArrival,   // superseded buffered duplicate
    kRecoveredDead,   // AppendDead: already dead when recorded
  };
  struct Slot {
    uint32_t page;    // the appended page's id, kept across Kill
    uint32_t bytes;
    uint32_t offset;  // < capacity, which is a uint32_t
    SlotState state;
  };
  struct Cold {
    uint64_t seq;
    UpdateCount last_update;
    double up2;
    double exact_upf;
  };
  static_assert(sizeof(Slot) == 16, "hot entry column must stay 16 bytes");
  static_assert(sizeof(Cold) == 32, "cold entry column must stay 32 bytes");

  /// Writes the record form of the entry held by `s` and `c` (see
  /// RecordEntry).
  static void FillRecord(const Slot& s, const Cold& c, Entry* e);

  std::vector<Slot> slots_;
  std::vector<Cold> cold_;
  uint32_t used_bytes_ = 0;   // appended bytes including dead entries
  uint32_t live_bytes_ = 0;   // B - A
  uint32_t live_count_ = 0;   // C

  double up2_accum_ = 0;      // sum of appended pages' up2 values
  double up2_ = 0;
  double exact_upf_sum_ = 0;  // over live pages
  UpdateCount open_time_ = 0;
  UpdateCount seal_time_ = 0;

  uint32_t ckpt_entries_ = 0;  // durable checkpoint watermark (entries)
  uint64_t ckpt_bytes_ = 0;    // ...and bytes
};

}  // namespace lss

#endif  // LSS_CORE_SEGMENT_H_
