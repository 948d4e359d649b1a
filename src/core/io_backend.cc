#include "core/io_backend.h"

#include "util/fnv1a.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include <cerrno>

namespace lss {

void FillPagePayload(PageId page, uint32_t bytes, uint8_t* out) {
  uint64_t word_index = 0;
  uint32_t off = 0;
  while (off + 8 <= bytes) {
    const uint64_t w = PagePatternWord(page, word_index++);
    std::memcpy(out + off, &w, 8);
    off += 8;
  }
  if (off < bytes) {
    const uint64_t w = PagePatternWord(page, word_index);
    std::memcpy(out + off, &w, bytes - off);
  }
}

bool VerifyPagePayload(PageId page, uint32_t bytes, const uint8_t* data) {
  uint64_t word_index = 0;
  uint32_t off = 0;
  while (off + 8 <= bytes) {
    const uint64_t w = PagePatternWord(page, word_index++);
    if (std::memcmp(data + off, &w, 8) != 0) return false;
    off += 8;
  }
  if (off < bytes) {
    const uint64_t w = PagePatternWord(page, word_index);
    if (std::memcmp(data + off, &w, bytes - off) != 0) return false;
  }
  return true;
}

std::unique_ptr<SegmentBackend> MakeBackend(const StoreConfig& config) {
  switch (config.backend) {
    case BackendKind::kNull:
      return std::make_unique<NullBackend>();
    case BackendKind::kFile:
      return std::make_unique<FileBackend>();
  }
  return std::make_unique<NullBackend>();
}

Status ValidateReopenConfig(const StoreConfig& config) {
  if (config.backend == BackendKind::kNull) {
    return Status::InvalidArgument(
        "reopen requires a durable backend (the null backend persists "
        "nothing)");
  }
  return Status::OK();
}

Status ResolveRecovery(BackendRecovery log, uint32_t num_segments,
                       ResolvedRecovery* out) {
  *out = ResolvedRecovery{};
  out->max_seq = log.max_seq;
  out->unow = log.unow;

  // Delta records by slot, in replay (ordinal) order. A delta orphaned by
  // a later full checkpoint, seal or free of its slot never matches a
  // chain tip and is skipped.
  std::vector<std::vector<const BackendSegmentRecord*>> deltas_by_slot(
      num_segments);
  for (const BackendSegmentRecord& d : log.deltas) {
    if (d.id >= num_segments) {
      return Status::Corruption("recovery: delta segment id out of range");
    }
    deltas_by_slot[d.id].push_back(&d);
  }

  // Fold each slot's chain: every link replaces the entries past its
  // recorded prefix. Each entry keeps the ordinal of the record that
  // contributed it, so equal-seq ties break toward the later record
  // exactly as with full checkpoints.
  std::vector<std::vector<uint64_t>> ordinals;
  ordinals.reserve(log.segments.size());
  out->slots.reserve(log.segments.size());
  size_t versions = 0;
  for (BackendSegmentRecord& base : log.segments) {
    if (base.id >= num_segments) {
      return Status::Corruption("recovery: segment id out of range");
    }
    ResolvedRecovery::Slot& slot = out->slots.emplace_back();
    slot.record = std::move(base);
    slot.tip_ordinal = slot.record.ordinal;
    std::vector<Segment::Entry>& entries = slot.record.entries;
    std::vector<uint64_t>& ord =
        ordinals.emplace_back(entries.size(), slot.record.ordinal);
    if (slot.record.checkpoint) {
      for (const BackendSegmentRecord* d : deltas_by_slot[slot.record.id]) {
        if (d->base_ordinal != slot.tip_ordinal) continue;
        if (d->prefix_entries > entries.size()) {
          return Status::Corruption(
              "recovery: delta prefix exceeds its chain's entries");
        }
        uint64_t prefix_bytes = 0;
        for (uint64_t i = 0; i < d->prefix_entries; ++i) {
          prefix_bytes += entries[i].bytes;
        }
        if (prefix_bytes != d->suffix_offset) {
          return Status::Corruption(
              "recovery: delta suffix offset does not match its chain");
        }
        entries.resize(d->prefix_entries);
        entries.insert(entries.end(), d->entries.begin(), d->entries.end());
        ord.resize(d->prefix_entries);
        ord.resize(entries.size(), d->ordinal);
        slot.record.seal_time = d->seal_time;
        slot.record.unow = d->unow;
        slot.tip_ordinal = d->ordinal;
      }
    }
    slot.wins.assign(entries.size(), 0);
    versions += entries.size();
  }
  out->rehomed.reserve(log.rehomed.size());
  for (BackendSegmentRecord& rec : log.rehomed) {
    versions += rec.entries.size();
    std::vector<uint8_t> wins(rec.entries.size(), 0);
    out->rehomed.push_back({std::move(rec), std::move(wins)});
  }

  // Per page the newest tombstone; a version older than it is dead.
  out->deletes = std::move(log.deletes);
  const std::vector<std::pair<PageId, uint64_t>>& deletes = out->deletes;
  std::unordered_map<PageId, size_t> newest;  // into deletes
  newest.reserve(deletes.size());
  for (size_t i = 0; i < deletes.size(); ++i) {
    auto [it, fresh] = newest.emplace(deletes[i].first, i);
    if (!fresh && deletes[i].second > deletes[it->second].second) {
      it->second = i;
    }
  }
  for (size_t i = 0; i < deletes.size(); ++i) {
    if (newest[deletes[i].first] == i) out->newest_deletes.push_back(i);
  }

  // Newest wins: the higher seq, then the later record.
  struct Winner {
    uint64_t seq;
    uint64_t ordinal;
    uint8_t* wins;
  };
  std::unordered_map<PageId, Winner> winner;
  winner.reserve(versions);
  auto weigh = [&](const Segment::Entry& e, uint64_t ordinal, uint8_t* wins) {
    if (e.page == kInvalidPage) return;
    auto t = newest.find(e.page);
    if (t != newest.end() && deletes[t->second].second > e.seq) return;
    auto [it, fresh] = winner.try_emplace(e.page, Winner{e.seq, ordinal, wins});
    Winner& w = it->second;
    if (!fresh) {
      if (e.seq < w.seq || (e.seq == w.seq && ordinal <= w.ordinal)) return;
      *w.wins = 0;
      w = Winner{e.seq, ordinal, wins};
    }
    *wins = 1;
  };
  for (size_t k = 0; k < out->slots.size(); ++k) {
    ResolvedRecovery::Slot& slot = out->slots[k];
    for (size_t i = 0; i < slot.record.entries.size(); ++i) {
      weigh(slot.record.entries[i], ordinals[k][i], &slot.wins[i]);
    }
  }
  // Re-homed entries compete on equal footing: a version's only durable
  // copy may be its re-homing record (the victim slot was reused, and a
  // crashing rewrite may have torn its payload).
  for (ResolvedRecovery::Rehomed& r : out->rehomed) {
    for (size_t i = 0; i < r.record.entries.size(); ++i) {
      weigh(r.record.entries[i], r.record.ordinal, &r.wins[i]);
    }
  }
  return Status::OK();
}

#ifdef _WIN32

// The file backend is POSIX-only for now; the interface compiles
// everywhere so the rest of the store stays portable.
FileBackend::~FileBackend() {}
Status FileBackend::Open(const StoreConfig&, uint32_t, uint32_t, StoreStats*,
                         bool) {
  return Status::InvalidArgument("file backend requires a POSIX platform");
}
Status FileBackend::SealSegment(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Checkpoint(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::CheckpointDelta(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::RehomeEntries(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Sync() {
  return Status::InvalidArgument("file backend not open");
}
void FileBackend::Abandon() {}
Status FileBackend::ReclaimSegment(SegmentId, UpdateCount) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::RecordDelete(PageId, uint64_t, UpdateCount) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::ReadPagePayload(SegmentId, uint64_t, PageId, uint32_t,
                                    std::vector<uint8_t>*) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Scan(BackendRecovery*) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Close() { return Status::OK(); }
std::string FileBackend::DataPath(const std::string& dir, uint32_t shard_id) {
  (void)shard_id;
  return dir;
}
std::string FileBackend::MetaPath(const std::string& dir, uint32_t shard_id) {
  (void)shard_id;
  return dir;
}
std::string FileBackend::MetaTempPath(const std::string& dir,
                                      uint32_t shard_id) {
  (void)shard_id;
  return dir;
}
Status FileBackend::CompactMeta() {
  return Status::InvalidArgument("file backend not open");
}

#else  // POSIX

namespace {

// Binary metadata-log format. Records are appended in operation order
// and replayed front to back by Scan; a truncated tail (crash mid
// append) simply ends the replay. All fields are fixed-width and the
// structs are laid out padding-free, so a record written on one run
// reads back identically on the next (same-machine durability, which is
// all a per-shard segment file can promise anyway).
constexpr uint32_t kMetaMagic = 0x4C535331;  // "LSS1"

enum MetaType : uint16_t {
  kMetaSeal = 1,
  kMetaFree = 2,
  kMetaDelete = 3,
  kMetaGeometry = 4,
  kMetaCheckpoint = 5,       // open-segment snapshot; SealBody layout
  kMetaRehome = 6,           // re-homed victim entries; SealBody layout
  kMetaCheckpointDelta = 7,  // suffix-only checkpoint; DeltaBody layout
  kMetaWatermark = 8,        // clock high-water marks; WatermarkBody
};

// Metadata-log format version, recorded in the geometry record.
//   0  PR 3: seal / free / delete records only.
//   1  adds kMetaCheckpoint (same body layout as a seal record).
//   2  adds kMetaRehome (same body layout; segment_id names the victim
//      slot, no payload accompanies the record).
//   3  adds kMetaCheckpointDelta (DeltaBody): a checkpoint that rewrote
//      only the payload suffix appended since the slot's previous
//      checkpoint record, to which it chains by replay ordinal.
//   4  adds kMetaWatermark (WatermarkBody): the max_seq and unow of the
//      records a compaction dropped (FileBackend::CompactMeta).
// An older log simply lacks the newer record types, so the current
// reader accepts all five (io_backend_test pins that compatibility).
// The geometry record is written at create time and rewritten only by a
// compaction, so a new writer appending to an old log leaves the old
// stamp in place — a crash mid-upgrade yields an older-stamped log
// containing newer records, which the reader therefore parses
// regardless of the stamped format.
constexpr uint32_t kMetaFormatPr3 = 0;
constexpr uint32_t kMetaFormatCheckpoint = 1;
constexpr uint32_t kMetaFormatRehome = 2;
constexpr uint32_t kMetaFormatDelta = 3;
constexpr uint32_t kMetaFormatWatermark = 4;

struct MetaHeader {
  uint32_t magic;
  uint16_t type;
  uint16_t reserved;
  uint64_t body_len;
  /// FNV-1a over (type, body_len, body). Detects torn records — a seal
  /// record spans pages and unordered writeback can persist a valid
  /// header whose entry tail never reached the device.
  uint64_t checksum;
};
static_assert(sizeof(MetaHeader) == 24, "MetaHeader must pack to 24 bytes");

uint64_t RecordChecksum(uint16_t type, const void* body, uint64_t body_len) {
  uint64_t h = kFnv1aBasis;
  h = Fnv1a(h, &type, sizeof(type));
  h = Fnv1a(h, &body_len, sizeof(body_len));
  return Fnv1a(h, body, body_len);
}

struct SealBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;  // SegmentSource widened for alignment
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
};
static_assert(sizeof(SealBody) == 48, "SealBody must pack to 48 bytes");

struct EntryRec {
  uint64_t page;
  uint32_t bytes;
  uint32_t reserved;
  uint64_t seq;
  uint64_t last_update;
  double up2;
  double exact_upf;
};
static_assert(sizeof(EntryRec) == 48, "EntryRec must pack to 48 bytes");

// Body of a kMetaCheckpointDelta record: the SealBody fields plus the
// chain linkage. `entry_count` counts only the suffix entries serialised
// after the body (EntryRec array, exactly as in a seal record);
// `prefix_entries` is how many entries of the assembled chain survive
// below this delta — replay truncates to that count, then appends the
// suffix. The whole record is covered by the standard header FNV.
struct DeltaBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
  uint64_t generation;      // slot fill generation the chain belongs to
  uint64_t base_ordinal;    // replay ordinal of the previous chain record
  uint64_t prefix_entries;  // chain entries retained below this delta
  uint64_t suffix_offset;   // payload byte range this record rewrote:
  uint64_t suffix_length;   //   [suffix_offset, suffix_offset + length)
};
static_assert(sizeof(DeltaBody) == 88, "DeltaBody must pack to 88 bytes");

struct FreeBody {
  uint32_t segment_id;
  uint32_t reserved;
  uint64_t unow;
};
static_assert(sizeof(FreeBody) == 16, "FreeBody must pack to 16 bytes");

struct DeleteBody {
  uint64_t page;
  uint64_t seq;
  uint64_t unow;
};
static_assert(sizeof(DeleteBody) == 24, "DeleteBody must pack to 24 bytes");

// Written once, first, at create time; recovery refuses a file whose
// geometry does not match the reopening store (different shard count,
// segment size or device size silently corrupts page routing) or whose
// format version is newer than this reader.
struct GeometryBody {
  uint32_t shard_id;
  uint32_t num_shards;
  uint32_t num_segments;
  uint32_t segment_bytes;
  uint32_t page_bytes;
  uint32_t format;  // kMetaFormat*; was reserved (== 0) in PR 3 logs
};
static_assert(sizeof(GeometryBody) == 24, "GeometryBody must pack to 24 bytes");

// Body of a kMetaWatermark record: high-water marks of the shard clocks
// that replay folds in like any record's, so a compacted log restores
// the sequence and update clocks of the records it no longer holds.
struct WatermarkBody {
  uint64_t max_seq;
  uint64_t unow;
};
static_assert(sizeof(WatermarkBody) == 16,
              "WatermarkBody must pack to 16 bytes");

// The geometry record's body for shard `shard_id` of a store of
// `num_shards` shards built with `config`, stamped with this writer's
// format.
GeometryBody StoreGeometry(const StoreConfig& config, uint32_t shard_id,
                           uint32_t num_shards) {
  return GeometryBody{shard_id,           num_shards,
                      config.num_segments, config.segment_bytes,
                      config.page_bytes,   kMetaFormatWatermark};
}

// Serialises one checksummed metadata record (header + body).
std::vector<uint8_t> BuildRecord(uint16_t type, const void* body,
                                 uint64_t body_len) {
  std::vector<uint8_t> rec(sizeof(MetaHeader) + body_len);
  MetaHeader hdr{kMetaMagic, type, 0, body_len,
                 RecordChecksum(type, body, body_len)};
  std::memcpy(rec.data(), &hdr, sizeof(hdr));
  std::memcpy(rec.data() + sizeof(hdr), body, body_len);
  return rec;
}

// Serialises `entries` as the EntryRec array of a seal-layout or delta
// record, at `p`.
void EncodeEntries(const std::vector<Segment::Entry>& entries, uint8_t* p) {
  for (const Segment::Entry& e : entries) {
    EntryRec er{};
    er.page = e.page;
    er.bytes = e.bytes;
    er.seq = e.seq;
    er.last_update = e.last_update;
    er.up2 = e.up2;
    er.exact_upf = e.exact_upf;
    std::memcpy(p, &er, sizeof(er));
    p += sizeof(er);
  }
}

// Body of a seal, checkpoint or re-homing record: SealBody, then the
// entry array.
std::vector<uint8_t> SealRecordBody(const BackendSegmentRecord& record) {
  std::vector<uint8_t> out(sizeof(SealBody) +
                           record.entries.size() * sizeof(EntryRec));
  SealBody body{};
  body.segment_id = record.id;
  body.log = record.log;
  body.source = static_cast<uint64_t>(record.source);
  body.open_time = record.open_time;
  body.seal_time = record.seal_time;
  body.unow = record.unow;
  body.entry_count = record.entries.size();
  std::memcpy(out.data(), &body, sizeof(body));
  EncodeEntries(record.entries, out.data() + sizeof(body));
  return out;
}

// ENOSPC is the device's out-of-space, the same condition the simulator
// reports when cleaning cannot reclaim room; everything else is an
// environment failure the caller cannot reason about.
Status ErrnoStatus(const char* what, int err) {
  const std::string msg =
      std::string(what) + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::OutOfSpace(msg);
  return Status::Corruption(msg);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Full-length pwrite (retries partial writes and EINTR).
Status PwriteAll(int fd, const void* data, size_t len, uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", errno);
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PreadAll(int fd, void* data, size_t len, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", errno);
    }
    if (n == 0) return Status::Corruption("pread: unexpected end of file");
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// --- Recovery scan ----------------------------------------------------------

// One record found by Scan's framing pass: its position in the log and
// its header, whose magic and body length fit the log but whose checksum
// is not yet verified.
struct FramedRecord {
  uint64_t offset;
  MetaHeader hdr;

  const uint8_t* body(const uint8_t* log) const {
    return log + offset + sizeof(MetaHeader);
  }
};

// Pass 1: the longest prefix of the log that parses as headers with the
// magic and an in-bounds body length.
std::vector<FramedRecord> FrameRecords(const uint8_t* log, size_t size) {
  std::vector<FramedRecord> frames;
  size_t off = 0;
  while (off + sizeof(MetaHeader) <= size) {
    FramedRecord f{};
    f.offset = off;
    std::memcpy(&f.hdr, log + off, sizeof(f.hdr));
    if (f.hdr.magic != kMetaMagic) break;
    // Overflow-safe bounds check: a corrupt body_len must end the
    // framing, not wrap the sum past the log's end.
    if (f.hdr.body_len > size - off - sizeof(MetaHeader)) break;
    frames.push_back(f);
    off += sizeof(MetaHeader) + f.hdr.body_len;
  }
  return frames;
}

// Pass 2: the index of the first framed record whose checksum does not
// match, or frames.size() when all do. Records are hashed four at a time
// by Fnv1a4 in order of body length, so the lanes of a group run over
// ranges of equal or nearly equal length (a short last group repeats its
// final record); the hash and its inputs are exactly RecordChecksum's.
size_t FirstBadChecksum(const uint8_t* log,
                        const std::vector<FramedRecord>& frames) {
  std::vector<std::pair<uint64_t, size_t>> order(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    order[i] = {frames[i].hdr.body_len, i};
  }
  std::sort(order.begin(), order.end());
  static constexpr size_t kTypeLen[4] = {2, 2, 2, 2};
  static constexpr size_t kBodyLenLen[4] = {8, 8, 8, 8};
  size_t first_bad = frames.size();
  for (size_t g = 0; g < order.size(); g += 4) {
    size_t lane[4] = {};
    uint64_t h[4] = {};
    const uint8_t* type[4] = {};
    const uint8_t* body_len[4] = {};
    const uint8_t* body[4] = {};
    size_t len[4] = {};
    for (size_t k = 0; k < 4; ++k) {
      lane[k] = order[std::min(g + k, order.size() - 1)].second;
      const FramedRecord& f = frames[lane[k]];
      h[k] = kFnv1aBasis;
      type[k] = reinterpret_cast<const uint8_t*>(&f.hdr.type);
      body_len[k] = reinterpret_cast<const uint8_t*>(&f.hdr.body_len);
      body[k] = f.body(log);
      len[k] = static_cast<size_t>(f.hdr.body_len);
    }
    Fnv1a4(h, type, kTypeLen);
    Fnv1a4(h, body_len, kBodyLenLen);
    Fnv1a4(h, body, len);
    for (size_t k = 0; k < 4; ++k) {
      if (h[k] != frames[lane[k]].hdr.checksum) {
        first_bad = std::min(first_bad, lane[k]);
      }
    }
  }
  return first_bad;
}

// Highest `seq` among the `count` EntryRecs at `p`, read in place.
uint64_t MaxEntrySeq(const uint8_t* p, uint64_t count) {
  uint64_t max_seq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seq = 0;
    std::memcpy(&seq, p + i * sizeof(EntryRec) + offsetof(EntryRec, seq),
                sizeof(seq));
    max_seq = std::max(max_seq, seq);
  }
  return max_seq;
}

// Appends the `count` EntryRecs at `p` to `out` as segment entries.
void DecodeEntries(const uint8_t* p, uint64_t count,
                   std::vector<Segment::Entry>* out) {
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    EntryRec er{};
    std::memcpy(&er, p + i * sizeof(er), sizeof(er));
    Segment::Entry e;
    e.page = er.page;
    e.bytes = er.bytes;
    e.seq = er.seq;
    e.last_update = er.last_update;
    e.up2 = er.up2;
    e.exact_upf = er.exact_upf;
    out->push_back(e);
  }
}

// Decodes a seal, checkpoint or re-homing record whose structure the
// replay pass has already checked.
BackendSegmentRecord DecodeSealRecord(const MetaHeader& hdr,
                                      const uint8_t* body, uint64_t ordinal) {
  SealBody sb{};
  std::memcpy(&sb, body, sizeof(sb));
  BackendSegmentRecord rec;
  rec.id = sb.segment_id;
  rec.log = sb.log;
  rec.source = static_cast<SegmentSource>(sb.source);
  rec.open_time = sb.open_time;
  rec.seal_time = sb.seal_time;
  rec.unow = sb.unow;
  rec.checkpoint = hdr.type == kMetaCheckpoint;
  rec.ordinal = ordinal;
  DecodeEntries(body + sizeof(sb), sb.entry_count, &rec.entries);
  return rec;
}

// Where a replayed log image's records lie: its framed records and how
// many of them replay.
struct LogReplay {
  std::vector<FramedRecord> frames;
  uint64_t replayed = 0;
  // Ordinal of each tombstone of BackendRecovery::deletes, in order.
  std::vector<uint64_t> delete_ordinals;

  // End of the last replayed record: where appends continue.
  uint64_t valid_end() const {
    if (replayed == 0) return 0;
    const FramedRecord& f = frames[replayed - 1];
    return f.offset + sizeof(MetaHeader) + f.hdr.body_len;
  }
};

// Replays `log[0, log_size)` for a store of geometry `want` (its format
// field is ignored): checks the geometry record, then frames, verifies
// and walks the records into `out`.
Status ReplayLog(const uint8_t* log, size_t log_size, const GeometryBody& want,
                 BackendRecovery* out, LogReplay* replay) {
  *out = BackendRecovery{};
  // The log must lead with a geometry record matching the reopening
  // store, or recovery would silently misroute pages.
  {
    if (log_size < sizeof(MetaHeader) + sizeof(GeometryBody)) {
      return Status::Corruption("recovery: metadata log has no geometry");
    }
    MetaHeader hdr;
    std::memcpy(&hdr, log, sizeof(hdr));
    if (hdr.magic != kMetaMagic || hdr.type != kMetaGeometry ||
        hdr.body_len != sizeof(GeometryBody) ||
        hdr.checksum !=
            RecordChecksum(hdr.type, log + sizeof(hdr), hdr.body_len)) {
      return Status::Corruption("recovery: metadata log has no geometry");
    }
    GeometryBody gb;
    std::memcpy(&gb, log + sizeof(hdr), sizeof(gb));
    if (gb.shard_id != want.shard_id || gb.num_shards != want.num_shards ||
        gb.num_segments != want.num_segments ||
        gb.segment_bytes != want.segment_bytes ||
        gb.page_bytes != want.page_bytes) {
      return Status::Corruption(
          "recovery: store geometry mismatch (created with " +
          std::to_string(gb.num_shards) + " shards, " +
          std::to_string(gb.num_segments) + " segments of " +
          std::to_string(gb.segment_bytes) + " bytes)");
    }
    // Older logs simply lack the newer record types and replay
    // unchanged; a format newer than this reader could hold records we
    // would misparse as a torn tail and silently truncate. Note the
    // stamp is a lower bound only: a new writer appending to a reopened
    // old log does not rewrite the geometry record until it compacts,
    // so the replay below parses every known record type regardless of
    // stamp.
    if (gb.format > kMetaFormatWatermark) {
      return Status::Corruption(
          "recovery: metadata log format " + std::to_string(gb.format) +
          " is newer than this build supports");
    }
  }

  // Replay runs in three passes over the log. Framing finds the records'
  // boundaries, verification checks every framed checksum with the
  // four-lane kernel, and replay walks the verified prefix in order. The
  // latest record per segment wins. Replay stops at the first bad record
  // (missing magic, impossible length, checksum mismatch, malformed
  // body) — the standard WAL rule: a torn tail is expected after a
  // crash, and nothing after a corrupt record can be trusted because
  // replay is order-sensitive. A record's position in the log is its
  // ordinal; recovery breaks equal-seq ties between page versions toward
  // the later record (see BackendSegmentRecord::ordinal).
  replay->frames = FrameRecords(log, log_size);
  const std::vector<FramedRecord>& frames = replay->frames;
  const size_t verified = FirstBadChecksum(log, frames);

  // Seal and checkpoint records are last-record-per-slot resolved, so
  // replay keeps only each slot's latest ordinal (-1: none, or freed) and
  // decodes the survivors' entries afterwards.
  std::vector<int64_t> latest_seal(want.num_segments, -1);
  replay->delete_ordinals.clear();
  uint64_t ordinal = 0;
  for (; ordinal < verified; ++ordinal) {
    const MetaHeader& hdr = frames[ordinal].hdr;
    const uint8_t* body = frames[ordinal].body(log);
    if (hdr.type == kMetaSeal || hdr.type == kMetaCheckpoint ||
        hdr.type == kMetaRehome) {
      if (hdr.body_len < sizeof(SealBody)) break;
      SealBody sb;
      std::memcpy(&sb, body, sizeof(sb));
      if (sb.entry_count > (hdr.body_len - sizeof(SealBody)) / sizeof(EntryRec))
        break;
      if (hdr.body_len != sizeof(SealBody) + sb.entry_count * sizeof(EntryRec))
        break;
      if (sb.segment_id >= want.num_segments) break;
      out->max_seq = std::max(
          out->max_seq, MaxEntrySeq(body + sizeof(sb), sb.entry_count));
      out->unow = std::max(out->unow, sb.unow);
      if (hdr.type == kMetaRehome) {
        // Every re-homing record is kept, in replay order: records for
        // the same slot name different victim incarnations, and a free
        // record for the slot must not clear them (the victim's free
        // record lands alongside its re-homing record by design).
        // Recovery resolves the entries per page, newest-wins.
        out->rehomed.push_back(DecodeSealRecord(hdr, body, ordinal));
      } else {
        latest_seal[sb.segment_id] = static_cast<int64_t>(ordinal);
      }
    } else if (hdr.type == kMetaCheckpointDelta) {
      if (hdr.body_len < sizeof(DeltaBody)) break;
      DeltaBody db;
      std::memcpy(&db, body, sizeof(db));
      if (db.entry_count > (hdr.body_len - sizeof(DeltaBody)) / sizeof(EntryRec))
        break;
      if (hdr.body_len != sizeof(DeltaBody) + db.entry_count * sizeof(EntryRec))
        break;
      if (db.segment_id >= want.num_segments) break;
      if (db.suffix_offset > want.segment_bytes ||
          db.suffix_length > want.segment_bytes - db.suffix_offset) {
        break;
      }
      BackendSegmentRecord rec;
      rec.id = db.segment_id;
      rec.log = db.log;
      rec.source = static_cast<SegmentSource>(db.source);
      rec.open_time = db.open_time;
      rec.seal_time = db.seal_time;
      rec.unow = db.unow;
      rec.checkpoint = true;
      rec.delta = true;
      rec.ordinal = ordinal;
      rec.generation = db.generation;
      rec.base_ordinal = db.base_ordinal;
      rec.prefix_entries = db.prefix_entries;
      rec.suffix_offset = db.suffix_offset;
      rec.suffix_length = db.suffix_length;
      DecodeEntries(body + sizeof(db), db.entry_count, &rec.entries);
      // The entries' seqs count even when the tiling check below ends
      // the replay at this record.
      uint64_t suffix_bytes = 0;
      for (const Segment::Entry& e : rec.entries) {
        out->max_seq = std::max(out->max_seq, e.seq);
        suffix_bytes += e.bytes;
      }
      if (suffix_bytes != db.suffix_length) break;
      out->unow = std::max(out->unow, db.unow);
      // Deltas are NOT last-record-per-slot resolved: recovery walks the
      // chain from the surviving base record, and a delta orphaned by a
      // later seal/free/full-checkpoint never matches any chain tip.
      out->deltas.push_back(std::move(rec));
    } else if (hdr.type == kMetaFree) {
      if (hdr.body_len != sizeof(FreeBody)) break;
      FreeBody fb;
      std::memcpy(&fb, body, sizeof(fb));
      if (fb.segment_id >= want.num_segments) break;
      latest_seal[fb.segment_id] = -1;
      out->unow = std::max(out->unow, fb.unow);
    } else if (hdr.type == kMetaDelete) {
      if (hdr.body_len != sizeof(DeleteBody)) break;
      DeleteBody db;
      std::memcpy(&db, body, sizeof(db));
      out->deletes.emplace_back(db.page, db.seq);
      replay->delete_ordinals.push_back(ordinal);
      out->max_seq = std::max(out->max_seq, db.seq);
      out->unow = std::max(out->unow, db.unow);
    } else if (hdr.type == kMetaWatermark) {
      if (hdr.body_len != sizeof(WatermarkBody)) break;
      WatermarkBody wb;
      std::memcpy(&wb, body, sizeof(wb));
      out->max_seq = std::max(out->max_seq, wb.max_seq);
      out->unow = std::max(out->unow, wb.unow);
    } else if (hdr.type == kMetaGeometry) {
      // Validated above; nothing to replay.
    } else {
      break;
    }
  }
  replay->replayed = ordinal;
  for (size_t id = 0; id < latest_seal.size(); ++id) {
    if (latest_seal[id] < 0) continue;
    const FramedRecord& f = frames[static_cast<size_t>(latest_seal[id])];
    out->segments.push_back(DecodeSealRecord(
        f.hdr, f.body(log), static_cast<uint64_t>(latest_seal[id])));
  }
  return Status::OK();
}

}  // namespace

FileBackend::~FileBackend() { Close(); }

std::string FileBackend::DataPath(const std::string& dir, uint32_t shard_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "/shard-%04u.dat", shard_id);
  return dir + name;
}

std::string FileBackend::MetaPath(const std::string& dir, uint32_t shard_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "/shard-%04u.meta", shard_id);
  return dir + name;
}

std::string FileBackend::MetaTempPath(const std::string& dir,
                                      uint32_t shard_id) {
  return MetaPath(dir, shard_id) + ".tmp";
}

Status FileBackend::Open(const StoreConfig& config, uint32_t shard_id,
                         uint32_t num_shards, StoreStats* stats,
                         bool recover) {
  if (data_fd_ >= 0) return Status::InvalidArgument("backend already open");
  config_ = config;
  stats_ = stats;
  shard_id_ = shard_id;
  num_shards_ = num_shards;
  const std::string data_path = DataPath(config.backend_dir, shard_id);
  const std::string meta_path = MetaPath(config.backend_dir, shard_id);

  int flags = O_RDWR;
  if (recover) {
    // Reopen requires the files a previous run left behind.
    struct stat st;
    if (::stat(data_path.c_str(), &st) != 0 ||
        ::stat(meta_path.c_str(), &st) != 0) {
      return Status::NotFound("no durable state to recover in " +
                              config.backend_dir);
    }
  } else {
    flags |= O_CREAT | O_TRUNC;
  }

  data_fd_ = ::open(data_path.c_str(), flags, 0644);
  if (data_fd_ < 0) return ErrnoStatus("open data file", errno);

  meta_fd_ = ::open(meta_path.c_str(), flags, 0644);
  if (meta_fd_ < 0) {
    const Status s = ErrnoStatus("open meta file", errno);
    Close();
    return s;
  }

  if (!recover) {
    // Reserve the full payload extent so slot offsets are always valid.
    const uint64_t extent = static_cast<uint64_t>(config.num_segments) *
                            config.segment_bytes;
    if (::ftruncate(data_fd_, static_cast<off_t>(extent)) != 0) {
      const Status s = ErrnoStatus("ftruncate data file", errno);
      Close();
      return s;
    }
    meta_offset_ = 0;
  } else {
    struct stat st;
    if (::fstat(meta_fd_, &st) != 0) {
      const Status s = ErrnoStatus("fstat meta file", errno);
      Close();
      return s;
    }
    meta_offset_ = static_cast<uint64_t>(st.st_size);
  }

  // One whole-segment write buffer, page-aligned.
  void* buf = nullptr;
  if (::posix_memalign(&buf, 4096, config.segment_bytes) != 0) {
    Close();
    return Status::Corruption("posix_memalign failed");
  }
  payload_buf_ = static_cast<uint8_t*>(buf);

  // Writer-side replay numbering and checkpoint-chain state. On recover
  // the following Scan() re-derives next_ordinal_ from the surviving
  // records; chains always start closed — the first checkpoint of any
  // slot after (re)open is a full one.
  next_ordinal_ = 0;
  chain_tip_ordinal_.assign(config_.num_segments, -1);
  chain_generation_.assign(config_.num_segments, 0);

  meta_compacted_bytes_ = 0;
  // A compaction the previous run did not finish leaves its temporary
  // log behind; the metadata file itself is whole either way (the
  // rename is atomic), so the leftover is garbage.
  ::unlink(MetaTempPath(config.backend_dir, shard_id).c_str());

  if (!recover) {
    // First record: the geometry fingerprint recovery validates against.
    const GeometryBody body = StoreGeometry(config_, shard_id_, num_shards_);
    const std::vector<uint8_t> rec =
        BuildRecord(kMetaGeometry, &body, sizeof(body));
    Status s = AppendMeta(rec.data(), rec.size());
    if (!s.ok()) {
      Close();
      return s;
    }
  }
  return Status::OK();
}

Status FileBackend::AppendMeta(const void* data, size_t len) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = PwriteAll(meta_fd_, data, len, meta_offset_);
  if (!s.ok()) return s;
  meta_offset_ += len;
  ++next_ordinal_;
  if (stats_ != nullptr) {
    stats_->device_bytes_written += len;
    stats_->device_write_ops += 1;
    stats_->device_write_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

Status FileBackend::WritePayload(uint64_t len, uint64_t offset) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = PwriteAll(data_fd_, payload_buf_, len, offset);
  if (!s.ok()) return s;
  if (stats_ != nullptr) {
    stats_->device_bytes_written += len;
    stats_->device_write_ops += 1;
    stats_->device_write_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

Status FileBackend::SyncBoth() {
  if (!config_.backend_fsync) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t synced = 0;
  if (data_fd_ >= 0) {
    if (::fsync(data_fd_) != 0) return ErrnoStatus("fsync data file", errno);
    ++synced;
  }
  if (meta_fd_ >= 0) {
    if (::fsync(meta_fd_) != 0) return ErrnoStatus("fsync meta file", errno);
    ++synced;
  }
  if (stats_ != nullptr && synced > 0) {
    stats_->device_fsyncs += synced;
    stats_->device_fsync_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

// Reclaimed segments drain in two stages so the *punch* can never
// destroy payload the durable metadata still references (the caller is
// responsible for the complementary ordering: StoreShard withholds
// ReclaimSegment until the victim's relocated pages are in sealed
// segments, so the free record cannot erase the only durable copy):
//   stage 1  the free record is appended to the metadata log — ordered
//            *before* the seal record being written now, so a reclaimed
//            slot that was reallocated and resealed replays correctly;
//   stage 2  only after an fsync has made the free record durable is the
//            payload slot hole-punched (a punch is journalled by the
//            filesystem independently of our unsynced appends, so
//            punching earlier could leave a durable seal record pointing
//            at vanished payload).
// A pending punch for a slot the new seal overwrites is dropped — the
// fresh payload replaces the old bytes anyway.
Status FileBackend::DrainReclaims(bool punching_allowed) {
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) continue;
    FreeBody body{pr.id, 0, pr.unow};
    const std::vector<uint8_t> rec = BuildRecord(kMetaFree, &body, sizeof(body));
    Status s = AppendMeta(rec.data(), rec.size());
    if (!s.ok()) return s;
    pr.record_appended = true;
    // The free record supersedes every earlier record of the slot; a
    // later checkpoint of the reused slot must start a fresh chain.
    chain_tip_ordinal_[pr.id] = -1;
    // With fsync off we make no crash promises; treat appended as done.
    if (!config_.backend_fsync) pr.record_durable = true;
  }
  if (!punching_allowed) return Status::OK();
  size_t kept = 0;
  for (size_t i = 0; i < pending_reclaims_.size(); ++i) {
    PendingReclaim& pr = pending_reclaims_[i];
    if (!pr.record_durable) {
      pending_reclaims_[kept++] = pr;
      continue;
    }
#ifdef FALLOC_FL_PUNCH_HOLE
    // Filesystems without hole support just skip the punch — the free
    // record is what actually reclaims the segment.
    if (pr.punch &&
        ::fallocate(data_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(static_cast<uint64_t>(pr.id) *
                                       config_.segment_bytes),
                    static_cast<off_t>(config_.segment_bytes)) == 0) {
      if (stats_ != nullptr) {
        stats_->device_bytes_punched += config_.segment_bytes;
      }
    }
#endif
  }
  pending_reclaims_.resize(kept);
  return Status::OK();
}

// Everything appended so far — including the stage-1 free records — is
// durable once SyncBoth returns, so stage-2 punches become safe. A
// durable point is also where the metadata log may be compacted (not on
// Close: the next run compacts at its first durable point instead).
Status FileBackend::SyncThenPunch(bool compact) {
  Status s = SyncBoth();
  if (!s.ok()) return s;
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
  s = DrainReclaims(/*punching_allowed=*/true);
  if (!s.ok() || !compact) return s;
  const uint64_t trigger =
      kMetaCompactionFactor * std::max(meta_compacted_bytes_, MetaFloorBytes());
  return meta_offset_ < trigger ? Status::OK() : CompactMeta();
}

uint64_t FileBackend::MetaFloorBytes() const {
  const uint64_t pages = std::max<uint64_t>(
      1, config_.segment_bytes / std::max<uint32_t>(1, config_.page_bytes));
  return static_cast<uint64_t>(config_.num_segments) *
         (sizeof(MetaHeader) + sizeof(SealBody) + pages * sizeof(EntryRec));
}

Status FileBackend::SealSegment(const BackendSegmentRecord& record) {
  return WriteSegmentRecord(record, /*checkpoint=*/false);
}

// A checkpoint is a seal record for a segment that is still open: the
// payload prefix written so far plus a kMetaCheckpoint metadata record.
// Replay treats it as the segment's latest state until a real seal (or
// free record) supersedes it, so a crash after the checkpoint loses only
// the appends since — the partial-segment persistence that closes the
// reseal-while-GC-open crash window (see StoreShard::reclaim_queue_).
Status FileBackend::Checkpoint(const BackendSegmentRecord& record) {
  return WriteSegmentRecord(record, /*checkpoint=*/true);
}

// A delta checkpoint rewrites only the payload suffix appended since the
// shard's durable watermark and appends a kMetaCheckpointDelta record
// chained by ordinal to the slot's previous checkpoint record. Two
// invariants make the partial rewrite safe: the bytes below
// suffix_offset were covered by earlier records of the same chain and
// are never touched, and any overlap between consecutive deltas (the
// shard bases each on the *durable* watermark, so an unsynced delta's
// range may be rewritten) is byte-identical — dead entries keep their
// orig_page pattern, exactly as in a full rewrite.
Status FileBackend::CheckpointDelta(const BackendSegmentRecord& record) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("delta checkpoint: segment id out of range");
  }
  if (record.suffix_offset > config_.segment_bytes ||
      record.suffix_length > config_.segment_bytes - record.suffix_offset) {
    return Status::InvalidArgument("delta checkpoint: suffix out of range");
  }
  // Same pre-write ordering as a full rewrite: drop any pending punch of
  // this slot and put queued free records on the log first (a queued
  // free record for this very slot also closes its chain, so the guard
  // below must run after the drain).
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.id == record.id) pr.punch = false;
  }
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  if (chain_tip_ordinal_[record.id] < 0 ||
      chain_generation_[record.id] != record.generation) {
    // The shard must fall back to a full checkpoint whenever the slot
    // generation changed or no prior checkpoint exists; reaching here is
    // a caller bug, not a device state we can write through.
    return Status::InvalidArgument(
        "delta checkpoint without a matching chain base");
  }

  // Suffix payload, built at buffer offset (entry.offset - suffix_offset).
  // Entries must tile the declared range exactly — a mismatch means the
  // caller's watermark bookkeeping is broken.
  uint8_t* const buf = payload_buf_;
  uint64_t cursor = record.suffix_offset;
  for (const Segment::Entry& e : record.entries) {
    if (e.offset != cursor ||
        cursor + e.bytes > record.suffix_offset + record.suffix_length) {
      return Status::Corruption("delta checkpoint: entries do not tile suffix");
    }
    const PageId payload_page = e.page != kInvalidPage ? e.page : e.orig_page;
    if (payload_page != kInvalidPage) {
      FillPagePayload(payload_page, e.bytes,
                      buf + (cursor - record.suffix_offset));
    } else {
      std::memset(buf + (cursor - record.suffix_offset), 0, e.bytes);
    }
    cursor += e.bytes;
  }
  if (cursor != record.suffix_offset + record.suffix_length) {
    return Status::Corruption("delta checkpoint: entries do not tile suffix");
  }

  if (record.suffix_length > 0) {
    s = WritePayload(record.suffix_length,
                     static_cast<uint64_t>(record.id) * config_.segment_bytes +
                         record.suffix_offset);
    if (!s.ok()) return s;
  }

  std::vector<uint8_t> meta_body(sizeof(DeltaBody) +
                                 record.entries.size() * sizeof(EntryRec));
  DeltaBody body{};
  body.segment_id = record.id;
  body.log = record.log;
  body.source = static_cast<uint64_t>(record.source);
  body.open_time = record.open_time;
  body.seal_time = record.seal_time;
  body.unow = record.unow;
  body.entry_count = record.entries.size();
  body.generation = record.generation;
  body.base_ordinal =
      static_cast<uint64_t>(chain_tip_ordinal_[record.id]);
  body.prefix_entries = record.prefix_entries;
  body.suffix_offset = record.suffix_offset;
  body.suffix_length = record.suffix_length;
  std::memcpy(meta_body.data(), &body, sizeof(body));
  EncodeEntries(record.entries, meta_body.data() + sizeof(body));
  const std::vector<uint8_t> rec =
      BuildRecord(kMetaCheckpointDelta, meta_body.data(), meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  chain_tip_ordinal_[record.id] = static_cast<int64_t>(next_ordinal_ - 1);
  if (stats_ != nullptr) {
    stats_->checkpoint_bytes_written += record.suffix_length + rec.size();
  }
  if (deferred_sync_) return Status::OK();
  return SyncThenPunch();
}

// A re-homing record carries the still-needed entries of a withheld
// victim slot (`record.id`) and NO payload — those entries' payloads are
// pattern-reconstructible, and the victim slot's own payload is about to
// be overwritten by its new occupant. The record must be DURABLE before
// the shard reuses the slot, even in group-commit mode: a crashing
// rewrite of the slot may tear the victim's payload while a batch-end
// Sync never arrives, and replay would otherwise still resolve the
// victim's pages to its stale (now torn) seal record. Hence the forced
// SyncBoth here — which also makes every earlier append (the records
// superseding the entries NOT re-homed, and the stage-1 free records)
// durable, completing the re-homing invariant in one barrier. With
// backend_fsync off no crash promises exist and SyncBoth is a no-op.
Status FileBackend::RehomeEntries(const BackendSegmentRecord& record) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("rehome: segment id out of range");
  }
  // Stage-1 drain: queued free records (including, typically, the
  // victim's own) land before the re-homing record, matching emission
  // order = log order.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  const std::vector<uint8_t> meta_body = SealRecordBody(record);
  const std::vector<uint8_t> rec =
      BuildRecord(kMetaRehome, meta_body.data(), meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  // Durability barrier, deliberately ignoring deferred_sync_.
  return SyncThenPunch();
}

Status FileBackend::WriteSegmentRecord(const BackendSegmentRecord& record,
                                       bool checkpoint) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("seal: segment id out of range");
  }

  // A punch pending against the slot we are about to rewrite would
  // destroy the new payload; the overwrite supersedes it.
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.id == record.id) pr.punch = false;
  }
  // Stage-1 drain: free records land before this seal record.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  // Payload: live entries carry the deterministic pattern; entries that
  // died in place keep their ORIGINAL pattern (orig_page) so every
  // rewrite of this slot produces byte-identical content for regions an
  // earlier durable record (a checkpoint of the same segment) may still
  // reference — a torn rewrite then only garbles the new suffix, whose
  // only referencing record dies with the crash. Only entries whose
  // original page is unknown (recovery-reconstructed dead entries, never
  // rewritten) and the unused tail are zero-filled.
  uint8_t* const buf = payload_buf_;
  uint64_t cursor = 0;
  for (const Segment::Entry& e : record.entries) {
    if (cursor + e.bytes > config_.segment_bytes) {
      return Status::Corruption("seal: entries overflow segment capacity");
    }
    const PageId payload_page = e.page != kInvalidPage ? e.page : e.orig_page;
    if (payload_page != kInvalidPage) {
      FillPagePayload(payload_page, e.bytes, buf + cursor);
    } else {
      std::memset(buf + cursor, 0, e.bytes);
    }
    cursor += e.bytes;
  }
  std::memset(buf + cursor, 0, config_.segment_bytes - cursor);

  s = WritePayload(config_.segment_bytes,
                   static_cast<uint64_t>(record.id) * config_.segment_bytes);
  if (!s.ok()) return s;

  // Metadata record: body + entry array, checksummed as one record.
  const std::vector<uint8_t> meta_body = SealRecordBody(record);
  const std::vector<uint8_t> rec = BuildRecord(
      checkpoint ? kMetaCheckpoint : kMetaSeal, meta_body.data(),
      meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  if (checkpoint) {
    // This record is now the slot's chain tip: deltas may chain onto it
    // as long as the shard stays in the same fill generation.
    chain_tip_ordinal_[record.id] = static_cast<int64_t>(next_ordinal_ - 1);
    chain_generation_[record.id] = record.generation;
    if (stats_ != nullptr) {
      stats_->checkpoint_bytes_written += config_.segment_bytes + rec.size();
    }
  } else {
    // A real seal supersedes the chain; the slot re-records in full next.
    chain_tip_ordinal_[record.id] = -1;
  }
  // Group-commit mode: durability (and the punches that require it)
  // arrives with the pipeline's next explicit Sync().
  if (deferred_sync_) return Status::OK();
  return SyncThenPunch();
}

Status FileBackend::Sync() {
  if (data_fd_ < 0 && meta_fd_ < 0) {
    return Status::InvalidArgument("backend not open");
  }
  // Free records queued since the last seal must be on the log before
  // the fsync that this group commit promises covers them.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;
  return SyncThenPunch();
}

Status FileBackend::ReclaimSegment(SegmentId id, UpdateCount unow) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (id >= config_.num_segments) {
    return Status::InvalidArgument("reclaim: segment id out of range");
  }
  // Deferred: the free record and the hole punch happen on the next
  // seal/close (see DrainReclaims). Losing a queued reclaim to a crash
  // is benign — recovery sees the victim still sealed, and its stale
  // entries lose newest-wins to the relocated copies, or faithfully
  // restore the pre-clean state if those copies' seal was lost too.
  pending_reclaims_.push_back(PendingReclaim{id, unow, false, false, true});
  return Status::OK();
}

Status FileBackend::RecordDelete(PageId page, uint64_t seq, UpdateCount unow) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  DeleteBody body{page, seq, unow};
  const std::vector<uint8_t> rec = BuildRecord(kMetaDelete, &body, sizeof(body));
  Status s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  // In fsync mode an acknowledged delete must survive a crash, exactly
  // like an acknowledged seal; only the metadata log needs syncing. (A
  // lost *reclaim* record, by contrast, is benign: recovery then sees
  // the victim still sealed, and its stale entries lose newest-wins to
  // the relocated copies — or faithfully restore the pre-clean state if
  // those copies' seal was lost too.) In group-commit mode the
  // pipeline's next Sync() covers the tombstone instead.
  if (config_.backend_fsync && !deferred_sync_) {
    const auto t0 = std::chrono::steady_clock::now();
    if (::fsync(meta_fd_) != 0) return ErrnoStatus("fsync meta file", errno);
    if (stats_ != nullptr) {
      stats_->device_fsyncs += 1;
      stats_->device_fsync_seconds += SecondsSince(t0);
    }
  }
  return Status::OK();
}

Status FileBackend::ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                                    uint32_t bytes, std::vector<uint8_t>* out) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (id >= config_.num_segments ||
      offset + bytes > config_.segment_bytes) {
    return Status::InvalidArgument("read: location out of range");
  }
  out->resize(bytes);
  Status s = PreadAll(data_fd_, out->data(), bytes,
                      static_cast<uint64_t>(id) * config_.segment_bytes +
                          offset);
  if (!s.ok()) return s;
  if (!VerifyPagePayload(page, bytes, out->data())) {
    return Status::Corruption("read: payload does not match page pattern");
  }
  return Status::OK();
}

Status FileBackend::Scan(BackendRecovery* out) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  *out = BackendRecovery{};

  struct stat st;
  if (::fstat(meta_fd_, &st) != 0) return ErrnoStatus("fstat meta", errno);
  // Read the whole log into an uninitialised buffer: nothing is
  // zero-filled only to be overwritten.
  const size_t log_size = static_cast<size_t>(st.st_size);
  std::unique_ptr<uint8_t[]> image(new uint8_t[log_size]);
  Status s = PreadAll(meta_fd_, image.get(), log_size, 0);
  if (!s.ok()) return s;
  const uint8_t* log = image.get();

  LogReplay replay;
  s = ReplayLog(log, log_size, StoreGeometry(config_, shard_id_, num_shards_),
                out, &replay);
  if (!s.ok()) return s;
  // Future appends continue after the last whole record, numbered where
  // the replay left off; every checkpoint chain is closed (the recovered
  // segments are rebuilt as sealed, so the first checkpoint of any slot
  // in the new run is a full one).
  const uint64_t valid_end = replay.valid_end();
  next_ordinal_ = replay.replayed;
  chain_tip_ordinal_.assign(config_.num_segments, -1);
  // The truncated tail is cut off the file, not just skipped: stale
  // bytes past the new append position could otherwise be misparsed as
  // records by the *next* recovery once fresh appends stop short of them.
  meta_offset_ = valid_end;
  if (valid_end < log_size &&
      ::ftruncate(meta_fd_, static_cast<off_t>(valid_end)) != 0) {
    return ErrnoStatus("ftruncate meta tail", errno);
  }
  return Status::OK();
}

// Rewrites the log as described in the header. The survivors keep their
// replay order, so every equal-seq tie ResolveRecovery breaks by
// ordinal breaks the same way; a folded chain moves to its tip's
// position, later than any record its entries were copied from.
Status FileBackend::CompactMeta() {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  const auto t0 = std::chrono::steady_clock::now();

  // The log as appended so far, replayed exactly as a recovery would.
  const size_t log_size = static_cast<size_t>(meta_offset_);
  std::unique_ptr<uint8_t[]> image(new uint8_t[log_size]);
  Status s = PreadAll(meta_fd_, image.get(), log_size, 0);
  if (!s.ok()) return s;
  const uint8_t* log = image.get();
  BackendRecovery scanned;
  LogReplay replay;
  s = ReplayLog(log, log_size, StoreGeometry(config_, shard_id_, num_shards_),
                &scanned, &replay);
  if (!s.ok()) return s;
  if (replay.valid_end() != meta_offset_) {
    return Status::Corruption(
        "compaction: metadata log does not replay to its end");
  }
  ResolvedRecovery rec;
  s = ResolveRecovery(std::move(scanned), config_.num_segments, &rec);
  if (!s.ok()) return s;

  // One record of the compacted log: its replay position in the old log
  // and its bytes, either the old record's or rebuilt ones. `slot` names
  // the slot of a seal or checkpoint survivor (-1 for the others).
  struct Kept {
    uint64_t ordinal;
    int64_t slot;
    const uint8_t* data;
    size_t len;
    std::vector<uint8_t> rebuilt;
  };
  std::vector<Kept> kept;
  auto keep_old = [&](uint64_t ordinal, int64_t slot) {
    const FramedRecord& f = replay.frames[static_cast<size_t>(ordinal)];
    kept.push_back(Kept{ordinal, slot, log + f.offset,
                        sizeof(MetaHeader) + f.hdr.body_len, {}});
  };
  auto keep_rebuilt = [&](uint64_t ordinal, int64_t slot, MetaType type,
                          const BackendSegmentRecord& r) {
    const std::vector<uint8_t> body = SealRecordBody(r);
    kept.push_back(Kept{ordinal, slot, nullptr, 0,
                        BuildRecord(type, body.data(), body.size())});
  };

  // Each occupied slot's latest record, a delta chain folded into one
  // full checkpoint record at the tip's position. Every version in a
  // slot, and every winning re-homed entry, notes its page's newest seq
  // for the tombstone rule below.
  std::unordered_map<PageId, uint64_t> newest_version;
  auto note_version = [&newest_version](const Segment::Entry& e) {
    uint64_t& n = newest_version[e.page];
    n = std::max(n, e.seq);
  };
  for (const ResolvedRecovery::Slot& slot : rec.slots) {
    const int64_t id = slot.record.id;
    if (slot.tip_ordinal == slot.record.ordinal) {
      keep_old(slot.tip_ordinal, id);
    } else {
      keep_rebuilt(slot.tip_ordinal, id, kMetaCheckpoint, slot.record);
    }
    for (const Segment::Entry& e : slot.record.entries) {
      if (e.page != kInvalidPage) note_version(e);
    }
  }

  // A re-homed entry survives only while it wins: anything that beats it
  // now keeps a version at least as new in the log for good.
  for (const ResolvedRecovery::Rehomed& r : rec.rehomed) {
    BackendSegmentRecord won = r.record;
    won.entries.clear();
    for (size_t i = 0; i < r.record.entries.size(); ++i) {
      if (!r.wins[i]) continue;
      won.entries.push_back(r.record.entries[i]);
      note_version(r.record.entries[i]);
    }
    if (won.entries.empty()) continue;
    if (won.entries.size() == r.record.entries.size()) {
      keep_old(won.ordinal, -1);
    } else {
      keep_rebuilt(won.ordinal, -1, kMetaRehome, won);
    }
  }

  // Per page the newest tombstone, unless a surviving version of the
  // page is newer (that version beats every older one without it). A
  // tombstone whose page has no surviving version stays too: the
  // shard may still hold an unrecorded version of the page in an open
  // segment, which its seal would record live under the page's identity.
  for (const size_t i : rec.newest_deletes) {
    const auto& [page, seq] = rec.deletes[i];
    auto it = newest_version.find(page);
    if (it == newest_version.end() || it->second < seq) {
      keep_old(replay.delete_ordinals[i], -1);
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Kept& a, const Kept& b) {
    return a.ordinal < b.ordinal;
  });

  // The compacted log numbers its records afresh: geometry 0, watermark
  // 1, then the survivors. An open checkpoint chain continues from its
  // slot's survivor, which must be the chain's writer-side tip.
  constexpr uint64_t kFirstKeptOrdinal = 2;
  std::vector<int64_t> chain_tips(config_.num_segments, -1);
  for (size_t i = 0; i < kept.size(); ++i) {
    const int64_t slot = kept[i].slot;
    if (slot >= 0 && chain_tip_ordinal_[static_cast<size_t>(slot)] ==
                         static_cast<int64_t>(kept[i].ordinal)) {
      chain_tips[static_cast<size_t>(slot)] =
          static_cast<int64_t>(kFirstKeptOrdinal + i);
    }
  }
  for (SegmentId id = 0; id < config_.num_segments; ++id) {
    if (chain_tip_ordinal_[id] >= 0 && chain_tips[id] < 0) {
      return Status::Corruption(
          "compaction: a checkpoint chain's tip is not its slot's latest "
          "record");
    }
  }

  std::vector<uint8_t> out;
  auto append = [&out](const uint8_t* data, size_t len) {
    out.insert(out.end(), data, data + len);
  };
  const GeometryBody geometry = StoreGeometry(config_, shard_id_, num_shards_);
  const std::vector<uint8_t> geometry_rec =
      BuildRecord(kMetaGeometry, &geometry, sizeof(geometry));
  const WatermarkBody watermark{rec.max_seq, rec.unow};
  const std::vector<uint8_t> watermark_rec =
      BuildRecord(kMetaWatermark, &watermark, sizeof(watermark));
  append(geometry_rec.data(), geometry_rec.size());
  append(watermark_rec.data(), watermark_rec.size());
  for (const Kept& k : kept) {
    if (k.rebuilt.empty()) {
      append(k.data, k.len);
    } else {
      append(k.rebuilt.data(), k.rebuilt.size());
    }
  }

  // Write, sync, rename, sync the directory; the old log stays the one
  // appended to until the rename is durable.
  const std::string meta_path = MetaPath(config_.backend_dir, shard_id_);
  const std::string temp_path = MetaTempPath(config_.backend_dir, shard_id_);
  auto step = [this](CompactionStep at) {
    return !compaction_hook_ || compaction_hook_(at);
  };
  const Status interrupted =
      Status::Corruption("compaction: interrupted by a simulated crash");
  const int fd = ::open(temp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open temporary meta file", errno);
  auto fail = [fd](Status e) {
    ::close(fd);
    return e;
  };
  const auto tw = std::chrono::steady_clock::now();
  s = PwriteAll(fd, out.data(), out.size(), 0);
  if (!s.ok()) return fail(s);
  if (stats_ != nullptr) {
    stats_->device_bytes_written += out.size();
    stats_->device_write_ops += 1;
    stats_->device_write_seconds += SecondsSince(tw);
  }
  if (!step(CompactionStep::kTempWritten)) return fail(interrupted);
  uint64_t synced = 0;
  double sync_seconds = 0.0;
  if (config_.backend_fsync) {
    const auto ts = std::chrono::steady_clock::now();
    if (::fsync(fd) != 0) {
      return fail(ErrnoStatus("fsync temporary meta file", errno));
    }
    ++synced;
    sync_seconds += SecondsSince(ts);
  }
  if (!step(CompactionStep::kTempSynced)) return fail(interrupted);
  if (::rename(temp_path.c_str(), meta_path.c_str()) != 0) {
    return fail(ErrnoStatus("rename compacted meta file", errno));
  }
  if (!step(CompactionStep::kRenamed)) return fail(interrupted);
  Status dir_synced = Status::OK();
  if (config_.backend_fsync) {
    const auto ts = std::chrono::steady_clock::now();
    const std::string dir =
        config_.backend_dir.empty() ? "/" : config_.backend_dir;
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0 || ::fsync(dfd) != 0) {
      dir_synced = ErrnoStatus("fsync backend directory", errno);
    } else {
      ++synced;
      sync_seconds += SecondsSince(ts);
    }
    if (dfd >= 0) ::close(dfd);
  }
  // The new log is the named one now, so it is the one appended to even
  // when the directory sync failed (the caller then sees that error).
  ::close(meta_fd_);
  meta_fd_ = fd;
  meta_offset_ = out.size();
  next_ordinal_ = kFirstKeptOrdinal + kept.size();
  chain_tip_ordinal_ = std::move(chain_tips);
  meta_compacted_bytes_ = out.size();
  if (!dir_synced.ok()) return dir_synced;
  if (stats_ != nullptr) {
    stats_->device_fsyncs += synced;
    stats_->device_fsync_seconds += sync_seconds;
    stats_->meta_compactions += 1;
    stats_->meta_compaction_bytes += out.size();
    stats_->meta_compaction_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

Status FileBackend::Close() {
  Status result = Status::OK();
  if (data_fd_ >= 0 && meta_fd_ >= 0) {
    // Flush queued reclaims: records first, sync, then punches.
    result = DrainReclaims(/*punching_allowed=*/false);
    if (result.ok()) result = SyncThenPunch(/*compact=*/false);
  } else if (data_fd_ >= 0 || meta_fd_ >= 0) {
    result = SyncBoth();
  }
  ReleaseFds();
  return result;
}

// Power-loss simulation: the queued free records and any unsynced
// appends simply never happen, exactly as if the process died here.
void FileBackend::Abandon() {
  pending_reclaims_.clear();
  ReleaseFds();
}

void FileBackend::ReleaseFds() {
  if (data_fd_ >= 0) {
    ::close(data_fd_);
    data_fd_ = -1;
  }
  if (meta_fd_ >= 0) {
    ::close(meta_fd_);
    meta_fd_ = -1;
  }
  std::free(payload_buf_);
  payload_buf_ = nullptr;
}

#endif  // POSIX

// --- FaultInjectionBackend crash simulation --------------------------------

void FaultInjectionBackend::CrashAfterOps(int64_t ops, uint64_t seed) {
  crash_seed_ = seed;
  crash_budget_.store(ops, std::memory_order_release);
}

void FaultInjectionBackend::CrashInCompaction(
    int64_t compactions, FileBackend::CompactionStep step, uint64_t seed) {
  compaction_seed_ = seed;
  compaction_kill_step_.store(static_cast<int>(step),
                              std::memory_order_relaxed);
  compaction_kill_at_.store(compactions, std::memory_order_release);
}

bool FaultInjectionBackend::CompactionGate(FileBackend::CompactionStep step) {
  int64_t index = compactions_.load(std::memory_order_relaxed);
  if (step == FileBackend::CompactionStep::kTempWritten) {
    index = compactions_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    --index;  // the compaction kTempWritten counted
  }
  if (index != compaction_kill_at_.load(std::memory_order_acquire) ||
      static_cast<int>(step) !=
          compaction_kill_step_.load(std::memory_order_relaxed)) {
    return true;
  }
#ifndef _WIN32
  if (step == FileBackend::CompactionStep::kTempWritten) {
    // Unsynced: writeback may have persisted any prefix of the file.
    const std::string temp =
        FileBackend::MetaTempPath(config_.backend_dir, shard_id_);
    struct stat st;
    if (::stat(temp.c_str(), &st) == 0 && st.st_size > 0) {
      Rng rng(compaction_seed_);
      (void)!::truncate(temp.c_str(),
                        static_cast<off_t>(rng.NextBounded(
                            static_cast<uint64_t>(st.st_size))));
    }
  }
#endif
  compaction_killed_.store(true, std::memory_order_release);
  return false;
}

Status FaultInjectionBackend::AfterBase(Status s) {
  if (!compaction_killed_.load(std::memory_order_acquire) || crashed()) {
    return s;
  }
  base_->Abandon();
  crashed_.store(true, std::memory_order_release);
  return CrashedStatus();
}

bool FaultInjectionBackend::CrashGate(Status* out,
                                      const BackendSegmentRecord* record) {
  if (crashed_.load(std::memory_order_acquire)) {
    *out = CrashedStatus();
    return false;
  }
  // Mutating ops are serialised (one thread drives a backend at a time),
  // but CrashAfterOps may arm from another thread mid-run; the atomics
  // make that handoff race-free.
  if (crash_budget_.load(std::memory_order_relaxed) == kCrashDisarmed) {
    return true;
  }
  if (crash_budget_.fetch_sub(1, std::memory_order_acq_rel) > 0) return true;
  TearAndDie(record);
  *out = CrashedStatus();
  return false;
}

void FaultInjectionBackend::TearAndDie(const BackendSegmentRecord* record) {
  // Drop the base first: its queued free records and any other pending
  // work die with the "process", never reaching the files we tear below.
  base_->Abandon();
  crashed_.store(true, std::memory_order_release);
  if (file_base_ == nullptr) return;
#ifndef _WIN32
  Rng rng(crash_seed_);
  const std::string meta_path =
      FileBackend::MetaPath(config_.backend_dir, shard_id_);
  const std::string data_path =
      FileBackend::DataPath(config_.backend_dir, shard_id_);

  // The crashing record was mid-append: leave the log tail the way an
  // interrupted writeback would — a clean cut, loose garbage, or a
  // valid-looking header whose body never fully landed (the torn-record
  // case Scan's checksums must catch).
  const uint64_t style = rng.NextBounded(4);
  int mfd = ::open(meta_path.c_str(), O_WRONLY | O_APPEND);
  if (mfd >= 0) {
    if (style == 1 || style == 3) {
      struct TornHeader {
        uint32_t magic;
        uint16_t type;
        uint16_t reserved;
        uint64_t body_len;
        uint64_t checksum;
      } hdr{0x4C535331u, 1, 0, 64 + rng.NextBounded(4096), rng()};
      (void)!::write(mfd, &hdr, sizeof(hdr));
      uint8_t junk[512];
      const size_t body = static_cast<size_t>(
          rng.NextBounded(std::min<uint64_t>(hdr.body_len, sizeof(junk))));
      for (size_t i = 0; i < body; ++i) {
        junk[i] = static_cast<uint8_t>(rng());
      }
      (void)!::write(mfd, junk, body);
    } else if (style == 2) {
      uint8_t junk[96];
      const size_t n = 1 + static_cast<size_t>(rng.NextBounded(sizeof(junk)));
      for (size_t i = 0; i < n; ++i) {
        junk[i] = static_cast<uint8_t>(rng());
      }
      (void)!::write(mfd, junk, n);
    }
    ::close(mfd);
  }

  // A seal or checkpoint that died mid-payload leaves its slot partially
  // overwritten. A real torn pwrite leaves every byte at either its old
  // or its NEW value — so the tear must write a prefix of the payload
  // the crashing op would actually have produced (same reconstruction as
  // FileBackend::WriteSegmentRecord), not arbitrary junk: regions an
  // earlier durable record of this slot references are byte-identical in
  // the rewrite (Segment::Entry::orig_page keeps dead entries stable),
  // so only bytes no surviving metadata record describes can change.
  // For a delta checkpoint only the suffix range was in flight: the tear
  // writes a random prefix of the suffix payload at suffix_offset and
  // never touches the bytes below it — those belong to earlier durable
  // records of the chain and real hardware was not writing them.
  if (record != nullptr && (style == 3 || rng.NextBounded(2) == 0)) {
    int dfd = ::open(data_path.c_str(), O_WRONLY);
    if (dfd >= 0) {
      const uint64_t range_base = record->delta ? record->suffix_offset : 0;
      const uint64_t range_len =
          record->delta ? record->suffix_length : config_.segment_bytes;
      std::vector<uint8_t> payload(static_cast<size_t>(range_len), 0);
      uint64_t cursor = range_base;
      for (const Segment::Entry& e : record->entries) {
        const uint64_t at = record->delta ? e.offset : cursor;
        if (at < range_base || at + e.bytes > range_base + range_len) break;
        const PageId payload_page =
            e.page != kInvalidPage ? e.page : e.orig_page;
        if (payload_page != kInvalidPage) {
          FillPagePayload(payload_page, e.bytes,
                          payload.data() + (at - range_base));
        }
        cursor = at + e.bytes;
      }
      const size_t len = static_cast<size_t>(rng.NextBounded(range_len + 1));
      if (len > 0) {
        (void)!::pwrite(dfd, payload.data(), len,
                        static_cast<off_t>(static_cast<uint64_t>(record->id) *
                                               config_.segment_bytes +
                                           range_base));
      }
      ::close(dfd);
    }
  }
#else
  (void)record;
#endif
}

}  // namespace lss
