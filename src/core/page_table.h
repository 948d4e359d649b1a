#ifndef LSS_CORE_PAGE_TABLE_H_
#define LSS_CORE_PAGE_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/types.h"
#include "util/prefetch.h"

namespace lss {

/// Where the current version of a page lives. Log-structured stores never
/// update in place, so every write moves a page and the table is remapped
/// (paper §1: "pages are dynamically remapped on every write").
struct PageLocation {
  /// Owning segment, or kBufferSegment (in the user write buffer) or
  /// kInvalidSegment (page not present).
  SegmentId segment = kInvalidSegment;
  /// Entry index within the segment, or the buffer slot.
  uint32_t index = 0;

  bool Present() const { return segment != kInvalidSegment; }
  bool InBuffer() const { return segment == kBufferSegment; }
};

/// Per-page metadata the store and the policies need.
struct PageMeta {
  PageLocation loc;
  /// Current version size in bytes.
  uint32_t bytes = 0;
  /// Update-count clock at the page's most recent update (up1). Used by
  /// the multi-log policy's frequency estimate and by the up2 carry rule.
  UpdateCount last_update = 0;
};

/// Lock-free page table: PageId -> PageMeta for dense ids (workloads
/// number pages 0..P-1) below kMaxPages = 2^32, grown on demand.
///
/// A fixed directory of 168 chunk pointers covers every id. Chunk sizes
/// double every 8 chunks (8 x 512 entries, 8 x 1 Ki, ...), so a partly
/// used last chunk wastes at most an eighth of the table. Chunks never
/// move, so references from Ensure stay valid across growth. A lookup is
/// two dependent loads, chunk pointer (acquire) then entry; Ensure
/// publishes a missing chunk by CAS (release), and a loser frees its own.
///
/// Concurrency contract: the table protects only its own *structure*.
/// The PageMeta *fields* are not locked here — all accesses to a given
/// page's meta must be serialized by the page's owner (the owning
/// shard's lock in a ShardedStore).
class PageTable {
 public:
  static constexpr PageId kMaxPages = PageId{1} << 32;

  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  ~PageTable() { for (auto& c : chunks_) delete[] c.load(); }

  /// The metadata slot for `page` (< kMaxPages); publishes its chunk.
  PageMeta& Ensure(PageId page) {
    assert(page < kMaxPages);
    const auto [c, index] = Locate(page);
    PageMeta* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      std::unique_ptr<PageMeta[]> fresh(new PageMeta[ChunkEntries(c)]);
      if (chunks_[c].compare_exchange_strong(chunk, fresh.get(),
                                             std::memory_order_release,
                                             std::memory_order_acquire)) {
        chunk = fresh.release();
      }  // else `chunk` is the winner's and `fresh` is freed
    }
    // Size() is the max ensured page id + 1, maintained monotonically.
    PageId cur = size_.load(std::memory_order_relaxed);
    while (cur <= page && !size_.compare_exchange_weak(cur, page + 1)) {}
    return chunk[index];
  }

  /// Metadata for `page`; pages never materialised read as an absent
  /// default (exactly what a freshly published chunk holds).
  const PageMeta& Get(PageId page) const {
    static const PageMeta kAbsent{};
    if (page >= kMaxPages) return kAbsent;
    const auto [c, index] = Locate(page);
    const PageMeta* chunk = chunks_[c].load(std::memory_order_acquire);
    return chunk != nullptr ? chunk[index] : kAbsent;
  }

  /// Prefetches `page`'s metadata slot for a coming Ensure; does nothing
  /// for an id beyond the table or a chunk not yet published.
  void Prefetch(PageId page) const {
    if (page >= kMaxPages) return;
    const auto [c, index] = Locate(page);
    const PageMeta* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk != nullptr) PrefetchForWrite(&chunk[index]);
  }

  /// True if `page` has ever been written and is currently present.
  bool Present(PageId page) const { return Get(page).loc.Present(); }

  /// Number of page slots allocated (max page id ensured + 1).
  size_t Size() const { return size_.load(std::memory_order_acquire); }

  /// Number of currently present pages (O(n); for tests/diagnostics).
  size_t CountPresent() const {
    size_t n = 0;
    for (PageId p = 0; p < Size(); ++p) n += Present(p) ? 1 : 0;
    return n;
  }

  /// Directory index of the chunk holding `page`.
  static size_t ChunkOf(PageId page) { return Locate(page).first; }

 private:
  // Ids are offset by 2^kBandBits; offsets with top bit b form band
  // b - kBandBits, 2^b ids cut into 2^kSplitBits equal chunks.
  static constexpr int kBandBits = 12;
  static constexpr int kSplitBits = 3;
  static constexpr size_t kChunks = (33 - kBandBits) << kSplitBits;

  static size_t ChunkEntries(size_t c) {
    return size_t{1} << (kBandBits - kSplitBits + (c >> kSplitBits));
  }
  /// (chunk, entry index within it) of `page`.
  static std::pair<size_t, size_t> Locate(PageId page) {
    const uint64_t off = page + (uint64_t{1} << kBandBits);
    const int bits = 63 - __builtin_clzll(off) - kSplitBits;  // chunk log2
    const size_t band = static_cast<size_t>(bits + kSplitBits - kBandBits);
    const size_t sub = (off >> bits) & ((size_t{1} << kSplitBits) - 1);
    return {(band << kSplitBits) | sub, off & ((uint64_t{1} << bits) - 1)};
  }

  std::atomic<PageMeta*> chunks_[kChunks] = {};
  std::atomic<PageId> size_{0};
};

}  // namespace lss

#endif  // LSS_CORE_PAGE_TABLE_H_
