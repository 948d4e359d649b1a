#ifndef LSS_BTREE_BUFFER_POOL_H_
#define LSS_BTREE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btree/page.h"
#include "btree/pager.h"
#include "core/types.h"
#include "util/rng.h"

namespace lss {

/// Buffer cache over a Pager, the component that shapes the page write
/// I/O stream the paper's TPC-C experiment consumes ("The buffer cache
/// size was set at 4GB", §6.3). Dirty pages are written back on eviction
/// (and on checkpoints/flushes); each write-back is reported to the
/// observer, which is how the cleaning-simulator trace is collected.
/// Single-threaded: one writer drives the pool, so it takes no locks.
///
/// Replacement. Frames are divided into stripes and a page hashes
/// (SplitMix64) to exactly one stripe, which runs as an independent cache
/// with exact LRU over its unpinned frames, most recent at the front: a
/// hit unlinks the frame, an unpin to zero pins pushes it at the front,
/// and the victim is the back. At one stripe this is a single exact LRU
/// cache (pinned against a reference model by
/// ExactLruMatchesReferenceModel). The stripe count is a function of the
/// capacity (AutoPartitions in buffer_pool.cc); this structure produced
/// the committed Figure 6 traces, so changing it changes the trace.
///
/// FlushAll skips frames that are pinned at flush time — their bytes are
/// in active use — leaving them dirty for a later eviction or flush.
class BufferPool {
 public:
  /// Called with the page number of every write-back to the pager.
  using WriteObserver = std::function<void(PageNo)>;

  /// `capacity_pages` must be >= 8 (the B+-tree pins a few pages at
  /// once). The stripe count scales with capacity but never leaves a
  /// stripe with fewer than 64 frames; every capacity in [8, 127] is one
  /// stripe.
  BufferPool(Pager* pager, size_t capacity_pages,
             WriteObserver observer = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Pins `page` in the cache and returns its frame bytes. The caller
  /// must Unpin exactly once (prefer PageRef). Never returns null.
  uint8_t* Pin(PageNo page);

  /// Releases one pin; `dirty` marks the frame as modified.
  void Unpin(PageNo page, bool dirty);

  /// Allocates a fresh page (through the pager) and pins it dirty-able.
  PageNo AllocatePinned(uint8_t** data_out);

  /// Writes back every dirty unpinned frame (a checkpoint), stripe by
  /// stripe in frame order. Frames stay cached. Pinned frames are
  /// skipped (see class comment).
  void FlushAll();

  size_t capacity() const { return capacity_; }
  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }

  // Counters, summed across stripes.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t write_backs() const;
  size_t PinnedFrames() const;

 private:
  struct Frame {
    PageNo page = kInvalidPageNo;
    std::vector<uint8_t> data;
    uint32_t pins = 0;
    bool dirty = false;
    bool in_lru = false;                 // in the stripe's LRU list
    std::list<size_t>::iterator lru_pos;  // valid iff in_lru
  };

  // One stripe: a share of the frames plus all the state needed to run
  // them as an independent cache.
  struct Partition {
    std::vector<Frame> frames;
    std::unordered_map<PageNo, size_t> page_to_frame;
    std::vector<size_t> free_frames;
    std::list<size_t> lru;  // front = most recent; unpinned frames only

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t write_backs = 0;
  };

  Partition& PartitionFor(PageNo page) {
    return parts_[SplitMix64(page) % parts_.size()];
  }

  // Pin/unpin by frame identity (PageRef's backend). PinFrame is Pin()
  // returning the frame itself; UnpinFrame skips the page->frame lookup
  // a plain Unpin needs.
  Frame& PinFrame(PageNo page);
  void UnpinFrame(Frame& f, PageNo page, bool dirty);

  // PinIn returns the pinned frame's index within the stripe.
  static void LruRemove(Partition& part, Frame& f);
  size_t FrameFor(Partition& part, PageNo page, bool load_from_pager);
  void WriteBack(Partition& part, Frame& f);
  size_t EvictOne(Partition& part);  // returns the freed frame
  size_t PinIn(Partition& part, PageNo page, bool load_from_pager);
  static void UnpinIn(Partition& part, size_t idx, bool dirty);

  friend class PageRef;

  Pager* pager_;
  size_t capacity_;
  WriteObserver observer_;
  std::vector<Partition> parts_;
};

/// RAII pin on a buffer-pool page. Move-only. A move-assignment releases
/// the target's old pin, so `ref = std::move(child)` with `child` already
/// constructed unpins the parent after the child was pinned (the
/// B+-tree's descent order).
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageNo page)
      : pool_(pool), page_(page), frame_(&pool->PinFrame(page)) {
    data_ = frame_->data.data();
  }

  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    data_ = o.data_;
    dirty_ = o.dirty_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.frame_ = nullptr;
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  ~PageRef() { Release(); }

  /// Frame bytes (kBtreePageSize of them).
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  PageNo page() const { return page_; }
  bool Valid() const { return data_ != nullptr; }

  /// Marks the page dirty; it will be written back on eviction/flush.
  void MarkDirty() { dirty_ = true; }

  /// Explicit early release (also done by the destructor).
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) {
      pool_->UnpinFrame(*frame_, page_, dirty_);
    }
    pool_ = nullptr;
    data_ = nullptr;
    frame_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  PageNo page_ = kInvalidPageNo;
  uint8_t* data_ = nullptr;
  bool dirty_ = false;
  BufferPool::Frame* frame_ = nullptr;
};

}  // namespace lss

#endif  // LSS_BTREE_BUFFER_POOL_H_
