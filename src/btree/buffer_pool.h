#ifndef LSS_BTREE_BUFFER_POOL_H_
#define LSS_BTREE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "btree/page.h"
#include "btree/pager.h"
#include "core/types.h"
#include "util/rng.h"

namespace lss {

/// How a PageRef acquires the page latch of the frame it pins. The latch
/// is a reader-writer lock stored in the frame next to the pin count; a
/// latch is only ever held while the frame is pinned (pin first, latch
/// second; unlatch before unpin), so eviction — which takes only frames
/// with zero pins — can never recycle a latched frame.
enum class LatchMode : uint8_t {
  kNone = 0,       ///< pin only; caller synchronises the bytes itself
  kShared = 1,     ///< shared page latch: concurrent readers
  kExclusive = 2,  ///< exclusive page latch: sole writer of the bytes
};

/// Buffer cache over a Pager, the component that shapes the page write
/// I/O stream the paper's TPC-C experiment consumes ("The buffer cache
/// size was set at 4GB", §6.3). Dirty pages are written back on eviction
/// (and on checkpoints/flushes); each write-back is reported to the
/// observer, which is how the cleaning-simulator trace is collected.
///
/// Concurrency. The pool is latch-striped: frames are divided into N
/// partitions and a page hashes (SplitMix64) to exactly one partition,
/// whose mutex serialises every pin, unpin, eviction and write-back on
/// its frames. Distinct partitions proceed fully in parallel; a page's
/// pager I/O only ever happens under its partition mutex, so the pager
/// needs no per-page locking of its own.
///
/// Replacement is exact LRU per partition: a list of the partition's
/// unpinned frames, most recent at the front. A hit unlinks the frame, an
/// unpin to zero pins pushes it at the front, and the victim is the back.
/// At one partition this is a single exact LRU cache (pinned against a
/// reference model by ExactLruMatchesReferenceModel).
///
/// Frame-content contract: the pool synchronises its own metadata, not
/// the cached bytes. Each frame carries a reader-writer page latch
/// (acquired through PageRef's LatchMode, always under a pin) that
/// callers use to order accesses to the same page's bytes — the B+-tree
/// couples these latches during descent. Callers that pin with
/// LatchMode::kNone must order accesses themselves (quiescent phases,
/// single-threaded use, or an external happens-before chain). Eviction
/// and FlushAll need no latch awareness: both touch a frame only when
/// its pin count is zero, and a latch is only ever held under a pin.
/// FlushAll skips frames that are pinned at flush time — their bytes are
/// in active use — leaving them dirty for a later eviction or flush.
class BufferPool {
 public:
  /// Called with the page number of every write-back to the pager. May
  /// be invoked concurrently from any thread using the pool.
  using WriteObserver = std::function<void(PageNo)>;

  /// `capacity_pages` must be >= 8 (the B+-tree pins a few pages at
  /// once). `partitions` of 0 picks automatically: enough stripes to
  /// scale, but never fewer than 64 frames per stripe so concurrent
  /// pins cannot exhaust one (a stripe aborts when every frame in it
  /// is pinned); in particular every capacity in [8, 127] yields exactly
  /// one stripe. An explicit `partitions` request is honoured but
  /// clamped so a stripe never holds fewer than 8 frames.
  BufferPool(Pager* pager, size_t capacity_pages,
             WriteObserver observer = nullptr, uint32_t partitions = 0);

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

  /// Writes back every dirty unpinned frame (a checkpoint): a
  /// cross-partition barrier that visits every stripe in turn. Frames
  /// stay cached. Pinned frames are skipped (see class comment).
  void FlushAll();

  size_t capacity() const { return capacity_; }
  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }

  // Counters, summed across partitions (approximate while threads are
  // running, exact when the pool is quiescent).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t write_backs() const;
  /// Partition-mutex acquisitions by the operation paths: one per Pin,
  /// Unpin and AllocatePinned, and one per stripe FlushAll visits.
  /// Counter reads themselves are not counted.
  uint64_t latch_acquisitions() const;
  size_t PinnedFrames() const;

 private:
  // Every field is guarded by the owning partition's mutex, except the
  // page latch and the data bytes (see the class comment).
  struct Frame {
    PageNo page = kInvalidPageNo;
    std::vector<uint8_t> data;
    uint32_t pins = 0;
    bool dirty = false;
    bool in_lru = false;                 // in the partition's LRU list
    std::list<size_t>::iterator lru_pos;  // valid iff in_lru
    // Page latch (see LatchMode). Held only while pins > 0, so the latch
    // always refers to the page currently cached in this frame.
    std::shared_mutex latch;
  };

  // One latch stripe: a share of the frames plus all the state needed to
  // run them as an independent cache. Cache-line aligned so stripe
  // mutexes do not false-share.
  struct alignas(64) Partition {
    std::mutex mu;
    std::vector<Frame> frames;
    std::unordered_map<PageNo, size_t> page_to_frame;
    std::vector<size_t> free_frames;
    std::list<size_t> lru;  // front = most recent; unpinned frames only

    // Atomic so the getters can sum them without the mutex.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> write_backs{0};
    std::atomic<uint64_t> latch_acquisitions{0};
  };

  Partition& PartitionFor(PageNo page) {
    return *parts_[SplitMix64(page) % parts_.size()];
  }

  // Pin/unpin by frame identity (PageRef's backend). PinFrame is Pin()
  // returning the frame itself so the caller can reach its page latch;
  // UnpinFrame skips the page->frame lookup a plain Unpin needs.
  Frame& PinFrame(PageNo page);
  void UnpinFrame(Frame& f, PageNo page, bool dirty);

  static void LatchFrame(Frame& f, LatchMode mode) {
    if (mode == LatchMode::kShared) {
      f.latch.lock_shared();
    } else if (mode == LatchMode::kExclusive) {
      f.latch.lock();
    }
  }
  static void UnlatchFrame(Frame& f, LatchMode mode) {
    if (mode == LatchMode::kShared) {
      f.latch.unlock_shared();
    } else if (mode == LatchMode::kExclusive) {
      f.latch.unlock();
    }
  }

  // All of the below run under part.mu. PinLocked returns the pinned
  // frame's index within the partition.
  static void LruRemove(Partition& part, Frame& f);
  size_t FrameFor(Partition& part, PageNo page, bool load_from_pager);
  void WriteBack(Partition& part, Frame& f);
  size_t EvictOne(Partition& part);  // returns the freed frame
  size_t PinLocked(Partition& part, PageNo page, bool load_from_pager);
  static void UnpinLocked(Partition& part, size_t idx, bool dirty);

  friend class PageRef;

  Pager* pager_;
  size_t capacity_;
  WriteObserver observer_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

/// RAII pin on a buffer-pool page, optionally holding the frame's page
/// latch for its lifetime (LatchMode; default is a plain pin). Move-only.
/// Acquisition order is pin-then-latch; Release unlatches before it
/// unpins, so the latch always covers a pinned (eviction-proof) frame.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageNo page, LatchMode mode = LatchMode::kNone)
      : pool_(pool), page_(page), mode_(mode),
        frame_(&pool->PinFrame(page)) {
    BufferPool::LatchFrame(*frame_, mode_);
    data_ = frame_->data.data();
  }

  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    data_ = o.data_;
    dirty_ = o.dirty_;
    mode_ = o.mode_;
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
  LatchMode mode() const { return mode_; }
  bool Valid() const { return data_ != nullptr; }

  /// Marks the page dirty; it will be written back on eviction/flush.
  void MarkDirty() { dirty_ = true; }

  /// Explicit early release (also done by the destructor).
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) {
      BufferPool::UnlatchFrame(*frame_, mode_);
      pool_->UnpinFrame(*frame_, page_, dirty_);
    }
    pool_ = nullptr;
    data_ = nullptr;
    frame_ = nullptr;
    dirty_ = false;
    mode_ = LatchMode::kNone;
  }

 private:
  friend class BufferPool;
  BufferPool* pool_ = nullptr;
  PageNo page_ = kInvalidPageNo;
  uint8_t* data_ = nullptr;
  bool dirty_ = false;
  LatchMode mode_ = LatchMode::kNone;
  BufferPool::Frame* frame_ = nullptr;
};

}  // namespace lss

#endif  // LSS_BTREE_BUFFER_POOL_H_
