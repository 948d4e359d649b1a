#ifndef LSS_BTREE_PAGER_H_
#define LSS_BTREE_PAGER_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "btree/page.h"

namespace lss {

/// The engine's backing store — an in-memory stand-in for the disk under
/// the buffer pool. Every write-back lands here; the page-write I/O trace
/// is collected one level up (BufferPool) where eviction and checkpoint
/// decisions are made. Single-threaded, like the engine above it.
class Pager {
 public:
  /// Pages per storage chunk. Chunks are allocated on demand and never
  /// move, so growing the store copies no page bytes.
  static constexpr size_t kChunkPages = 1024;

  Pager() = default;
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Allocates a zeroed page and returns its number.
  PageNo Allocate() {
    const PageNo page = next_page_++;
    if (page / kChunkPages == chunks_.size()) {
      // Value-initialisation zeroes the chunk's page bytes.
      chunks_.push_back(std::make_unique<PageBuf[]>(kChunkPages));
    }
    return page;
  }

  /// Number of pages ever allocated (the database footprint).
  PageNo PageCount() const { return next_page_; }

  /// Copies a page's bytes out of the backing store.
  void Read(PageNo page, uint8_t* out) const {
    std::memcpy(out, PageData(page), kBtreePageSize);
  }

  /// Copies bytes into the backing store.
  void Write(PageNo page, const uint8_t* in) {
    std::memcpy(PageData(page), in, kBtreePageSize);
  }

  /// Direct read-only view (tests and integrity checks).
  const uint8_t* Raw(PageNo page) const { return PageData(page); }

 private:
  struct PageBuf {
    uint8_t data[kBtreePageSize];
  };

  uint8_t* PageData(PageNo page) const {
    assert(page < next_page_ && "read/write of unallocated page");
    return chunks_[page / kChunkPages][page % kChunkPages].data;
  }

  std::vector<std::unique_ptr<PageBuf[]>> chunks_;
  PageNo next_page_ = 0;
};

}  // namespace lss

#endif  // LSS_BTREE_PAGER_H_
