#include "btree/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace lss {

namespace {

// Stripes scale with capacity but keep >= 64 frames each, up to 64
// stripes, so every capacity below 128 (in particular the asserted
// minimum 8 up to 127) runs as exactly one stripe — a single exact LRU
// cache. The committed Figure 6 traces were made with this rule.
uint32_t AutoPartitions(size_t capacity_pages) {
  uint32_t parts = 1;
  while (parts < 64 && capacity_pages / (parts * 2) >= 64) parts *= 2;
  return parts;
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages,
                       WriteObserver observer)
    : pager_(pager), capacity_(capacity_pages),
      observer_(std::move(observer)) {
  assert(pager != nullptr);
  assert(capacity_pages >= 8);
  const uint32_t partitions = AutoPartitions(capacity_pages);
  parts_ = std::vector<Partition>(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    Partition& part = parts_[p];
    // Distribute capacity evenly; early stripes absorb the remainder.
    const size_t n = capacity_ / partitions +
                     (p < capacity_ % partitions ? 1 : 0);
    part.frames = std::vector<Frame>(n);
    for (Frame& f : part.frames) f.data.resize(kBtreePageSize);
    part.free_frames.reserve(n);
    for (size_t i = n; i > 0; --i) part.free_frames.push_back(i - 1);
  }
}

BufferPool::~BufferPool() {
  assert(PinnedFrames() == 0 && "page pins leaked");
}

size_t BufferPool::PinnedFrames() const {
  size_t n = 0;
  for (const Partition& part : parts_) {
    for (const Frame& f : part.frames) n += f.pins != 0 ? 1 : 0;
  }
  return n;
}

uint64_t BufferPool::hits() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.hits;
  return n;
}

uint64_t BufferPool::misses() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.misses;
  return n;
}

uint64_t BufferPool::evictions() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.evictions;
  return n;
}

uint64_t BufferPool::write_backs() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.write_backs;
  return n;
}

void BufferPool::LruRemove(Partition& part, Frame& f) {
  if (f.in_lru) {
    part.lru.erase(f.lru_pos);
    f.in_lru = false;
  }
}

void BufferPool::WriteBack(Partition& part, Frame& f) {
  assert(f.dirty);
  pager_->Write(f.page, f.data.data());
  f.dirty = false;
  ++part.write_backs;
  if (observer_) observer_(f.page);
}

size_t BufferPool::EvictOne(Partition& part) {
  if (part.lru.empty()) {
    // Exhaustion (every frame in the stripe pinned) cannot be satisfied;
    // fail loudly rather than invoke UB in release builds.
    std::fprintf(stderr,
                 "lss: buffer pool stripe exhausted: all %zu frames "
                 "pinned; use a larger pool\n",
                 part.frames.size());
    std::abort();
  }
  const size_t idx = part.lru.back();
  Frame& f = part.frames[idx];
  if (f.dirty) WriteBack(part, f);
  part.page_to_frame.erase(f.page);
  LruRemove(part, f);
  f.page = kInvalidPageNo;
  ++part.evictions;
  return idx;
}

size_t BufferPool::FrameFor(Partition& part, PageNo page,
                            bool load_from_pager) {
  auto it = part.page_to_frame.find(page);
  if (it != part.page_to_frame.end()) {
    ++part.hits;
    // About to be pinned: out of the LRU list until its last unpin.
    LruRemove(part, part.frames[it->second]);
    return it->second;
  }
  ++part.misses;
  size_t idx;
  if (!part.free_frames.empty()) {
    idx = part.free_frames.back();
    part.free_frames.pop_back();
  } else {
    idx = EvictOne(part);
  }
  Frame& f = part.frames[idx];
  f.page = page;
  f.dirty = false;
  if (load_from_pager) pager_->Read(page, f.data.data());
  part.page_to_frame.emplace(page, idx);
  return idx;
}

size_t BufferPool::PinIn(Partition& part, PageNo page, bool load_from_pager) {
  const size_t idx = FrameFor(part, page, load_from_pager);
  ++part.frames[idx].pins;
  return idx;
}

void BufferPool::UnpinIn(Partition& part, size_t idx, bool dirty) {
  Frame& f = part.frames[idx];
  assert(f.pins > 0);
  if (dirty) f.dirty = true;
  if (--f.pins == 0) {
    part.lru.push_front(idx);
    f.lru_pos = part.lru.begin();
    f.in_lru = true;
  }
}

BufferPool::Frame& BufferPool::PinFrame(PageNo page) {
  Partition& part = PartitionFor(page);
  return part.frames[PinIn(part, page, /*load_from_pager=*/true)];
}

uint8_t* BufferPool::Pin(PageNo page) {
  return PinFrame(page).data.data();
}

void BufferPool::UnpinFrame(Frame& f, PageNo page, bool dirty) {
  Partition& part = PartitionFor(page);
  UnpinIn(part, static_cast<size_t>(&f - part.frames.data()), dirty);
}

void BufferPool::Unpin(PageNo page, bool dirty) {
  Partition& part = PartitionFor(page);
  auto it = part.page_to_frame.find(page);
  assert(it != part.page_to_frame.end() && "unpin of uncached page");
  UnpinIn(part, it->second, dirty);
}

PageNo BufferPool::AllocatePinned(uint8_t** data_out) {
  const PageNo page = pager_->Allocate();
  Partition& part = PartitionFor(page);
  Frame& f = part.frames[PinIn(part, page, /*load_from_pager=*/false)];
  std::fill(f.data.begin(), f.data.end(), 0);
  // A freshly allocated page must reach the pager eventually even if it
  // is never modified again.
  f.dirty = true;
  *data_out = f.data.data();
  return page;
}

void BufferPool::FlushAll() {
  for (Partition& part : parts_) {
    for (Frame& f : part.frames) {
      // A pinned frame is skipped (see class comment).
      if (f.page == kInvalidPageNo || !f.dirty || f.pins != 0) continue;
      WriteBack(part, f);
    }
  }
}

}  // namespace lss
