#include "core/segment.h"

#include <cassert>

namespace lss {

void Segment::Open(uint32_t log, SegmentSource source, UpdateCount now) {
  assert(state_ == SegmentState::kFree);
  state_ = SegmentState::kOpen;
  source_ = source;
  log_ = log;
  open_time_ = now;
  used_bytes_ = 0;
  live_bytes_ = 0;
  live_count_ = 0;
  up2_accum_ = 0;
  up2_ = 0;
  exact_upf_sum_ = 0;
  ckpt_entries_ = 0;
  ckpt_bytes_ = 0;
  entries_.clear();
}

uint32_t Segment::Append(PageId page, uint32_t bytes, double up2,
                         double exact_upf, uint64_t seq,
                         UpdateCount last_update) {
  assert(state_ == SegmentState::kOpen);
  assert(HasRoomFor(bytes));
  assert(page != kInvalidPage);
  entries_.push_back(
      Entry{page, bytes, seq, last_update, up2, exact_upf, used_bytes_, page});
  used_bytes_ += bytes;
  live_bytes_ += bytes;
  live_count_ += 1;
  up2_accum_ += up2;
  exact_upf_sum_ += exact_upf;
  return static_cast<uint32_t>(entries_.size() - 1);
}

uint32_t Segment::AppendDead(uint32_t bytes, double up2) {
  assert(state_ == SegmentState::kOpen);
  assert(HasRoomFor(bytes));
  entries_.push_back(
      Entry{kInvalidPage, bytes, 0, 0, up2, 0.0, used_bytes_, kInvalidPage});
  used_bytes_ += bytes;
  up2_accum_ += up2;
  return static_cast<uint32_t>(entries_.size() - 1);
}

void Segment::Kill(uint32_t idx, double exact_upf, bool dead_on_arrival) {
  assert(state_ != SegmentState::kFree);
  assert(idx < entries_.size());
  Entry& e = entries_[idx];
  assert(e.page != kInvalidPage);
  live_bytes_ -= e.bytes;
  live_count_ -= 1;
  exact_upf_sum_ -= exact_upf;
  e.page = kInvalidPage;
  e.doa = dead_on_arrival;
}

void Segment::Seal(UpdateCount now) {
  assert(state_ == SegmentState::kOpen);
  state_ = SegmentState::kSealed;
  seal_time_ = now;
  up2_ = entries_.empty()
             ? 0.0
             : up2_accum_ / static_cast<double>(entries_.size());
}

void Segment::Reset() {
  state_ = SegmentState::kFree;
  source_ = SegmentSource::kNone;
  log_ = 0;
  entries_.clear();
  used_bytes_ = 0;
  live_bytes_ = 0;
  live_count_ = 0;
  up2_accum_ = 0;
  up2_ = 0;
  exact_upf_sum_ = 0;
  ckpt_entries_ = 0;
  ckpt_bytes_ = 0;
}

bool Segment::CheckCountersConsistent() const {
  uint32_t bytes = 0;
  uint32_t count = 0;
  uint32_t used = 0;
  for (const Entry& e : entries_) {
    used += e.bytes;
    if (e.page != kInvalidPage) {
      bytes += e.bytes;
      count += 1;
    }
  }
  // Dead entries keep their byte size, so `used` counts appended bytes.
  return bytes == live_bytes_ && count == live_count_ && used == used_bytes_ &&
         used_bytes_ <= capacity_;
}

}  // namespace lss
