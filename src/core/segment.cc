#include "core/segment.h"

#include <cassert>

#include "core/page_table.h"

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
  slots_.clear();
  cold_.clear();
}

uint32_t Segment::Append(PageId page, uint32_t bytes, double up2,
                         double exact_upf, uint64_t seq,
                         UpdateCount last_update) {
  assert(state_ == SegmentState::kOpen);
  assert(HasRoomFor(bytes));
  assert(page < PageTable::kMaxPages);
  slots_.push_back(Slot{static_cast<uint32_t>(page), bytes, used_bytes_,
                        SlotState::kLive});
  cold_.push_back(Cold{seq, last_update, up2, exact_upf});
  used_bytes_ += bytes;
  live_bytes_ += bytes;
  live_count_ += 1;
  up2_accum_ += up2;
  exact_upf_sum_ += exact_upf;
  return static_cast<uint32_t>(slots_.size() - 1);
}

uint32_t Segment::AppendDead(uint32_t bytes, double up2) {
  assert(state_ == SegmentState::kOpen);
  assert(HasRoomFor(bytes));
  slots_.push_back(Slot{0, bytes, used_bytes_, SlotState::kRecoveredDead});
  cold_.push_back(Cold{0, 0, up2, 0.0});
  used_bytes_ += bytes;
  up2_accum_ += up2;
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Segment::Kill(uint32_t idx, double exact_upf, bool dead_on_arrival) {
  assert(state_ != SegmentState::kFree);
  assert(idx < slots_.size());
  Slot& s = slots_[idx];
  assert(s.state == SlotState::kLive);
  live_bytes_ -= s.bytes;
  live_count_ -= 1;
  exact_upf_sum_ -= exact_upf;
  s.state = dead_on_arrival ? SlotState::kDeadOnArrival : SlotState::kKilled;
}

void Segment::Seal(UpdateCount now) {
  assert(state_ == SegmentState::kOpen);
  state_ = SegmentState::kSealed;
  seal_time_ = now;
  up2_ = slots_.empty() ? 0.0
                        : up2_accum_ / static_cast<double>(slots_.size());
}

void Segment::Reset() {
  state_ = SegmentState::kFree;
  source_ = SegmentSource::kNone;
  log_ = 0;
  slots_.clear();
  cold_.clear();
  used_bytes_ = 0;
  live_bytes_ = 0;
  live_count_ = 0;
  up2_accum_ = 0;
  up2_ = 0;
  exact_upf_sum_ = 0;
  ckpt_entries_ = 0;
  ckpt_bytes_ = 0;
}

void Segment::FillRecord(const Slot& s, const Cold& c, Entry* e) {
  const bool recorded_live =
      s.state == SlotState::kLive || s.state == SlotState::kKilled;
  e->page = recorded_live ? PageId{s.page} : kInvalidPage;
  e->bytes = s.bytes;
  e->seq = c.seq;
  e->last_update = c.last_update;
  e->up2 = c.up2;
  e->exact_upf = c.exact_upf;
  e->offset = s.offset;
  e->orig_page =
      s.state == SlotState::kRecoveredDead ? kInvalidPage : PageId{s.page};
  e->doa = s.state == SlotState::kDeadOnArrival;
}

Segment::Entry Segment::RecordEntry(uint32_t i) const {
  Entry e;
  FillRecord(slots_[i], cold_[i], &e);
  return e;
}

void Segment::AppendRecordEntries(std::vector<Entry>* out) const {
  // Sized once and filled in place: a seal builds one record per segment,
  // and a push_back per entry measured three times slower.
  const size_t base = out->size();
  out->resize(base + slots_.size());
  Entry* dst = out->data() + base;
  for (size_t i = 0; i < slots_.size(); ++i) {
    FillRecord(slots_[i], cold_[i], &dst[i]);
  }
}

bool Segment::CheckCountersConsistent() const {
  uint32_t bytes = 0;
  uint32_t count = 0;
  uint32_t used = 0;
  for (const Slot& s : slots_) {
    used += s.bytes;
    if (s.state == SlotState::kLive) {
      bytes += s.bytes;
      count += 1;
    }
  }
  // Dead entries keep their byte size, so `used` counts appended bytes.
  return bytes == live_bytes_ && count == live_count_ && used == used_bytes_ &&
         used_bytes_ <= capacity_;
}

}  // namespace lss
