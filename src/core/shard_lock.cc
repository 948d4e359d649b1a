#include "core/shard_lock.h"

#include <cassert>
#include <climits>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace lss {
namespace {

// Spin rounds before a waiter sleeps, and before a holder waiting on an
// unpublished slot starts yielding: about 16 us where a `pause` takes
// 16 ns (a 4-vCPU Xeon host).
constexpr int kSpinRounds = 1 << 10;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Sleeps while `*word == expected` (returns early on any wake or signal).
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT_PRIVATE,
          expected, nullptr, nullptr, 0);
#else
  while (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::yield();
  }
#endif
}

void FutexWakeAll([[maybe_unused]] std::atomic<uint32_t>* word) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE_PRIVATE,
          INT_MAX, nullptr, nullptr, 0);
#endif
}

}  // namespace

ShardLock::ShardLock(size_t capacity)
    : capacity_(capacity), ring_(new Slot[capacity]) {
  assert(capacity > 0);
}

bool ShardLock::TryQueue(const QueuedWrite& w) {
  // head is read first, so it never exceeds the tail read after it: the
  // holder publishes a head only after reading a tail at least as large.
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t s = state_.load(std::memory_order_relaxed);
  for (;;) {
    if ((s & kHeld) == 0) return false;
    const uint64_t tail = s >> kTailShift;
    if (tail - head >= capacity_) {
      // Full, unless the holder has drained since head was read.
      const uint64_t fresh = head_.load(std::memory_order_acquire);
      if (fresh == head) return false;
      head = fresh;
      s = state_.load(std::memory_order_relaxed);
      continue;
    }
    if (state_.compare_exchange_weak(s, s + kTailOne,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      // tail - capacity < head: the holder has copied out the write that
      // last used this slot.
      Slot& slot = ring_[tail % capacity_];
      slot.page = w.page;
      slot.bytes = w.bytes;
      slot.seq.store(static_cast<uint32_t>(tail + 1),
                     std::memory_order_release);
      return true;
    }
  }
}

void ShardLock::LockSlow() {
  for (;;) {
    for (int i = 0; i < kSpinRounds; ++i) {
      if ((state_.load(std::memory_order_relaxed) & kHeld) == 0 &&
          TryLock()) {
        return;
      }
      CpuRelax();
    }
    Park();
  }
}

void ShardLock::Park() {
  // wake_ is read before the parked bit is set, and a release clears the
  // bit before it bumps wake_; so either the futex sees the bump and
  // returns at once, or the wake finds this thread asleep.
  const uint32_t seq = wake_.load(std::memory_order_seq_cst);
  uint64_t s = state_.load(std::memory_order_relaxed);
  while ((s & kHeld) != 0) {
    if (state_.compare_exchange_weak(s, s | kParked,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
      FutexWait(&wake_, seq);
      return;
    }
  }
}

void ShardLock::Wake() {
  wake_.fetch_add(1, std::memory_order_seq_cst);
  FutexWakeAll(&wake_);
}

uint64_t ShardLock::Drain(uint64_t tail) {
  batch_.clear();
  uint64_t pos = head_.load(std::memory_order_relaxed);
  for (size_t i = pos % capacity_; pos != tail; ++pos) {
    const Slot& slot = ring_[i];
    const uint32_t published = static_cast<uint32_t>(pos + 1);
    // The writer reserved this position a few instructions before it
    // publishes it, unless it was preempted in between.
    for (int spins = 0;
         slot.seq.load(std::memory_order_acquire) != published; ++spins) {
      if (spins < kSpinRounds) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    batch_.push_back({slot.page, slot.bytes});
    if (++i == capacity_) i = 0;
  }
  head_.store(tail, std::memory_order_release);
  return tail;
}

}  // namespace lss
