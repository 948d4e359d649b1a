#ifndef LSS_CORE_SHARD_LOCK_H_
#define LSS_CORE_SHARD_LOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"

namespace lss {

/// A shard's lock and its write-behind queue behind one atomic word: flat
/// combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010) where
/// ownership moves by writing the word, as in an MCS hand-off
/// (Mellor-Crummey & Scott, 1991).
///
/// State. The word holds a held bit, a parked bit and `tail`, the
/// reservation counter of a fixed ring of `capacity` queued writes.
/// `head`, the next position to drain, is written only by the holder; the
/// ring holds positions [head, tail).
///
/// - Acquire: one CAS, free -> held.
/// - Queue (TryQueue, a write that finds the lock held): one CAS on the
///   same word reserves position `tail`, only while the held bit is set
///   and the ring has room. The writer fills the slot and publishes it
///   with a release store of the slot's sequence number. No mutex, no
///   syscall. "Is it held?" and "reserve" being one CAS is what keeps a
///   write from queueing behind a holder that has already let go.
/// - Release (Unlock): one CAS, (held, tail == head) -> free. If the
///   tail moved, the holder copies the published slots out, publishes
///   the new head (so the slots are free again before anything is
///   applied, and a write made while applying still finds room), applies
///   the copies in order and tries again.
/// - Wait (Lock while held): spin a bounded number of rounds, then set
///   the parked bit and sleep on a futex. A release wakes sleepers only
///   when it clears a set parked bit.
///
/// The lock records no owner: a thread may release a lock that another
/// thread acquired.
class ShardLock {
 public:
  /// A write left for the lock holder.
  struct QueuedWrite {
    PageId page;
    uint32_t bytes;
  };

  /// `capacity` (at least 1) is the number of writes the ring holds.
  explicit ShardLock(size_t capacity);

  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

  /// Acquires the lock if it is free.
  bool TryLock() {
    uint64_t s = state_.load(std::memory_order_relaxed);
    do {
      if ((s & kHeld) != 0) return false;
    } while (!state_.compare_exchange_weak(s, s | kHeld,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
    return true;
  }

  /// Acquires the lock, spinning and then sleeping while it is held.
  void Lock() {
    if (!TryLock()) LockSlow();
  }

  /// Queues `w` for the holder. False if the lock is free (the caller
  /// should take it) or the ring is full (the caller should wait for it).
  bool TryQueue(const QueuedWrite& w);

  /// Releases the lock. Before it lets go it calls `apply(w)` for every
  /// write queued meanwhile, in queue order, until a release finds
  /// nothing queued.
  template <typename Fn>
  void Unlock(Fn&& apply) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t s = state_.load(std::memory_order_relaxed);
    for (;;) {
      if ((s >> kTailShift) != head) {
        head = Drain(s >> kTailShift);
        for (const QueuedWrite& w : batch_) apply(w);
        s = state_.load(std::memory_order_relaxed);
      } else if (state_.compare_exchange_weak(s, s & ~(kHeld | kParked),
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        if ((s & kParked) != 0) Wake();
        return;
      }
    }
  }

 private:
  static constexpr uint64_t kHeld = 1;
  static constexpr uint64_t kParked = 2;
  static constexpr int kTailShift = 2;
  static constexpr uint64_t kTailOne = uint64_t{1} << kTailShift;

  // One ring entry; `seq` is the low 32 bits of its position + 1 once the
  // write at that position is published.
  struct Slot {
    std::atomic<uint32_t> seq{0};
    uint32_t bytes = 0;
    PageId page = 0;
  };

  void LockSlow();
  // Sleeps until a release clears the parked bit this call sets; returns
  // at once if the lock is free.
  void Park();
  void Wake();
  // Copies positions [head, tail) into batch_, waiting for each to be
  // published, and publishes `tail` as the new head (returned).
  uint64_t Drain(uint64_t tail);

  std::atomic<uint64_t> state_{0};
  std::atomic<uint64_t> head_{0};
  // Bumped by every waking release; the futex sleepers wait on.
  std::atomic<uint32_t> wake_{0};
  const size_t capacity_;
  std::unique_ptr<Slot[]> ring_;
  // Under the lock: the batch being applied (reused across releases).
  std::vector<QueuedWrite> batch_;
};

}  // namespace lss

#endif  // LSS_CORE_SHARD_LOCK_H_
