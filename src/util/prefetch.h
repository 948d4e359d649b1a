#ifndef LSS_UTIL_PREFETCH_H_
#define LSS_UTIL_PREFETCH_H_

namespace lss {

/// Hints the CPU to pull the cache line holding `p` toward L1 for a
/// coming write. Only a hint: it never faults, so `p` may point anywhere.
/// Compiles to nothing where the GNU builtin is unavailable.
inline void PrefetchForWrite(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace lss

#endif  // LSS_UTIL_PREFETCH_H_
