#ifndef LSS_UTIL_FNV1A_H_
#define LSS_UTIL_FNV1A_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace lss {

/// 64-bit FNV-1a (Fowler, Noll & Vo) offset basis and prime.
inline constexpr uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnv1aPrime = 0x100000001B3ull;

/// Continues the FNV-1a hash `h` over `data[0, len)`. Byte-serial: each
/// byte's multiply waits for the previous one, so one hash runs at the
/// multiplier's latency, not its throughput.
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Four independent FNV-1a hashes at once: lane i continues `h[i]` over
/// `data[i][0, len[i])` and ends exactly where
/// `Fnv1a(h[i], data[i], len[i])` would. Over the lanes' common length
/// the four multiply chains are interleaved, so they overlap in the
/// pipeline instead of queueing; each lane's bytes past the shortest
/// lane finish serially. Callers get the full speed-up by handing it
/// ranges of equal (or nearly equal) length.
inline void Fnv1a4(uint64_t h[4], const uint8_t* const data[4],
                   const size_t len[4]) {
  const size_t common = std::min(std::min(len[0], len[1]),
                                 std::min(len[2], len[3]));
  const uint8_t* p0 = data[0];
  const uint8_t* p1 = data[1];
  const uint8_t* p2 = data[2];
  const uint8_t* p3 = data[3];
  uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
  for (size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ p0[i]) * kFnv1aPrime;
    h1 = (h1 ^ p1[i]) * kFnv1aPrime;
    h2 = (h2 ^ p2[i]) * kFnv1aPrime;
    h3 = (h3 ^ p3[i]) * kFnv1aPrime;
  }
  h[0] = Fnv1a(h0, p0 + common, len[0] - common);
  h[1] = Fnv1a(h1, p1 + common, len[1] - common);
  h[2] = Fnv1a(h2, p2 + common, len[2] - common);
  h[3] = Fnv1a(h3, p3 + common, len[3] - common);
}

}  // namespace lss

#endif  // LSS_UTIL_FNV1A_H_
