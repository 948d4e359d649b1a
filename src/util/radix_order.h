#ifndef LSS_UTIL_RADIX_ORDER_H_
#define LSS_UTIL_RADIX_ORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lss {

/// Maps a double to a 64-bit key whose unsigned order is the double's
/// numeric order. Adding +0.0 folds -0.0 into +0.0 (they compare equal,
/// so they must share a key); non-negative values then get their sign
/// bit set and negative values are complemented, which puts the negative
/// range below the positive one and reverses its magnitude order. Total
/// over every non-NaN double, infinities and subnormals included.
inline uint64_t SortableBits(double x) {
  x += 0.0;
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint64_t mask = (uint64_t{0} - (bits >> 63)) | (uint64_t{1} << 63);
  return bits ^ mask;
}

/// Key that sorts ascending in `x`'s descending order: the complement of
/// SortableBits. Equal doubles get equal keys.
inline uint64_t DescendingKey(double x) { return ~SortableBits(x); }

/// Stable LSD radix sort (Knuth, TAOCP vol. 3 §5.2.5) of n 64-bit keys
/// into the permutation that orders them ascending, equal keys in index
/// order. With keys from DescendingKey the permutation is exactly the
/// order `std::stable_sort(..., a.key > b.key)` leaves the items in:
/// each scatter pass is stable, so after the pass on the top byte the
/// items are ordered by the whole key and ties keep their arrival order.
///
/// Eight passes of one byte each. A single read pass builds all eight
/// histograms up front, and a pass whose byte is the same in every key
/// is skipped (its scatter would be the identity) — the up2 keys of one
/// flush usually share their top byte (sign and high exponent bits).
/// The scatter has no data-dependent branches, unlike a comparison sort
/// on random keys. The key, order and scratch vectors are members, so
/// repeated sorts of similar size do not allocate.
class RadixOrder {
 public:
  /// The keys to sort, index i for item i. Fill (clear, then push_back)
  /// before each Sort; Sort leaves them permuted into ascending order.
  std::vector<uint64_t>& keys() { return keys_; }

  /// Sorts keys() and returns the permutation: element k is the index of
  /// the item in position k. Valid until the next Sort.
  const std::vector<uint32_t>& Sort() {
    const size_t n = keys_.size();
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = static_cast<uint32_t>(i);
    if (n < 2) return order_;

    std::array<std::array<uint32_t, 256>, 8> counts{};
    for (const uint64_t k : keys_) {
      for (int b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
    }
    tmp_keys_.resize(n);
    tmp_order_.resize(n);
    for (int b = 0; b < 8; ++b) {
      std::array<uint32_t, 256>& c = counts[b];
      const int shift = 8 * b;
      if (c[(keys_[0] >> shift) & 0xff] == n) continue;
      uint32_t sum = 0;
      for (uint32_t& slot : c) {
        const uint32_t count = slot;
        slot = sum;
        sum += count;
      }
      const uint64_t* src_keys = keys_.data();
      const uint32_t* src_order = order_.data();
      uint64_t* dst_keys = tmp_keys_.data();
      uint32_t* dst_order = tmp_order_.data();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t pos = c[(src_keys[i] >> shift) & 0xff]++;
        dst_keys[pos] = src_keys[i];
        dst_order[pos] = src_order[i];
      }
      keys_.swap(tmp_keys_);
      order_.swap(tmp_order_);
    }
    return order_;
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> order_;
  std::vector<uint64_t> tmp_keys_;
  std::vector<uint32_t> tmp_order_;
};

}  // namespace lss

#endif  // LSS_UTIL_RADIX_ORDER_H_
