#include "util/radix_order.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lss {
namespace {

constexpr size_t kSizes[] = {0, 1, 2, 3, 255, 256, 2048, 5000};

// The permutation std::stable_sort(..., a > b) leaves items in.
std::vector<uint32_t> StableDescending(const std::vector<double>& x) {
  std::vector<uint32_t> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::stable_sort(idx.begin(), idx.end(),
                   [&x](uint32_t a, uint32_t b) { return x[a] > x[b]; });
  return idx;
}

std::vector<uint32_t> RadixDescending(RadixOrder* radix,
                                      const std::vector<double>& x) {
  std::vector<uint64_t>& keys = radix->keys();
  keys.clear();
  for (const double v : x) keys.push_back(DescendingKey(v));
  return radix->Sort();
}

// Checks every size against the stable sort, reusing one kernel across
// all calls so leftover state from a larger sort would show.
void ExpectMatchesStableSort(const std::function<double(Rng&, size_t)>& gen) {
  RadixOrder radix;
  Rng rng(20240917);
  for (const size_t n : kSizes) {
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i) x[i] = gen(rng, i);
    EXPECT_EQ(RadixDescending(&radix, x), StableDescending(x)) << "n=" << n;
  }
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(SortableBitsTest, PreservesNumericOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ascending = {
      -inf, -1e300, -2.5, -1.0, -std::numeric_limits<double>::min(),
      -denorm, 0.0, denorm, 2 * denorm, std::numeric_limits<double>::min(),
      1.0, 1.0 + std::numeric_limits<double>::epsilon(), 3e8, 1e300, inf};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(SortableBits(ascending[i - 1]), SortableBits(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
    EXPECT_GT(DescendingKey(ascending[i - 1]), DescendingKey(ascending[i]));
  }
}

TEST(SortableBitsTest, FoldsNegativeZero) {
  EXPECT_EQ(SortableBits(-0.0), SortableBits(0.0));
  EXPECT_EQ(DescendingKey(-0.0), DescendingKey(0.0));
}

TEST(RadixOrderTest, RandomKeysMatchStableSort) {
  // Arbitrary finite doubles of every sign and magnitude.
  ExpectMatchesStableSort([](Rng& rng, size_t) {
    for (;;) {
      const double d = FromBits(rng());
      if (d == d && d != std::numeric_limits<double>::infinity() &&
          d != -std::numeric_limits<double>::infinity()) {
        return d;
      }
    }
  });
}

TEST(RadixOrderTest, Up2LikeKeysMatchStableSort) {
  // What a flush sees: up2 estimates below an update clock near 1e7,
  // with a run of first writes sharing the batch's oldest up2.
  ExpectMatchesStableSort([](Rng& rng, size_t i) {
    if (i % 7 == 0) return 9.0e6;
    return 9.0e6 + rng.NextDouble() * 1.0e6;
  });
}

TEST(RadixOrderTest, FewDistinctKeysKeepArrivalOrder) {
  ExpectMatchesStableSort([](Rng& rng, size_t) {
    return static_cast<double>(rng.NextBounded(16)) * 0.75;
  });
}

TEST(RadixOrderTest, MixedSignedZerosAreTies) {
  ExpectMatchesStableSort([](Rng& rng, size_t) {
    switch (rng.NextBounded(4)) {
      case 0: return -0.0;
      case 1: return 0.0;
      case 2: return 1.0;
      default: return -1.0;
    }
  });
}

TEST(RadixOrderTest, NegativeKeysMatchStableSort) {
  ExpectMatchesStableSort(
      [](Rng& rng, size_t) { return -1e6 * rng.NextDouble() - 1e-3; });
}

TEST(RadixOrderTest, SubnormalKeysMatchStableSort) {
  ExpectMatchesStableSort([](Rng& rng, size_t) {
    const double d = FromBits(rng.NextBounded(uint64_t{1} << 52));
    return rng.NextBool(0.5) ? -d : d;
  });
}

TEST(RadixOrderTest, InfiniteKeysMatchStableSort) {
  ExpectMatchesStableSort([](Rng& rng, size_t) {
    const double inf = std::numeric_limits<double>::infinity();
    switch (rng.NextBounded(5)) {
      case 0: return inf;
      case 1: return -inf;
      case 2: return std::numeric_limits<double>::max();
      case 3: return -std::numeric_limits<double>::max();
      default: return rng.NextDouble();
    }
  });
}

TEST(RadixOrderTest, KeysDifferingInOneByteMatchStableSort) {
  // Every byte but one is shared, so seven of the eight passes skip;
  // covering each byte position exercises every pass alone.
  for (int byte = 0; byte < 8; ++byte) {
    const int shift = 8 * byte;
    const uint64_t base = 0x3FF0123456789ABCull & ~(uint64_t{0xFF} << shift);
    ExpectMatchesStableSort([base, shift](Rng& rng, size_t) {
      uint64_t digit = rng.NextBounded(256);
      // In the top byte, keep the exponent clear of all-ones (NaN).
      if (shift == 56) digit &= 0xBF;
      return FromBits(base | (digit << shift));
    });
  }
}

TEST(RadixOrderTest, RawKeysSortAscendingAndStably) {
  RadixOrder radix;
  Rng rng(5);
  for (const size_t n : kSizes) {
    std::vector<uint64_t> raw(n);
    for (uint64_t& k : raw) {
      k = (rng.NextBounded(64) << 40) | rng.NextBounded(4);
    }
    std::vector<uint32_t> want(n);
    std::iota(want.begin(), want.end(), 0u);
    std::stable_sort(
        want.begin(), want.end(),
        [&raw](uint32_t a, uint32_t b) { return raw[a] < raw[b]; });
    radix.keys() = raw;
    EXPECT_EQ(radix.Sort(), want) << "n=" << n;
    // The keys are left permuted into ascending order.
    std::sort(raw.begin(), raw.end());
    EXPECT_EQ(radix.keys(), raw) << "n=" << n;
  }
}

}  // namespace
}  // namespace lss
