#include "util/fnv1a.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lss {
namespace {

TEST(Fnv1aTest, MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "", 0), 0xCBF29CE484222325ull);
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "a", 1), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "foobar", 6), 0x85944171F73967E8ull);
}

// Every lane of the four-lane kernel must end exactly where the serial
// hash of the same bytes does: equal and unequal lane lengths, empty
// lanes, odd tails, distinct starting states.
TEST(Fnv1aTest, LanesMatchSerial) {
  Rng rng(17);
  std::vector<uint8_t> bytes(4 * 9000);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  for (int round = 0; round < 400; ++round) {
    uint64_t h[4];
    uint64_t want[4];
    const uint8_t* data[4];
    size_t len[4];
    const size_t shared = static_cast<size_t>(rng.NextBounded(9001));
    for (size_t k = 0; k < 4; ++k) {
      // A third of the rounds give all lanes one length; the rest mix
      // lengths anywhere in [0, 9000].
      len[k] = round % 3 == 0 ? shared
                              : static_cast<size_t>(rng.NextBounded(9001));
      data[k] = bytes.data() + k * 9000 + rng.NextBounded(9001 - len[k]);
      h[k] = round % 2 == 0 ? kFnv1aBasis : rng();
      want[k] = Fnv1a(h[k], data[k], len[k]);
    }
    Fnv1a4(h, data, len);
    for (size_t k = 0; k < 4; ++k) {
      ASSERT_EQ(h[k], want[k]) << "round " << round << " lane " << k
                               << " length " << len[k];
    }
  }
}

// Lanes may alias: the same range hashed in two lanes gives one value.
TEST(Fnv1aTest, AliasedLanesAgree) {
  const uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7};
  uint64_t h[4] = {kFnv1aBasis, kFnv1aBasis, kFnv1aBasis, kFnv1aBasis};
  const uint8_t* data[4] = {bytes, bytes, bytes + 1, bytes};
  const size_t len[4] = {7, 7, 6, 0};
  Fnv1a4(h, data, len);
  EXPECT_EQ(h[0], Fnv1a(kFnv1aBasis, bytes, 7));
  EXPECT_EQ(h[1], h[0]);
  EXPECT_EQ(h[2], Fnv1a(kFnv1aBasis, bytes + 1, 6));
  EXPECT_EQ(h[3], kFnv1aBasis);
}

}  // namespace
}  // namespace lss
