#include "tweetdb/encoding.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tweetdb/block_compression.h"

namespace twimob::tweetdb {
namespace {

TEST(VarintTest, RoundTripEdgeValues) {
  const uint64_t values[] = {0,    1,          127,        128,
                             255,  16383,      16384,      (1ULL << 32) - 1,
                             1ULL << 32, (1ULL << 63), UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view view = buf;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&view, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, EncodedLengths) {
  auto encoded_size = [](uint64_t v) {
    std::string buf;
    PutVarint64(&buf, v);
    return buf.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size(16383), 2u);
  EXPECT_EQ(encoded_size(16384), 3u);
  EXPECT_EQ(encoded_size(UINT64_MAX), 10u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view view(buf.data(), cut);
    uint64_t out;
    EXPECT_FALSE(GetVarint64(&view, &out)) << cut;
  }
}

TEST(VarintTest, RandomRoundTrip) {
  random::Xoshiro256 rng(1);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Mix of magnitudes.
    const uint64_t v = rng.Next() >> (rng.NextUint64(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  std::string_view view = buf;
  for (uint64_t expected : values) {
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&view, &out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(view.empty());
}

TEST(ZigZagTest, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  EXPECT_EQ(ZigZagEncode(2), 4u);
}

TEST(ZigZagTest, RoundTripExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(SignedVarintTest, RoundTrip) {
  random::Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Next());
    std::string buf;
    PutSignedVarint64(&buf, v);
    std::string_view view = buf;
    int64_t out;
    ASSERT_TRUE(GetSignedVarint64(&view, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(FixedTest, RoundTripAndLittleEndianLayout) {
  std::string buf;
  PutFixed32(&buf, 0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x01);
  std::string_view view = buf;
  uint32_t out32;
  ASSERT_TRUE(GetFixed32(&view, &out32));
  EXPECT_EQ(out32, 0x01020304u);

  buf.clear();
  PutFixed64(&buf, 0x0102030405060708ULL);
  view = buf;
  uint64_t out64;
  ASSERT_TRUE(GetFixed64(&view, &out64));
  EXPECT_EQ(out64, 0x0102030405060708ULL);
}

TEST(FixedTest, TruncatedFails) {
  std::string buf = "abc";
  std::string_view view = buf;
  uint32_t out;
  EXPECT_FALSE(GetFixed32(&view, &out));
}

TEST(BitsNeededTest, KnownValues) {
  EXPECT_EQ(BitsNeeded(0), 0);
  EXPECT_EQ(BitsNeeded(1), 1);
  EXPECT_EQ(BitsNeeded(2), 2);
  EXPECT_EQ(BitsNeeded(3), 2);
  EXPECT_EQ(BitsNeeded(4), 3);
  EXPECT_EQ(BitsNeeded(255), 8);
  EXPECT_EQ(BitsNeeded(256), 9);
  EXPECT_EQ(BitsNeeded(UINT64_MAX), 64);
}

class BitPackRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPackRoundTripTest, RandomValuesRoundTrip) {
  const int bit_width = GetParam();
  random::Xoshiro256 rng(static_cast<uint64_t>(bit_width) * 101 + 7);
  const uint64_t mask =
      bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << bit_width) - 1;
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    std::vector<uint64_t> values;
    values.reserve(count);
    for (size_t i = 0; i < count; ++i) values.push_back(rng.Next() & mask);
    std::string buf;
    PutBitPacked(&buf, values, bit_width);
    // Size is exactly ceil(count*width/64) words.
    EXPECT_EQ(buf.size(),
              (count * static_cast<size_t>(bit_width) + 63) / 64 * 8);
    // The payload decoder's dispatched unpack kernel inverts it exactly.
    std::vector<uint64_t> words(buf.size() / 8);
    std::string_view view = buf;
    for (uint64_t& w : words) ASSERT_TRUE(GetFixed64(&view, &w));
    std::vector<uint64_t> decoded(count);
    ActiveUnpackKernels().unpack(words.data(), count, bit_width, decoded.data());
    EXPECT_EQ(decoded, values) << bit_width << "/" << count;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 21, 31, 32,
                                           33, 48, 63, 64));

}  // namespace
}  // namespace twimob::tweetdb
