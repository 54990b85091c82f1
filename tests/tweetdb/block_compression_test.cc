#include "tweetdb/block_compression.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "random/rng.h"
#include "tweetdb/encoding.h"

namespace twimob::tweetdb {
namespace {

std::vector<uint64_t> RandomValues(size_t count, int width, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  std::vector<uint64_t> values(count);
  for (uint64_t& v : values) v = rng.Next() & mask;
  return values;
}

/// Packs `values` at `width` bits and unpacks through `kernels`.
std::vector<uint64_t> PackUnpack(const std::vector<uint64_t>& values, int width,
                                 const UnpackKernels& kernels) {
  std::string packed;
  PutBitPacked(&packed, values, width);
  const size_t num_words = packed.size() / 8;
  std::vector<uint64_t> words(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    std::string_view view = std::string_view(packed).substr(w * 8, 8);
    EXPECT_TRUE(GetFixed64(&view, &words[w]));
  }
  std::vector<uint64_t> out(values.size());
  kernels.unpack(words.data(), values.size(), width, out.data());
  return out;
}

class UnpackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(UnpackWidthTest, ScalarUnpackInvertsPutBitPacked) {
  const int width = GetParam();
  for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{7},
                       size_t{8}, size_t{15}, size_t{16}, size_t{17},
                       size_t{63}, size_t{64}, size_t{100}, size_t{255},
                       size_t{1000}}) {
    const auto values = RandomValues(count, width, 1000 + count);
    EXPECT_EQ(PackUnpack(values, width, ScalarUnpackKernels()), values)
        << "width " << width << " count " << count;
  }
}

TEST_P(UnpackWidthTest, SimdUnpackMatchesScalarBitwise) {
  const UnpackKernels* simd = SimdUnpackKernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD unpack on this host";
  const int width = GetParam();
  for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{7}, size_t{8}, size_t{9}, size_t{15}, size_t{16},
                       size_t{17}, size_t{31}, size_t{63}, size_t{64},
                       size_t{65}, size_t{100}, size_t{255}, size_t{1000}}) {
    const auto values = RandomValues(count, width, 2000 + count);
    EXPECT_EQ(PackUnpack(values, width, *simd),
              PackUnpack(values, width, ScalarUnpackKernels()))
        << "width " << width << " count " << count;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, UnpackWidthTest,
                         ::testing::Range(1, 65));

TEST(UnpackKernelsTest, ActiveKernelsHonourForceScalar) {
  // ActiveUnpackKernels resolves once from GetCpuFeatures(); whichever
  // implementation it picked must agree with the scalar reference.
  const auto values = RandomValues(333, 13, 99);
  EXPECT_EQ(PackUnpack(values, 13, ActiveUnpackKernels()),
            PackUnpack(values, 13, ScalarUnpackKernels()));
}

TEST(UnpackKernelsTest, ZeroCountIsANoOp) {
  uint64_t sentinel = 0xDEADBEEF;
  ScalarUnpackKernels().unpack(nullptr, 0, 17, &sentinel);
  if (const UnpackKernels* simd = SimdUnpackKernels()) {
    simd->unpack(nullptr, 0, 17, &sentinel);
  }
  EXPECT_EQ(sentinel, 0xDEADBEEFu);
}

Block RandomBlock(size_t rows, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  Block block;
  for (size_t i = 0; i < rows; ++i) {
    Tweet t;
    t.user_id = rng.NextUint64(100000);
    t.timestamp = 1378000000 + static_cast<int64_t>(rng.NextUint64(20000000));
    t.pos.lat = -43.0 + 33.0 * rng.NextDouble();
    t.pos.lon = 113.0 + 40.0 * rng.NextDouble();
    EXPECT_TRUE(block.Append(t, rows).ok());
  }
  return block;
}

void ExpectSameColumns(const Block& a, const Block& b) {
  EXPECT_EQ(a.user_ids(), b.user_ids());
  EXPECT_EQ(a.timestamps(), b.timestamps());
  EXPECT_EQ(a.lat_fixed(), b.lat_fixed());
  EXPECT_EQ(a.lon_fixed(), b.lon_fixed());
}

TEST(BlockCompressionTest, RoundTripsRandomBlocks) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{64},
                      size_t{65}, size_t{1000}}) {
    const Block block = RandomBlock(rows, 7 + rows);
    std::string bytes;
    EncodeCompressedBlock(block, &bytes);
    auto decoded = DecodeCompressedBlock(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " rows " << rows;
    ExpectSameColumns(block, *decoded);
  }
}

TEST(BlockCompressionTest, RoundTripsExtremeLanes) {
  // Wrapping deltas at the int64/uint64 boundaries: the codec must be a
  // bijection for arbitrary lane values, not just realistic ones.
  const std::vector<uint64_t> users = {0, std::numeric_limits<uint64_t>::max(),
                                       0, 1, std::numeric_limits<uint64_t>::max()};
  const std::vector<int64_t> times = {std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max(), 0,
                                      -1, 1};
  const std::vector<int32_t> lats = {INT32_MIN, INT32_MAX, 0, -1, 1};
  const std::vector<int32_t> lons = {INT32_MAX, INT32_MIN, 1, 0, -1};
  const Block block = Block::FromColumns(users, times, lats, lons);
  std::string bytes;
  EncodeCompressedBlock(block, &bytes);
  auto decoded = DecodeCompressedBlock(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameColumns(block, *decoded);
}

TEST(BlockCompressionTest, SortedBlockCompressesWell) {
  // RandomBlock's rows, appended in compaction order.
  const Block random_rows = RandomBlock(4096, 42);
  std::vector<Tweet> rows;
  for (size_t i = 0; i < random_rows.num_rows(); ++i) {
    rows.push_back(random_rows.GetRow(i));
  }
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  Block block;
  for (const Tweet& t : rows) ASSERT_TRUE(block.Append(t, rows.size()).ok());
  std::string compressed;
  EncodeCompressedBlock(block, &compressed);
  const size_t raw = 4096 * 24;  // 8B user + 8B time + 4B lat + 4B lon
  EXPECT_LT(compressed.size() * 2, raw)
      << "compressed " << compressed.size() << " vs raw " << raw;
}

TEST(BlockCompressionTest, EveryTruncationFailsCleanly) {
  const Block block = RandomBlock(100, 3);
  std::string bytes;
  EncodeCompressedBlock(block, &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded = DecodeCompressedBlock(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(BlockCompressionTest, TrailingBytesRejected) {
  const Block block = RandomBlock(10, 5);
  std::string bytes;
  EncodeCompressedBlock(block, &bytes);
  bytes.push_back('\0');
  EXPECT_FALSE(DecodeCompressedBlock(bytes).ok());
}

TEST(BlockCompressionTest, HugeRowCountClaimRejectedWithoutAllocating) {
  std::string bytes;
  PutVarint64(&bytes, uint64_t{1} << 40);
  const auto decoded = DecodeCompressedBlock(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status();
}

TEST(BlockCompressionTest, OutOfRangeWidthByteRejected) {
  // One-column stream hand-built with width 65.
  std::string bytes;
  PutVarint64(&bytes, 2);  // two rows
  std::string seg;
  PutFixed64(&seg, 123);
  PutSignedVarint64(&seg, 0);
  seg.push_back(static_cast<char>(65));
  PutVarint64(&bytes, seg.size());
  bytes.append(seg);
  EXPECT_FALSE(DecodeCompressedBlock(bytes).ok());
}

TEST(BlockCompressionTest, OutOfRangeCoordinateLaneRejected) {
  // Encode a legitimate block, then rebuild it with a lat column whose
  // lanes exceed int32 — the decoder must refuse rather than wrap.
  std::string bytes;
  PutVarint64(&bytes, 1);
  auto put_single = [&bytes](uint64_t lane) {
    std::string seg;
    PutFixed64(&seg, lane);
    PutVarint64(&bytes, seg.size());
    bytes.append(seg);
  };
  put_single(1);                                      // user
  put_single(static_cast<uint64_t>(int64_t{100}));    // time
  put_single(static_cast<uint64_t>(int64_t{1} << 40));  // lat: out of range
  put_single(0);                                      // lon
  const auto decoded = DecodeCompressedBlock(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status();
}

}  // namespace
}  // namespace twimob::tweetdb
