#include "tweetdb/binary_codec.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tweetdb/profile_table.h"

namespace twimob::tweetdb {
namespace {

TweetTable RandomTable(size_t n, uint64_t seed, size_t block_capacity = 256) {
  TweetTable table(block_capacity);
  random::Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    .Append(Tweet{rng.NextUint64(100),
                                  static_cast<int64_t>(rng.NextUint64(1000000)),
                                  geo::LatLon{rng.NextUniform(-44, -10),
                                              rng.NextUniform(113, 154)}})
                    .ok());
  }
  return table;
}

TEST(BinaryCodecTest, EncodeDecodeRoundTrip) {
  TweetTable table = RandomTable(3000, 3);
  table.SealActive();
  const std::string bytes = EncodeTable(table);
  auto decoded = DecodeTable(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), table.num_rows());
  EXPECT_EQ(decoded->num_blocks(), table.num_blocks());
  const auto expected = table.ToVector();
  const auto actual = decoded->ToVector();
  EXPECT_EQ(actual, expected);
}

TEST(BinaryCodecTest, CompactFormat) {
  TweetTable table = RandomTable(10000, 5);
  table.CompactByUserTime();
  const std::string bytes = EncodeTable(table);
  // Compacted random corpus should be well under 16 bytes/row.
  EXPECT_LT(bytes.size(), 10000u * 16u);
}

TEST(BinaryCodecTest, RejectsBadMagic) {
  EXPECT_TRUE(DecodeTable("NOPE0123456789").status().IsIOError());
  EXPECT_TRUE(DecodeTable("").status().IsIOError());
  EXPECT_TRUE(DecodeTable("TW").status().IsIOError());
}

TEST(BinaryCodecTest, RejectsWrongVersion) {
  TweetTable table = RandomTable(10, 7);
  table.SealActive();
  std::string bytes = EncodeTable(table);
  bytes[4] = 99;  // bump the version byte
  EXPECT_TRUE(DecodeTable(bytes).status().IsIOError());
}

TEST(BinaryCodecTest, RejectsTruncatedBody) {
  TweetTable table = RandomTable(500, 9);
  table.SealActive();
  const std::string bytes = EncodeTable(table);
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 3}) {
    EXPECT_FALSE(DecodeTable(std::string_view(bytes.data(), cut)).ok()) << cut;
  }
}

TEST(BinaryCodecTest, FileRoundTrip) {
  TweetTable table = RandomTable(2000, 11);
  const std::string path = testing::TempDir() + "/twimob_bin_roundtrip.twdb";
  ASSERT_TRUE(WriteBinaryFile(table, path).ok());
  auto loaded = ReadBinaryFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2000u);
  EXPECT_EQ(loaded->ToVector(), table.ToVector());
}

TEST(BinaryCodecTest, WriteSealsActiveTail) {
  TweetTable table = RandomTable(10, 13, /*block_capacity=*/256);
  EXPECT_EQ(table.num_blocks(), 0u);  // everything still in the active tail
  const std::string path = testing::TempDir() + "/twimob_bin_seal.twdb";
  ASSERT_TRUE(WriteBinaryFile(table, path).ok());
  auto loaded = ReadBinaryFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 10u);
}

TEST(BinaryCodecTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadBinaryFile("/definitely/not/here.twdb").status().IsIOError());
}

TEST(DescribeTableTest, AccountsForEveryRowAndBeatsRaw) {
  TweetTable table = RandomTable(20000, 15);
  table.CompactByUserTime();
  const TableDescription d = DescribeTable(table);
  EXPECT_EQ(d.num_rows, 20000u);
  EXPECT_EQ(d.num_blocks, table.num_blocks());
  EXPECT_EQ(d.raw_bytes, 20000u * 24u);
  EXPECT_GT(d.compression_ratio, 1.5);
  EXPECT_LT(d.bytes_per_row, 16.0);
  // The description matches the actual encoded size.
  EXPECT_EQ(d.encoded_bytes, EncodeTable(table).size());
}

TEST(DescribeTableTest, ProfileTableCompressesAtLeastTwofold) {
  // Bit-packed columns carry the compacted profile table at 2.37x its raw
  // 24 bytes/row; a column written without packing falls under 2x.
  const TableDescription d = DescribeTable(ProfileTable());
  EXPECT_EQ(d.num_rows, 200000u);
  EXPECT_GE(d.compression_ratio, 2.0);
}

TEST(DescribeTableTest, EmptyTable) {
  TweetTable table;
  table.SealActive();
  const TableDescription d = DescribeTable(table);
  EXPECT_EQ(d.num_rows, 0u);
  EXPECT_EQ(d.bytes_per_row, 0.0);
}

TEST(BinaryCodecTest, EmptyTableRoundTrips) {
  TweetTable table;
  table.SealActive();
  auto decoded = DecodeTable(EncodeTable(table));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), 0u);
}

}  // namespace
}  // namespace twimob::tweetdb
