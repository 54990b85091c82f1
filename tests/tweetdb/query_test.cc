#include "tweetdb/query.h"

#include <gtest/gtest.h>

#include "random/rng.h"

namespace twimob::tweetdb {
namespace {

Tweet MakeTweet(uint64_t user, int64_t ts, double lat, double lon) {
  return Tweet{user, ts, geo::LatLon{lat, lon}};
}

TweetTable RandomTable(size_t n, size_t block_capacity, uint64_t seed) {
  TweetTable table(block_capacity);
  random::Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    .Append(MakeTweet(rng.NextUint64(50),
                                      static_cast<int64_t>(rng.NextUint64(100000)),
                                      rng.NextUniform(-44.0, -10.0),
                                      rng.NextUniform(113.0, 154.0)))
                    .ok());
  }
  table.SealActive();
  return table;
}

TEST(ScanSpecTest, MatchesEachPredicate) {
  const Tweet t = MakeTweet(7, 500, -33.0, 151.0);
  ScanSpec all;
  EXPECT_TRUE(all.Matches(t));

  ScanSpec user;
  user.user_id = 7;
  EXPECT_TRUE(user.Matches(t));
  user.user_id = 8;
  EXPECT_FALSE(user.Matches(t));

  ScanSpec time;
  time.min_time = 500;
  time.max_time = 501;
  EXPECT_TRUE(time.Matches(t));
  time.max_time = 500;  // exclusive upper bound
  EXPECT_FALSE(time.Matches(t));

  ScanSpec box;
  box.bbox = geo::BoundingBox{-34.0, 150.0, -32.0, 152.0};
  EXPECT_TRUE(box.Matches(t));
  box.bbox = geo::BoundingBox{-30.0, 150.0, -28.0, 152.0};
  EXPECT_FALSE(box.Matches(t));
}

TEST(ScanDatasetTest, MatchesBruteForce) {
  const TweetDataset dataset = TweetDataset::FromTable(RandomTable(5000, 256, 5));
  const auto all = dataset.shard(0).ToVector();

  ScanSpec spec;
  spec.min_time = 20000;
  spec.max_time = 70000;
  spec.bbox = geo::BoundingBox{-38.0, 140.0, -28.0, 152.0};

  size_t expected = 0;
  for (const Tweet& t : all) {
    if (spec.Matches(t)) ++expected;
  }
  size_t actual = 0;
  ScanStatistics stats = CountMatching(dataset, spec, &actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(stats.rows_matched, expected);
  EXPECT_EQ(stats.blocks_total, dataset.num_blocks());
}

TEST(ScanDatasetTest, UserFilterPrunesBlocksAfterCompaction) {
  TweetTable table = RandomTable(5000, 128, 7);
  table.CompactByUserTime();
  const TweetDataset dataset = TweetDataset::FromTable(std::move(table));

  ScanSpec spec;
  spec.user_id = 10;
  size_t count = 0;
  ScanStatistics stats = CountMatching(dataset, spec, &count);
  EXPECT_GT(count, 0u);
  // After (user,time) compaction a single user spans few blocks; the zone
  // maps must prune most of the ~40 blocks.
  EXPECT_GT(stats.blocks_pruned, stats.blocks_total / 2);
  // Pruning must not lose matches.
  size_t brute = 0;
  dataset.ForEachRow([&brute](const Tweet& t) {
    if (t.user_id == 10) ++brute;
  });
  EXPECT_EQ(count, brute);
}

TEST(ScanDatasetTest, TimeRangePruningIsLossless) {
  TweetTable table(64);
  // Three time-disjoint batches -> time-clustered blocks.
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          table.Append(MakeTweet(i, batch * 100000 + i, -33.0, 151.0)).ok());
    }
  }
  table.SealActive();
  const TweetDataset dataset = TweetDataset::FromTable(std::move(table));

  ScanSpec spec;
  spec.min_time = 100000;
  spec.max_time = 200000;
  size_t count = 0;
  ScanStatistics stats = CountMatching(dataset, spec, &count);
  EXPECT_EQ(count, 64u);
  EXPECT_EQ(stats.blocks_pruned, 2u);
  EXPECT_EQ(stats.rows_scanned, 64u);
}

TEST(ScanDatasetTest, BboxPruningSkipsFarBlocks) {
  TweetTable table(32);
  // Sydney block then Perth block.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(table.Append(MakeTweet(i, i, -33.9, 151.2)).ok());
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(table.Append(MakeTweet(i, i, -31.9, 115.9)).ok());
  }
  table.SealActive();
  const TweetDataset dataset = TweetDataset::FromTable(std::move(table));

  ScanSpec spec;
  spec.bbox = geo::BoundingBox{-35.0, 150.0, -32.0, 153.0};  // Sydney only
  std::vector<Tweet> out;
  ScanStatistics stats =
      ScanDataset(dataset, spec, [&out](const Tweet& t) { out.push_back(t); });
  EXPECT_EQ(out.size(), 32u);
  EXPECT_EQ(stats.blocks_pruned, 1u);
}

TEST(ScanDatasetTest, EmptySpecMatchesEverything) {
  const TweetDataset dataset = TweetDataset::FromTable(RandomTable(1000, 100, 9));
  size_t count = 0;
  CountMatching(dataset, ScanSpec{}, &count);
  EXPECT_EQ(count, 1000u);
}

TEST(MayMatchBlockTest, EmptyBlockNeverMatches) {
  BlockStats empty;
  EXPECT_FALSE(ScanSpec{}.MayMatchBlock(empty));
}

}  // namespace
}  // namespace twimob::tweetdb
