// Zone-map boundary semantics: ScanSpec::MayMatchBlock must be exact at
// the edges the predicate semantics define (min_time inclusive, max_time
// exclusive, user and bbox ranges inclusive) — one off-by-one either way
// is a pruned match or a wasted decode. The sweeps also pin the agreement
// of the scan paths (serial / parallel, one shard / many shards).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "tweetdb/block.h"
#include "tweetdb/dataset.h"
#include "tweetdb/query.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {
namespace {

// 128 rows in time order over [1000, 2000) with a 64-row block capacity:
// two sealed blocks with disjoint time ranges. Users cycle 1..8.
TweetTable BoundaryTable() {
  TweetTable table(64);
  for (int i = 0; i < 128; ++i) {
    const Tweet t{static_cast<uint64_t>(i % 8 + 1),
                  1000 + static_cast<int64_t>(i) * 7 % 1000,
                  geo::LatLon{-40.0 + 0.1 * static_cast<double>(i % 50),
                              115.0 + 0.2 * static_cast<double>(i % 40)}};
    EXPECT_TRUE(table.Append(t).ok());
  }
  table.SealActive();
  EXPECT_EQ(table.num_blocks(), 2u);
  return table;
}

// The same rows routed into a multi-shard dataset (time width 250 over the
// [1000, 2000) window gives four shards).
TweetDataset BoundaryDataset(const TweetTable& table) {
  TweetDataset dataset(PartitionSpec{1000, 250}, 64);
  table.ForEachRow([&dataset](const Tweet& t) {
    EXPECT_TRUE(dataset.Append(t).ok());
  });
  dataset.SealAll();
  EXPECT_EQ(dataset.num_shards(), 4u);
  return dataset;
}

std::vector<Tweet> BruteForce(const TweetTable& table, const ScanSpec& spec) {
  std::vector<Tweet> out;
  table.ForEachRow([&spec, &out](const Tweet& t) {
    if (spec.Matches(t)) out.push_back(t);
  });
  return out;
}

bool SameTweet(const Tweet& a, const Tweet& b) {
  return a.user_id == b.user_id && a.timestamp == b.timestamp &&
         a.pos.lat == b.pos.lat && a.pos.lon == b.pos.lon;
}

// Sorted multiset comparison: the dataset paths visit rows in shard-major
// (time-partitioned) order, which permutes the original append order.
void ExpectSameRows(std::vector<Tweet> a, std::vector<Tweet> b) {
  auto less = [](const Tweet& x, const Tweet& y) { return UserTimeLess(x, y); };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameTweet(a[i], b[i])) << "row " << i;
  }
}

// Runs `spec` through the serial scan and the pooled count of both the
// single-shard and the multi-shard dataset and checks each against the
// brute-force row filter. Returns the matched count.
size_t CheckAllPathsAgree(const TweetDataset& single, const TweetDataset& sharded,
                          const ScanSpec& spec) {
  const std::vector<Tweet> expected = BruteForce(single.shard(0), spec);
  ThreadPool pool(3);
  for (const TweetDataset* dataset : {&single, &sharded}) {
    std::vector<Tweet> serial;
    const ScanStatistics serial_stats = ScanDataset(
        *dataset, spec, [&serial](const Tweet& t) { serial.push_back(t); });
    ExpectSameRows(expected, serial);
    EXPECT_EQ(serial_stats.rows_matched, expected.size());

    size_t pooled_count = 0;
    const ScanStatistics pooled_stats =
        CountMatching(*dataset, spec, &pooled_count, &pool);
    EXPECT_EQ(pooled_count, expected.size());
    EXPECT_EQ(pooled_stats.rows_matched, serial_stats.rows_matched);
    EXPECT_EQ(pooled_stats.blocks_pruned, serial_stats.blocks_pruned);
  }
  return expected.size();
}

// --------------------------------------------------------------------------
// MayMatchBlock edge semantics on hand-built zone maps.

BlockStats MidStats() {
  BlockStats stats;
  stats.num_rows = 10;
  stats.min_user = 5;
  stats.max_user = 9;
  stats.min_time = 1000;
  stats.max_time = 1999;
  stats.bbox = geo::BoundingBox{-40.0, 115.0, -30.0, 125.0};
  return stats;
}

TEST(MayMatchBlockTest, EmptyBlockNeverMatches) {
  BlockStats stats = MidStats();
  stats.num_rows = 0;
  EXPECT_FALSE(ScanSpec{}.MayMatchBlock(stats));
}

TEST(MayMatchBlockTest, MinTimeIsInclusiveAtTheBlockMaximum) {
  const BlockStats stats = MidStats();
  ScanSpec spec;
  spec.min_time = stats.max_time;  // a row exactly at max_time still matches
  EXPECT_TRUE(spec.MayMatchBlock(stats));
  spec.min_time = stats.max_time + 1;
  EXPECT_FALSE(spec.MayMatchBlock(stats));
}

TEST(MayMatchBlockTest, MaxTimeIsExclusiveAtTheBlockMinimum) {
  const BlockStats stats = MidStats();
  ScanSpec spec;
  spec.max_time = stats.min_time;  // rows have timestamp >= min_time: none < it
  EXPECT_FALSE(spec.MayMatchBlock(stats));
  spec.max_time = stats.min_time + 1;  // a row exactly at min_time matches
  EXPECT_TRUE(spec.MayMatchBlock(stats));
}

TEST(MayMatchBlockTest, UserRangeIsInclusiveAtBothEnds) {
  const BlockStats stats = MidStats();
  ScanSpec spec;
  for (uint64_t user : {stats.min_user, stats.max_user}) {
    spec.user_id = user;
    EXPECT_TRUE(spec.MayMatchBlock(stats)) << user;
  }
  spec.user_id = stats.min_user - 1;
  EXPECT_FALSE(spec.MayMatchBlock(stats));
  spec.user_id = stats.max_user + 1;
  EXPECT_FALSE(spec.MayMatchBlock(stats));
}

TEST(MayMatchBlockTest, BboxTouchingAnEdgeStillMatches) {
  const BlockStats stats = MidStats();
  ScanSpec spec;
  // A query box meeting the zone box exactly at its max corner.
  spec.bbox = geo::BoundingBox{stats.bbox.max_lat, stats.bbox.max_lon,
                               stats.bbox.max_lat + 1.0,
                               stats.bbox.max_lon + 1.0};
  EXPECT_TRUE(spec.MayMatchBlock(stats));
  // Strictly beyond the corner: prunable.
  spec.bbox = geo::BoundingBox{stats.bbox.max_lat + 0.5,
                               stats.bbox.max_lon + 0.5,
                               stats.bbox.max_lat + 1.0,
                               stats.bbox.max_lon + 1.0};
  EXPECT_FALSE(spec.MayMatchBlock(stats));
}

// --------------------------------------------------------------------------
// Boundary sweeps on real blocks: rows exactly at the spec edges, across
// every scan path.

class ScanBoundarySweep : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(Offsets, ScanBoundarySweep,
                         ::testing::Values(-2, -1, 0, 1, 2));

TEST_P(ScanBoundarySweep, TimeWindowEdges) {
  const int64_t offset = GetParam();
  const TweetDataset single = TweetDataset::FromTable(BoundaryTable());
  const TweetTable& table = single.shard(0);
  const TweetDataset dataset = BoundaryDataset(table);
  // Sweep min_time and max_time around every block boundary of the data.
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const BlockStats& stats = table.block_stats(b);
    for (int64_t base : {stats.min_time, stats.max_time}) {
      ScanSpec lower;
      lower.min_time = base + offset;
      CheckAllPathsAgree(single, dataset, lower);

      ScanSpec upper;
      upper.max_time = base + offset;
      CheckAllPathsAgree(single, dataset, upper);

      ScanSpec window;  // one-second window straddling the edge
      window.min_time = base + offset;
      window.max_time = base + offset + 1;
      CheckAllPathsAgree(single, dataset, window);
    }
  }
}

TEST_P(ScanBoundarySweep, UserEdges) {
  const int64_t offset = GetParam();
  const TweetDataset single = TweetDataset::FromTable(BoundaryTable());
  const TweetTable& table = single.shard(0);
  const TweetDataset dataset = BoundaryDataset(table);
  for (uint64_t base : {uint64_t{1}, uint64_t{8}}) {  // the user id range
    const int64_t shifted = static_cast<int64_t>(base) + offset;
    if (shifted < 0) continue;
    ScanSpec spec;
    spec.user_id = static_cast<uint64_t>(shifted);
    CheckAllPathsAgree(single, dataset, spec);
  }
}

TEST(ScanBoundaryTest, ZeroAreaBboxAtAStoredPointMatchesIt) {
  const TweetDataset single = TweetDataset::FromTable(BoundaryTable());
  const TweetTable& table = single.shard(0);
  const TweetDataset dataset = BoundaryDataset(table);
  // Use the exact stored (quantised) coordinates of one row as a zero-area
  // query box: the row sits on all four edges and must match.
  const Tweet probe = table.block(0).GetRow(17);
  ScanSpec spec;
  spec.bbox = geo::BoundingBox{probe.pos.lat, probe.pos.lon, probe.pos.lat,
                               probe.pos.lon};
  const size_t matched = CheckAllPathsAgree(single, dataset, spec);
  EXPECT_GE(matched, 1u);
}

TEST(ScanBoundaryTest, PrunedBlocksContainNoMatches) {
  const TweetTable table = BoundaryTable();
  // For every single-block time window: any block MayMatchBlock rejects
  // must brute-force to zero matches (pruning soundness).
  for (int64_t t0 = 995; t0 <= 2005; t0 += 3) {
    ScanSpec spec;
    spec.min_time = t0;
    spec.max_time = t0 + 10;
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      if (spec.MayMatchBlock(table.block_stats(b))) continue;
      const Block& block = table.block(b);
      for (size_t i = 0; i < block.num_rows(); ++i) {
        EXPECT_FALSE(spec.Matches(block.GetRow(i)))
            << "pruned block " << b << " contains a match at row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace twimob::tweetdb
