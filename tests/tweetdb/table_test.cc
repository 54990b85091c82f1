#include "tweetdb/table.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"

namespace twimob::tweetdb {
namespace {

Tweet MakeTweet(uint64_t user, int64_t ts, double lat = -33.0, double lon = 151.0) {
  return Tweet{user, ts, geo::LatLon{lat, lon}};
}

TEST(TweetTableTest, AppendValidatesRows) {
  TweetTable table;
  EXPECT_TRUE(table.Append(MakeTweet(1, 100)).ok());
  EXPECT_TRUE(table.Append(Tweet{1, -5, geo::LatLon{0, 0}}).IsInvalidArgument());
  EXPECT_TRUE(
      table.Append(Tweet{1, 5, geo::LatLon{95.0, 0.0}}).IsInvalidArgument());
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TweetTableTest, BlocksRollOverAtCapacity) {
  TweetTable table(/*block_capacity=*/10);
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(table.Append(MakeTweet(1, i)).ok());
  }
  EXPECT_EQ(table.num_rows(), 35u);
  table.SealActive();
  EXPECT_EQ(table.num_blocks(), 4u);  // 10+10+10+5
  EXPECT_EQ(table.block(3).num_rows(), 5u);
}

TEST(TweetTableTest, ForEachRowVisitsEverythingInOrder) {
  TweetTable table(8);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Append(MakeTweet(i, i * 10)).ok());
  }
  int count = 0;
  table.ForEachRow([&count](const Tweet& t) {
    EXPECT_EQ(t.user_id, static_cast<uint64_t>(count));
    ++count;
  });
  EXPECT_EQ(count, 20);
}

TEST(TweetTableTest, CompactSortsByUserTime) {
  TweetTable table(16);
  random::Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        table.Append(MakeTweet(rng.NextUint64(20), static_cast<int64_t>(
                                                       rng.NextUint64(100000))))
            .ok());
  }
  EXPECT_FALSE(table.sorted_by_user_time());
  table.CompactByUserTime();
  EXPECT_TRUE(table.sorted_by_user_time());
  EXPECT_EQ(table.num_rows(), 500u);

  Tweet prev{};
  bool first = true;
  table.ForEachRow([&](const Tweet& t) {
    if (!first) {
      EXPECT_TRUE(prev.user_id < t.user_id ||
                  (prev.user_id == t.user_id && prev.timestamp <= t.timestamp));
    }
    prev = t;
    first = false;
  });
}

TEST(TweetTableTest, AppendAfterCompactClearsSortedFlag) {
  TweetTable table;
  ASSERT_TRUE(table.Append(MakeTweet(2, 5)).ok());
  table.CompactByUserTime();
  EXPECT_TRUE(table.sorted_by_user_time());
  ASSERT_TRUE(table.Append(MakeTweet(1, 1)).ok());
  EXPECT_FALSE(table.sorted_by_user_time());
}

TEST(TweetTableTest, CountDistinctUsers) {
  TweetTable table(4);
  for (uint64_t u : {1, 2, 1, 3, 2, 1, 9}) {
    ASSERT_TRUE(table.Append(MakeTweet(u, 1)).ok());
  }
  EXPECT_EQ(table.CountDistinctUsers(), 4u);
}

TEST(TweetTableTest, ToVectorMatchesForEach) {
  TweetTable table(4);
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(table.Append(MakeTweet(i, i)).ok());
  }
  auto v = table.ToVector();
  ASSERT_EQ(v.size(), 13u);
  EXPECT_EQ(v[7].user_id, 7u);
}

TEST(TweetTableTest, EmptyTableBehaviour) {
  TweetTable table;
  EXPECT_EQ(table.num_rows(), 0u);
  table.SealActive();
  EXPECT_EQ(table.num_blocks(), 0u);
  table.CompactByUserTime();
  EXPECT_TRUE(table.sorted_by_user_time());
  EXPECT_EQ(table.CountDistinctUsers(), 0u);
}

TEST(TweetTableTest, AdoptSealedBlockUpdatesCounters) {
  Block b;
  ASSERT_TRUE(b.Append(MakeTweet(1, 1)).ok());
  ASSERT_TRUE(b.Append(MakeTweet(2, 2)).ok());
  TweetTable table;
  table.AdoptSealedBlock(std::move(b));
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_blocks(), 1u);
  EXPECT_EQ(table.block_stats(0).num_rows, 2u);
  // Adopting an empty block is a no-op.
  table.AdoptSealedBlock(Block());
  EXPECT_EQ(table.num_blocks(), 1u);
}

TEST(TweetTableTest, ZeroCapacityFallsBackToDefault) {
  TweetTable table(0);
  EXPECT_EQ(table.block_capacity(), kDefaultBlockCapacity);
}

TEST(TweetTableTest, MergeCombinesAndSortsTables) {
  random::Xoshiro256 rng(41);
  std::vector<TweetTable> inputs;
  std::vector<Tweet> all;
  for (int t = 0; t < 3; ++t) {
    TweetTable table(32);
    for (int i = 0; i < 200; ++i) {
      const Tweet tweet = MakeTweet(rng.NextUint64(30),
                                    static_cast<int64_t>(rng.NextUint64(100000)));
      ASSERT_TRUE(table.Append(tweet).ok());
      all.push_back(tweet);
    }
    inputs.push_back(std::move(table));
  }
  TweetTable merged = TweetTable::Merge(std::move(inputs), 64);
  EXPECT_EQ(merged.num_rows(), 600u);
  EXPECT_TRUE(merged.sorted_by_user_time());

  std::sort(all.begin(), all.end(), UserTimeLess);
  EXPECT_EQ(merged.ToVector(), all);
}

TEST(TweetTableTest, MergeHandlesEmptyInputs) {
  TweetTable merged = TweetTable::Merge({});
  EXPECT_EQ(merged.num_rows(), 0u);
  EXPECT_TRUE(merged.sorted_by_user_time());

  std::vector<TweetTable> one_empty_one_full;
  one_empty_one_full.emplace_back();
  TweetTable full;
  ASSERT_TRUE(full.Append(MakeTweet(1, 1)).ok());
  one_empty_one_full.push_back(std::move(full));
  TweetTable merged2 = TweetTable::Merge(std::move(one_empty_one_full));
  EXPECT_EQ(merged2.num_rows(), 1u);
}

TEST(TweetTableTest, MergeSingleTableIsIdentityAfterSort) {
  TweetTable table;
  ASSERT_TRUE(table.Append(MakeTweet(2, 20)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(1, 10)).ok());
  std::vector<TweetTable> input;
  input.push_back(std::move(table));
  TweetTable merged = TweetTable::Merge(std::move(input));
  auto rows = merged.ToVector();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].user_id, 1u);
  EXPECT_EQ(rows[1].user_id, 2u);
}

// --- CompactByUserTime property sweep -------------------------------------
//
// The adaptive compaction must build exactly the blocks of the naive one:
// materialise, sort by UserTimeLess, re-append at block_capacity.

TweetTable NaiveCompact(const TweetTable& table) {
  std::vector<Tweet> rows = table.ToVector();
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  TweetTable out(table.block_capacity());
  for (const Tweet& t : rows) EXPECT_TRUE(out.Append(t).ok());
  out.SealActive();
  return out;
}

void ExpectSameBlocks(const TweetTable& got, const TweetTable& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_blocks(), want.num_blocks());
  for (size_t b = 0; b < want.num_blocks(); ++b) {
    EXPECT_EQ(got.block(b).user_ids(), want.block(b).user_ids()) << "block " << b;
    EXPECT_EQ(got.block(b).timestamps(), want.block(b).timestamps()) << "block " << b;
    EXPECT_EQ(got.block(b).lat_fixed(), want.block(b).lat_fixed()) << "block " << b;
    EXPECT_EQ(got.block(b).lon_fixed(), want.block(b).lon_fixed()) << "block " << b;
    const BlockStats& g = got.block_stats(b);
    const BlockStats& w = want.block_stats(b);
    EXPECT_EQ(g.num_rows, w.num_rows);
    EXPECT_EQ(g.min_user, w.min_user);
    EXPECT_EQ(g.max_user, w.max_user);
    EXPECT_EQ(g.min_time, w.min_time);
    EXPECT_EQ(g.max_time, w.max_time);
    EXPECT_EQ(g.bbox.min_lat, w.bbox.min_lat);
    EXPECT_EQ(g.bbox.max_lat, w.bbox.max_lat);
    EXPECT_EQ(g.bbox.min_lon, w.bbox.min_lon);
    EXPECT_EQ(g.bbox.max_lon, w.bbox.max_lon);
  }
}

/// Rows drawn from small value ranges, so (user, time) ties and exact
/// duplicates are common.
std::vector<Tweet> TieHeavyRows(size_t n, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(MakeTweet(rng.NextUint64(12), static_cast<int64_t>(rng.NextUint64(40)),
                             -33.0 + 0.001 * static_cast<double>(rng.NextUint64(4)),
                             151.0 + 0.001 * static_cast<double>(rng.NextUint64(4))));
  }
  return rows;
}

/// A table holding `rows` in order, in blocks of the given sizes (cycled),
/// adopted as sealed blocks the way the codecs build tables.
TweetTable AdoptInBlocks(const std::vector<Tweet>& rows, const std::vector<size_t>& sizes,
                         size_t capacity) {
  TweetTable table(capacity);
  size_t next = 0;
  for (size_t k = 0; next < rows.size(); ++k) {
    Block block;
    const size_t n = std::min(sizes[k % sizes.size()], rows.size() - next);
    for (size_t i = 0; i < n; ++i) EXPECT_TRUE(block.Append(rows[next++], n).ok());
    table.AdoptSealedBlock(std::move(block));
  }
  return table;
}

/// Compacts `table` and checks it against the naive reference; returns
/// the compaction's report.
CompactionReport CompactAndCompare(TweetTable& table) {
  const TweetTable want = NaiveCompact(table);
  const CompactionReport report = table.CompactByUserTime();
  EXPECT_TRUE(table.sorted_by_user_time());
  ExpectSameBlocks(table, want);
  return report;
}

class CompactionPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t capacity() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(BlockCapacities, CompactionPropertyTest,
                         ::testing::Values(size_t{1}, size_t{3}, kDefaultBlockCapacity));

TEST_P(CompactionPropertyTest, CanonicalSortedTableIsNotRewritten) {
  std::vector<Tweet> rows = TieHeavyRows(200, 1);
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  TweetTable table(capacity());
  for (const Tweet& t : rows) ASSERT_TRUE(table.Append(t).ok());
  table.SealActive();
  std::vector<const uint64_t*> before;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    before.push_back(table.block(b).user_ids().data());
  }

  const CompactionReport report = CompactAndCompare(table);
  EXPECT_EQ(report.rows_out_of_order, 0u);
  EXPECT_FALSE(report.rewritten);
  ASSERT_EQ(table.num_blocks(), before.size());
  for (size_t b = 0; b < before.size(); ++b) {
    EXPECT_EQ(table.block(b).user_ids().data(), before[b]) << "block " << b;
  }
  // A second compaction is the same O(n) check.
  EXPECT_FALSE(table.CompactByUserTime().rewritten);
}

TEST_P(CompactionPropertyTest, SortedTableWithIrregularBlocksIsRechunked) {
  std::vector<Tweet> rows = TieHeavyRows(150, 2);
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  // Every layout has a block that is neither full nor last, or one over
  // the capacity, so the in-order rows still get rechunked.
  std::vector<std::vector<size_t>> layouts = {{1, 2}, {2, 1, 4}};
  if (capacity() < rows.size()) layouts.push_back({capacity() + 1});
  for (const std::vector<size_t>& sizes : layouts) {
    TweetTable table = AdoptInBlocks(rows, sizes, capacity());
    const CompactionReport report = CompactAndCompare(table);
    EXPECT_EQ(report.rows_out_of_order, 0u);
    EXPECT_TRUE(report.rewritten);
  }
}

TEST_P(CompactionPropertyTest, TiesInReverseLatLonOrderAreReordered) {
  // Equal (user, time) pairs stored in descending (lat, lon) order: each
  // pair's second row is below its first and goes through the side list.
  std::vector<Tweet> rows;
  for (uint64_t user = 0; user < 40; ++user) {
    rows.push_back(MakeTweet(user, 100, -33.002, 151.002));
    rows.push_back(MakeTweet(user, 100, -33.002, 151.001));
    rows.push_back(MakeTweet(user, 100, -33.003, 151.009));
    rows.push_back(MakeTweet(user, 200, -33.0, 151.0));
  }
  TweetTable table(capacity());
  for (const Tweet& t : rows) ASSERT_TRUE(table.Append(t).ok());
  const CompactionReport report = CompactAndCompare(table);
  EXPECT_EQ(report.rows_out_of_order, 80u);
  EXPECT_TRUE(report.rewritten);
}

TEST_P(CompactionPropertyTest, SortedBaseWithRandomTail) {
  std::vector<Tweet> base = TieHeavyRows(300, 3);
  std::sort(base.begin(), base.end(), UserTimeLess);
  TweetTable table(capacity());
  for (const Tweet& t : base) ASSERT_TRUE(table.Append(t).ok());
  table.CompactByUserTime();
  const std::vector<Tweet> tail = TieHeavyRows(40, 4);
  for (const Tweet& t : tail) ASSERT_TRUE(table.Append(t).ok());
  const CompactionReport report = CompactAndCompare(table);
  EXPECT_GT(report.rows_out_of_order, 0u);
  EXPECT_LE(report.rows_out_of_order, tail.size());
  EXPECT_TRUE(report.rewritten);
}

TEST_P(CompactionPropertyTest, ReversedAndShuffledInput) {
  std::vector<Tweet> rows;
  for (uint64_t i = 0; i < 120; ++i) {
    rows.push_back(MakeTweet(i / 4, static_cast<int64_t>(i % 4), -33.0, 151.0));
  }
  std::vector<Tweet> reversed(rows.rbegin(), rows.rend());
  TweetTable table(capacity());
  for (const Tweet& t : reversed) ASSERT_TRUE(table.Append(t).ok());
  // Every row is distinct and below the first: all but one are side rows.
  EXPECT_EQ(CompactAndCompare(table).rows_out_of_order, rows.size() - 1);

  for (uint64_t seed : {5, 6, 7}) {
    std::vector<Tweet> shuffled = TieHeavyRows(250, seed);
    TweetTable t(capacity());
    for (const Tweet& row : shuffled) ASSERT_TRUE(t.Append(row).ok());
    EXPECT_TRUE(CompactAndCompare(t).rewritten) << "seed " << seed;
  }
}

TEST_P(CompactionPropertyTest, DuplicateRowsAreKept) {
  TweetTable table(capacity());
  for (int k = 0; k < 3; ++k) {
    for (uint64_t user : {9, 2, 9, 5, 2}) {
      ASSERT_TRUE(table.Append(MakeTweet(user, 7, -33.5, 151.5)).ok());
    }
  }
  const CompactionReport report = CompactAndCompare(table);
  EXPECT_EQ(table.num_rows(), 15u);
  EXPECT_GT(report.rows_out_of_order, 0u);
}

TEST_P(CompactionPropertyTest, EmptyAndOneRowTables) {
  TweetTable empty(capacity());
  const CompactionReport none = CompactAndCompare(empty);
  EXPECT_EQ(none.rows_out_of_order, 0u);
  EXPECT_FALSE(none.rewritten);
  EXPECT_EQ(empty.num_blocks(), 0u);

  TweetTable one(capacity());
  ASSERT_TRUE(one.Append(MakeTweet(3, 30)).ok());
  const CompactionReport single = CompactAndCompare(one);
  EXPECT_EQ(single.rows_out_of_order, 0u);
  EXPECT_FALSE(single.rewritten);
}

TEST(TweetTableTest, BlockStatsCachedOnSeal) {
  TweetTable table(2);
  ASSERT_TRUE(table.Append(MakeTweet(5, 50)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(3, 30)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(8, 80)).ok());  // rolls into new block
  EXPECT_EQ(table.num_blocks(), 1u);
  EXPECT_EQ(table.block_stats(0).min_user, 3u);
  EXPECT_EQ(table.block_stats(0).max_time, 50);
}

}  // namespace
}  // namespace twimob::tweetdb
