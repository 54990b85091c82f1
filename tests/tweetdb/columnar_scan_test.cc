// The columnar scan kernels' contract: FilterBlockColumnar selects exactly
// the rows the per-row ScanSpec::Matches predicate accepts, in ascending
// order, and every scan path built on the kernels (serial/parallel, one or
// many shards) reproduces the row-at-a-time reference bit for bit.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "random/rng.h"
#include "tweetdb/profile_table.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/query.h"
#include "tweetdb/table.h"

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
                    .Append(MakeTweet(rng.NextUint64(40),
                                      static_cast<int64_t>(rng.NextUint64(100000)),
                                      rng.NextUniform(-44.0, -10.0),
                                      rng.NextUniform(113.0, 154.0)))
                    .ok());
  }
  table.SealActive();
  return table;
}

bool SameTweet(const Tweet& a, const Tweet& b) {
  return a.user_id == b.user_id && a.timestamp == b.timestamp &&
         a.pos.lat == b.pos.lat && a.pos.lon == b.pos.lon;
}

void ExpectSameRows(const std::vector<Tweet>& expected,
                    const std::vector<Tweet>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(SameTweet(expected[i], actual[i])) << "row " << i;
  }
}

/// Reference: the matching rows in storage order via the row-at-a-time path.
std::vector<Tweet> BruteForceMatches(const TweetTable& table, const ScanSpec& spec) {
  std::vector<Tweet> rows;
  table.ForEachRow([&rows, &spec](const Tweet& t) {
    if (spec.Matches(t)) rows.push_back(t);
  });
  return rows;
}

/// A set of specs covering every predicate combination the pipeline issues.
std::vector<ScanSpec> SpecZoo() {
  std::vector<ScanSpec> specs;
  specs.emplace_back();  // match-all
  ScanSpec user;
  user.user_id = 7;
  specs.push_back(user);
  ScanSpec time;
  time.min_time = 20000;
  time.max_time = 70000;
  specs.push_back(time);
  ScanSpec min_only;
  min_only.min_time = 50000;
  specs.push_back(min_only);
  ScanSpec box;
  box.bbox = geo::BoundingBox{-38.0, 140.0, -28.0, 152.0};
  specs.push_back(box);
  ScanSpec combined;
  combined.user_id = 3;
  combined.min_time = 10000;
  combined.max_time = 90000;
  combined.bbox = geo::BoundingBox{-40.0, 120.0, -20.0, 150.0};
  specs.push_back(combined);
  ScanSpec nothing;
  nothing.user_id = std::numeric_limits<uint64_t>::max();
  specs.push_back(nothing);
  return specs;
}

TEST(FilterBlockColumnarTest, AgreesWithPerRowMatches) {
  const TweetTable table = RandomTable(3000, 256, 11);
  std::vector<uint32_t> sel;
  for (const ScanSpec& spec : SpecZoo()) {
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      const Block& block = table.block(b);
      FilterBlockColumnar(block, spec, &sel);
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < block.num_rows(); ++i) {
        if (spec.Matches(block.GetRow(i))) {
          expected.push_back(static_cast<uint32_t>(i));
        }
      }
      EXPECT_EQ(sel, expected) << "block " << b;
    }
  }
}

TEST(FilterBlockColumnarTest, MatchAllSpecSelectsIdentity) {
  const TweetTable table = RandomTable(300, 128, 3);
  const ScanSpec all;
  ASSERT_TRUE(all.MatchesAllRows());
  std::vector<uint32_t> sel;
  FilterBlockColumnar(table.block(0), all, &sel);
  ASSERT_EQ(sel.size(), table.block(0).num_rows());
  for (size_t i = 0; i < sel.size(); ++i) EXPECT_EQ(sel[i], i);
}

TEST(FilterBlockColumnarTest, InvertedAndNanBoxesSelectNothing) {
  const TweetTable table = RandomTable(300, 128, 3);
  std::vector<uint32_t> sel;

  ScanSpec inverted;
  inverted.bbox = geo::BoundingBox{-28.0, 140.0, -38.0, 152.0};  // min > max
  FilterBlockColumnar(table.block(0), inverted, &sel);
  EXPECT_TRUE(sel.empty());

  ScanSpec nan_box;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  nan_box.bbox = geo::BoundingBox{nan, 140.0, -28.0, 152.0};
  FilterBlockColumnar(table.block(0), nan_box, &sel);
  EXPECT_TRUE(sel.empty());
  // Matches the row-at-a-time Contains semantics.
  size_t count = 0;
  CountMatching(TweetDataset::FromTable(RandomTable(300, 128, 3)), nan_box, &count);
  EXPECT_EQ(count, 0u);
}

TEST(FilterBlockColumnarTest, BboxEdgesAreInclusiveAtFixedPointResolution) {
  // Points exactly on the box edge (representable at 1e-6°) must be kept;
  // points one fixed-point step outside must be dropped.
  TweetTable table(64);
  ASSERT_TRUE(table.Append(MakeTweet(1, 10, -34.000000, 151.000000)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(2, 11, -34.000001, 151.000000)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(3, 12, -33.000000, 151.999999)).ok());
  ASSERT_TRUE(table.Append(MakeTweet(4, 13, -33.000000, 152.000001)).ok());
  table.SealActive();

  ScanSpec spec;
  spec.bbox = geo::BoundingBox{-34.0, 150.0, -33.0, 152.0};
  std::vector<uint32_t> sel;
  FilterBlockColumnar(table.block(0), spec, &sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 2}));

  // Thresholds that are not exactly representable in fixed point must
  // round conservatively: a box edge at -33.9999995 excludes -34.000000.
  ScanSpec tight;
  tight.bbox = geo::BoundingBox{-33.9999995, 150.0, -33.0, 152.0};
  FilterBlockColumnar(table.block(0), tight, &sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{2}));
}

/// Differential sweep: the dispatched FilterBlockColumnar (SIMD kernels
/// when the CPU has them) must emit a selection list identical to the
/// always-scalar reference for every spec, at row counts straddling the
/// vector widths (8 int32 lanes / 4 int64 lanes on AVX2, half on SSE4.2)
/// so the packed loops, the scalar tails, and the empty block all get hit.
class FilterKernelDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FilterKernelDifferentialTest, SimdSelectionEqualsScalarSelection) {
  const size_t rows = GetParam();
  // Block capacity >= rows so the whole table is one block; a zero-row
  // sealed table has no blocks, so the empty case uses a bare Block.
  const TweetTable table = RandomTable(rows, std::max<size_t>(rows, 1), 97 + rows);
  const Block empty_block;
  const Block& block = rows == 0 ? empty_block : table.block(0);
  ASSERT_EQ(block.num_rows(), rows);

  std::vector<ScanSpec> specs = SpecZoo();
  // Match-none via each column kernel (the zoo's match-none goes through
  // the user kernel only).
  ScanSpec no_time;
  no_time.min_time = std::numeric_limits<int64_t>::max();
  specs.push_back(no_time);
  ScanSpec no_box;
  no_box.bbox = geo::BoundingBox{80.0, 0.0, 81.0, 1.0};
  specs.push_back(no_box);
  // Match-all via explicit predicates (distinct from the unset-spec
  // fast path): every row of the corpus satisfies these.
  ScanSpec all_box;
  all_box.min_time = 0;
  all_box.bbox = geo::BoundingBox{-90.0, -180.0, 90.0, 180.0};
  specs.push_back(all_box);

  std::vector<uint32_t> simd_sel;
  std::vector<uint32_t> scalar_sel;
  for (size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
    FilterBlockColumnar(block, specs[spec_idx], &simd_sel);
    FilterBlockColumnarScalar(block, specs[spec_idx], &scalar_sel);
    EXPECT_EQ(simd_sel, scalar_sel) << "spec " << spec_idx << " rows " << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, FilterKernelDifferentialTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 31, 63, 64, 100, 255, 256,
                                           1000));

TEST(FilterKernelDifferentialTest, ProfileTableSelectionsEqualScalarSelections) {
  const TweetTable table = ProfileTable();
  std::vector<ScanSpec> specs = SpecZoo();
  ScanSpec sydney;  // the pipeline's hot spatial predicate
  sydney.bbox = geo::BoundingBox{-35.0, 150.0, -33.0, 152.0};
  specs.push_back(sydney);
  std::vector<uint32_t> simd_sel;
  std::vector<uint32_t> scalar_sel;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    for (size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
      FilterBlockColumnar(table.block(b), specs[spec_idx], &simd_sel);
      FilterBlockColumnarScalar(table.block(b), specs[spec_idx], &scalar_sel);
      EXPECT_EQ(simd_sel, scalar_sel) << "block " << b << " spec " << spec_idx;
    }
  }
}

TEST(FilterKernelDifferentialTest, ImplementationNameIsKnown) {
  const std::string name = FilterKernelsImplementation();
  EXPECT_TRUE(name == "avx2" || name == "sse4.2" || name == "scalar") << name;
}

/// Adversarial zone-map sweep: specs whose boundaries sit EXACTLY on a
/// block's persisted min/max (user, time, and fixed-point coordinate
/// bounds) — the values v6 writes into the on-disk zone-map directory and
/// MayMatchBlock prunes on. A prune decision that is off by one ULP or one
/// fixed-point step at either edge silently drops matching rows; the
/// per-row Matches reference is the oracle.
class ZoneMapBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZoneMapBoundaryTest, BoundarySpecsAgreeWithPerRowReference) {
  const size_t block_capacity = GetParam();
  TweetTable table = RandomTable(600, block_capacity, 57 + block_capacity);
  table.CompactByUserTime();  // tight, sorted zone maps -> maximal pruning

  std::vector<ScanSpec> specs;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const BlockStats& stats = table.block_stats(b);
    // User equality at both edges of the block's user range.
    ScanSpec min_user;
    min_user.user_id = stats.min_user;
    specs.push_back(min_user);
    ScanSpec max_user;
    max_user.user_id = stats.max_user;
    specs.push_back(max_user);
    // Degenerate time windows touching exactly one zone-map edge: a prune
    // that treats either bound as exclusive loses the boundary rows.
    ScanSpec at_max_time;
    at_max_time.min_time = stats.max_time;
    at_max_time.max_time = stats.max_time;
    specs.push_back(at_max_time);
    ScanSpec at_min_time;
    at_min_time.min_time = stats.min_time;
    at_min_time.max_time = stats.min_time;
    specs.push_back(at_min_time);
    // A window whose max is one block's min and min is another's max meets
    // adjacent blocks only at their edges.
    ScanSpec half_open;
    half_open.max_time = stats.min_time;
    specs.push_back(half_open);
    // The block's own bbox, and degenerate boxes pinching each corner.
    ScanSpec exact_box;
    exact_box.bbox = stats.bbox;
    specs.push_back(exact_box);
    ScanSpec min_corner;
    min_corner.bbox = geo::BoundingBox{stats.bbox.min_lat, stats.bbox.min_lon,
                                       stats.bbox.min_lat, stats.bbox.min_lon};
    specs.push_back(min_corner);
    ScanSpec max_corner;
    max_corner.bbox = geo::BoundingBox{stats.bbox.max_lat, stats.bbox.max_lon,
                                       stats.bbox.max_lat, stats.bbox.max_lon};
    specs.push_back(max_corner);
    // All predicates pinned to the same block's edges at once.
    ScanSpec combined;
    combined.user_id = stats.min_user;
    combined.min_time = stats.min_time;
    combined.max_time = stats.max_time;
    combined.bbox = stats.bbox;
    specs.push_back(combined);
  }

  const TweetDataset dataset = TweetDataset::FromTable(std::move(table));
  for (size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
    const ScanSpec& spec = specs[spec_idx];
    const std::vector<Tweet> expected = BruteForceMatches(dataset.shard(0), spec);
    std::vector<Tweet> scanned;
    ScanDataset(dataset, spec, [&scanned](const Tweet& t) { scanned.push_back(t); });
    ASSERT_EQ(expected.size(), scanned.size()) << "spec " << spec_idx;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(SameTweet(expected[i], scanned[i]))
          << "spec " << spec_idx << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCapacities, ZoneMapBoundaryTest,
                         ::testing::Values(1, 2, 3, 7, 64, 600));

TEST(ZoneMapBoundaryTest, PersistedZoneMapsPruneExactlyLikeInMemoryOnes) {
  // A table round-tripped through the v6 codec prunes on StatsFromZoneMap
  // (reconstructed from the persisted directory); scan statistics and
  // results must be identical to the in-memory original.
  TweetTable table = RandomTable(2000, 128, 83);
  table.CompactByUserTime();
  auto decoded = DecodeTable(EncodeTable(table));
  ASSERT_TRUE(decoded.ok());
  const TweetDataset mem = TweetDataset::FromTable(std::move(table));
  const TweetDataset disk = TweetDataset::FromTable(std::move(*decoded));

  for (const ScanSpec& spec : SpecZoo()) {
    const std::vector<Tweet> expected = BruteForceMatches(mem.shard(0), spec);
    std::vector<Tweet> scanned;
    const ScanStatistics mem_stats = ScanDataset(mem, spec, [](const Tweet&) {});
    const ScanStatistics disk_stats = ScanDataset(
        disk, spec, [&scanned](const Tweet& t) { scanned.push_back(t); });
    ExpectSameRows(expected, scanned);
    EXPECT_EQ(mem_stats.blocks_pruned, disk_stats.blocks_pruned);
    EXPECT_EQ(mem_stats.rows_scanned, disk_stats.rows_scanned);
  }
}

TEST(ScanPathsTest, DatasetScansMatchForEachRowReference) {
  TweetTable table = RandomTable(5000, 256, 21);
  table.CompactByUserTime();

  TweetDataset sharded(PartitionSpec::ForWindow(0, 100000, 4));
  table.ForEachRow([&sharded](const Tweet& t) {
    ASSERT_TRUE(sharded.Append(t).ok());
  });
  sharded.SealAll();
  const TweetDataset single = TweetDataset::FromTable(std::move(table));

  ThreadPool pool(4);
  for (const TweetDataset* dataset :
       std::initializer_list<const TweetDataset*>{&single, &sharded}) {
    for (const ScanSpec& spec : SpecZoo()) {
      // Reference: the per-row filter over each shard in key order.
      std::vector<Tweet> expected;
      for (size_t s = 0; s < dataset->num_shards(); ++s) {
        const auto shard_rows = BruteForceMatches(dataset->shard(s), spec);
        expected.insert(expected.end(), shard_rows.begin(), shard_rows.end());
      }

      std::vector<Tweet> serial;
      const ScanStatistics serial_stats = ScanDataset(
          *dataset, spec, [&serial](const Tweet& t) { serial.push_back(t); });
      ExpectSameRows(expected, serial);
      EXPECT_EQ(serial_stats.rows_matched, expected.size());

      // The count agrees with the gathering scan, serial and pooled, and
      // every path prunes and scans exactly the same blocks and rows.
      size_t count = 0;
      const ScanStatistics count_stats = CountMatching(*dataset, spec, &count);
      EXPECT_EQ(count, expected.size());
      const ScanStatistics pooled_count_stats =
          CountMatching(*dataset, spec, &count, &pool);
      EXPECT_EQ(count, expected.size());
      for (const ScanStatistics& stats : {count_stats, pooled_count_stats}) {
        EXPECT_EQ(stats.blocks_total, serial_stats.blocks_total);
        EXPECT_EQ(stats.blocks_pruned, serial_stats.blocks_pruned);
        EXPECT_EQ(stats.rows_scanned, serial_stats.rows_scanned);
        EXPECT_EQ(stats.rows_matched, serial_stats.rows_matched);
      }
    }
  }
}

TEST(ScanPathsTest, ProfileTableOnDiskCountsLikeInMemory) {
  // A selective scan (one user of the compacted table) prunes blocks on the
  // zone maps, and the table written as dataset files and reopened counts
  // the same rows.
  ScanSpec selective;
  selective.user_id = 777;
  const TweetDataset memory = TweetDataset::FromTable(ProfileTable());
  size_t memory_count = 0;
  const ScanStatistics stats = CountMatching(memory, selective, &memory_count);
  EXPECT_GT(memory_count, 0u);
  EXPECT_GT(stats.blocks_pruned, 0u);

  TweetDataset written;
  memory.ForEachRow([&written](const Tweet& t) { ASSERT_TRUE(written.Append(t).ok()); });
  const std::string path = testing::TempDir() + "/twimob_profile_table.twdb";
  ASSERT_TRUE(WriteDatasetFiles(written, path).ok());
  auto disk = ReadDatasetFiles(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  size_t disk_count = 0;
  CountMatching(*disk, selective, &disk_count);
  EXPECT_EQ(disk_count, memory_count);
}

TEST(ScanPathsTest, PrunedAndEmptyBlocksContributeNothing) {
  // After (user, time) compaction a user filter prunes most blocks via the
  // zone maps; the columnar path must still report them as pruned and skip
  // their rows entirely.
  TweetTable table = RandomTable(5000, 128, 7);
  table.CompactByUserTime();
  const TweetDataset dataset = TweetDataset::FromTable(std::move(table));

  ScanSpec spec;
  spec.user_id = 10;
  std::vector<Tweet> rows;
  const ScanStatistics stats =
      ScanDataset(dataset, spec, [&rows](const Tweet& t) { rows.push_back(t); });
  EXPECT_GT(stats.blocks_pruned, 0u);
  EXPECT_LT(stats.rows_scanned, 5000u);
  ExpectSameRows(BruteForceMatches(dataset.shard(0), spec), rows);

  // An empty (sealed, zero-row) table scans to nothing without touching the
  // kernels.
  TweetTable empty(64);
  empty.SealActive();
  const TweetDataset empty_dataset = TweetDataset::FromTable(std::move(empty));
  ThreadPool pool(2);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    size_t count = 1;
    const ScanStatistics empty_stats =
        CountMatching(empty_dataset, ScanSpec{}, &count, workers);
    EXPECT_EQ(count, 0u);
    EXPECT_EQ(empty_stats.blocks_total, 0u);
    EXPECT_EQ(empty_stats.rows_scanned, 0u);
  }
}

}  // namespace
}  // namespace twimob::tweetdb
