#include "geo/sealed_grid_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "geo/geodesic.h"
#include "geo/grid_index.h"
#include "random/rng.h"

namespace twimob::geo {
namespace {

/// Clustered + uniform points with duplicated ids (~60 points per id), so
/// the distinct-id queries exercise real merging across cells.
std::vector<IndexedPoint> RandomPoints(size_t n, uint64_t seed,
                                       const BoundingBox& box) {
  random::Xoshiro256 rng(seed);
  std::vector<IndexedPoint> pts;
  pts.reserve(n);
  const LatLon cluster{-33.87, 151.21};
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.5)) {
      pts.push_back(IndexedPoint{LatLon{cluster.lat + rng.NextGaussian() * 0.2,
                                        cluster.lon + rng.NextGaussian() * 0.2},
                                 i % 50});
    } else {
      pts.push_back(IndexedPoint{LatLon{rng.NextUniform(box.min_lat, box.max_lat),
                                        rng.NextUniform(box.min_lon, box.max_lon)},
                                 i % 50});
    }
  }
  return pts;
}

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The sealed contract: identical points, identical order, identical bits.
void ExpectSamePoints(const std::vector<IndexedPoint>& unsealed,
                      const std::vector<IndexedPoint>& sealed) {
  ASSERT_EQ(unsealed.size(), sealed.size());
  for (size_t i = 0; i < unsealed.size(); ++i) {
    EXPECT_EQ(unsealed[i].id, sealed[i].id) << "at " << i;
    EXPECT_TRUE(BitEq(unsealed[i].pos.lat, sealed[i].pos.lat)) << "at " << i;
    EXPECT_TRUE(BitEq(unsealed[i].pos.lon, sealed[i].pos.lon)) << "at " << i;
  }
}

/// The direct build over `points`; every grid used here is valid.
SealedGridIndex MustBuild(const BoundingBox& bounds, double cell_deg,
                          const std::vector<IndexedPoint>& points) {
  auto built = SealedGridIndex::Build(bounds, cell_deg, points);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

size_t HashDistinct(const GridIndex& index, const LatLon& center, double radius_m) {
  std::unordered_set<uint64_t> ids;
  index.ForEachInRadius(center, radius_m,
                        [&ids](const IndexedPoint& p) { ids.insert(p.id); });
  return ids.size();
}

/// (cell_deg, radius_m) sweep spanning sub-cell (ε = 0.5 km), boundary-heavy,
/// and interior-heavy (ε = 50 km) regimes for every cell size.
class SealedVsUnsealedTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SealedVsUnsealedTest, QueriesAreByteIdentical) {
  const auto [cell_deg, radius_m] = GetParam();
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  auto idx = GridIndex::Create(box, cell_deg);
  ASSERT_TRUE(idx.ok());
  const auto pts = RandomPoints(4000, 42, box);
  idx->InsertAll(pts);
  const SealedGridIndex sealed = MustBuild(box, cell_deg, pts);
  EXPECT_EQ(sealed.size(), idx->size());
  EXPECT_EQ(sealed.num_nonempty_cells(), idx->num_nonempty_cells());

  random::Xoshiro256 rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const LatLon center{rng.NextUniform(box.min_lat, box.max_lat),
                        rng.NextUniform(box.min_lon, box.max_lon)};
    ExpectSamePoints(idx->QueryRadius(center, radius_m),
                     sealed.QueryRadius(center, radius_m));
    EXPECT_EQ(sealed.CountRadius(center, radius_m),
              idx->CountRadius(center, radius_m));
    EXPECT_EQ(sealed.CountDistinctIds(center, radius_m),
              HashDistinct(*idx, center, radius_m));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellAndRadius, SealedVsUnsealedTest,
    ::testing::Combine(::testing::Values(0.02, 0.05, 0.5),
                       ::testing::Values(500.0, 2000.0, 25000.0, 50000.0)));

TEST(SealedGridIndexTest, EmptyIndexSealsToEmpty) {
  const SealedGridIndex sealed = MustBuild(AustraliaBoundingBox(), 0.1, {});
  EXPECT_EQ(sealed.size(), 0u);
  EXPECT_EQ(sealed.num_nonempty_cells(), 0u);
  EXPECT_TRUE(sealed.QueryRadius(LatLon{-33.87, 151.21}, 50000.0).empty());
  EXPECT_EQ(sealed.CountRadius(LatLon{-33.87, 151.21}, 50000.0), 0u);
  EXPECT_EQ(sealed.CountDistinctIds(LatLon{-33.87, 151.21}, 50000.0), 0u);
}

TEST(SealedGridIndexTest, RadiusIsInclusiveOfBoundary) {
  const LatLon center{-33.0, 151.0};
  const LatLon at_radius = DestinationPoint(center, 90.0, 10000.0);
  const SealedGridIndex sealed =
      MustBuild(AustraliaBoundingBox(), 0.1, {IndexedPoint{at_radius, 1}});
  const double d = HaversineMeters(center, at_radius);
  EXPECT_EQ(sealed.CountRadius(center, d), 1u);
  EXPECT_EQ(sealed.CountRadius(center, d - 1.0), 0u);
}

TEST(SealedGridIndexTest, ClampedOutOfBoundsPointsKeepTrueCoordinates) {
  const BoundingBox bounds{-36.0, 148.0, -32.0, 153.0};
  const IndexedPoint outside{LatLon{-31.9, 150.0}, 99};
  const SealedGridIndex sealed = MustBuild(bounds, 0.1, {outside});
  auto found = sealed.QueryRadius(LatLon{-32.0, 150.0}, 20000.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 99u);
  EXPECT_EQ(found[0].pos, outside.pos);
  // Interior classification must use the cell's point bounding box, not its
  // geometric rect: a 12 km circle at -32.05 covers the whole top-row cell
  // geometrically, but the clamped point's true position (-31.9, ~16.7 km
  // away) is outside the radius and must not be counted.
  EXPECT_EQ(sealed.CountRadius(LatLon{-32.05, 150.0}, 12000.0), 0u);
}

TEST(SealedGridIndexTest, ProfileCountsAreConsistent) {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  auto idx = GridIndex::Create(box, 0.05);
  ASSERT_TRUE(idx.ok());
  const auto pts = RandomPoints(4000, 11, box);
  idx->InsertAll(pts);
  const SealedGridIndex sealed = MustBuild(box, 0.05, pts);

  RadiusQueryProfile profile;
  const LatLon center{-33.87, 151.21};
  const size_t count = sealed.CountRadiusProfiled(center, 50000.0, &profile);
  EXPECT_EQ(count, idx->CountRadius(center, 50000.0));
  EXPECT_EQ(profile.cells_interior + profile.cells_boundary,
            profile.cells_candidate);
  // A 50 km circle over 0.05° cells must consume whole interior cells.
  EXPECT_GT(profile.cells_interior, 0u);
  EXPECT_GE(count, profile.points_interior);
  // Every non-interior candidate point is distance-tested.
  EXPECT_GE(profile.points_tested + profile.points_interior, count);
}

TEST(SealedGridIndexTest, DistinctIdsMergesAcrossInteriorCells) {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  // The same id in many cells: distinct count must be 1 regardless of how
  // many interior/boundary cells the circle covers.
  std::vector<IndexedPoint> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(IndexedPoint{LatLon{-33.9 + (i % 20) * 0.01, 151.0 + (i / 20) * 0.01},
                               7});
  }
  const SealedGridIndex sealed = MustBuild(box, 0.05, pts);
  EXPECT_EQ(sealed.CountDistinctIds(LatLon{-33.8, 151.05}, 60000.0), 1u);
  EXPECT_EQ(sealed.CountDistinctIds(LatLon{-35.9, 148.1}, 100.0), 0u);
}

// ---------------------------------------------------------------------------
// The direct build (SealedGridIndex::Build) against the GridIndex reference
// loaded in the same order, at several pool sizes, each build member-wise
// equal to the serial one.

struct BuildInput {
  std::string name;
  BoundingBox bounds;
  double cell_deg = 0.05;
  std::vector<IndexedPoint> points;
};

std::vector<BuildInput> BuildInputs() {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  std::vector<BuildInput> inputs;
  // Enough points for several build chunks, clustered so cells fill up
  // across chunk boundaries.
  inputs.push_back({"random", box, 0.05, RandomPoints(40000, 5, box)});

  BuildInput clamped{"out of bounds", box, 0.05, RandomPoints(20000, 6, box)};
  random::Xoshiro256 rng(8);
  for (size_t i = 0; i < clamped.points.size(); i += 3) {
    clamped.points[i].pos = LatLon{rng.NextUniform(-40.0, -28.0),
                                   rng.NextUniform(140.0, 160.0)};
  }
  inputs.push_back(std::move(clamped));

  BuildInput edges{"cell edges", box, 0.25, {}};
  for (int r = 0; r <= 16; ++r) {
    for (int c = 0; c <= 20; ++c) {
      const LatLon corner{box.min_lat + r * 0.25, box.min_lon + c * 0.25};
      for (uint64_t k = 0; k < 30; ++k) {
        edges.points.push_back(IndexedPoint{corner, (r * 21 + c + k) % 97});
        edges.points.push_back(
            IndexedPoint{LatLon{corner.lat, box.min_lon + 0.1 + c * 0.25}, k});
      }
    }
  }
  inputs.push_back(std::move(edges));

  BuildInput duplicates{"duplicates", box, 0.05, {}};
  const LatLon spots[] = {{-33.87, 151.21}, {-33.87, 151.21}, {-34.5, 150.0},
                          {-33.0, 149.0}};
  for (size_t i = 0; i < 30000; ++i) {
    duplicates.points.push_back(IndexedPoint{spots[i % 4], (i / 7) % 40});
  }
  inputs.push_back(std::move(duplicates));

  inputs.push_back({"empty", box, 0.05, {}});

  // Four user-ascending "shards" of wide 64-bit ids, as compacted storage
  // hands them over: each cell's ids arrive as a few ascending runs, and
  // runs cross build-chunk boundaries.
  BuildInput shards{"user-ascending shards", box, 0.05, {}};
  for (int shard = 0; shard < 4; ++shard) {
    std::vector<uint64_t> users;
    for (int u = 0; u < 900; ++u) users.push_back(rng.Next() >> (shard == 0 ? 0 : 8));
    std::sort(users.begin(), users.end());
    for (const uint64_t user : users) {
      const LatLon home{-33.87 + rng.NextGaussian() * 0.3, 151.21 + rng.NextGaussian() * 0.3};
      for (uint64_t t = 0; t < 1 + user % 13; ++t) {
        shards.points.push_back(IndexedPoint{
            LatLon{home.lat + rng.NextGaussian() * 0.02, home.lon + rng.NextGaussian() * 0.02},
            user});
      }
    }
  }
  inputs.push_back(std::move(shards));

  // Enough distinct ids and cells that both sorted unions split into
  // several value ranges.
  BuildInput wide{"many ids and cells", box, 0.02, {}};
  for (int i = 0; i < 40000; ++i) {
    wide.points.push_back(IndexedPoint{
        LatLon{rng.NextUniform(-36.0, -32.0), rng.NextUniform(148.0, 153.0)},
        rng.NextUint64(40000) * 0x9E3779B97F4A7C15ULL});
  }
  inputs.push_back(std::move(wide));

  BuildInput one_cell{"single cell", box, 0.5, {}};
  for (size_t i = 0; i < 20000; ++i) {
    one_cell.points.push_back(IndexedPoint{
        LatLon{-33.9 + rng.NextUniform(0.0, 0.3), 151.0 + rng.NextUniform(0.0, 0.3)},
        rng.NextUint64(500)});
  }
  inputs.push_back(std::move(one_cell));

  // perf_spatial's point set at 100k points: 60% clustered around Sydney,
  // the rest across the continent, ~13 points per id.
  BuildInput clustered{"perf_spatial clustered", AustraliaBoundingBox(), 0.05, {}};
  random::Xoshiro256 perf_rng(7);
  const uint64_t num_ids = 100000 / 13;
  for (size_t i = 0; i < 100000; ++i) {
    const LatLon pos = perf_rng.NextBernoulli(0.6)
                           ? LatLon{-33.87 + perf_rng.NextGaussian() * 0.3,
                                    151.21 + perf_rng.NextGaussian() * 0.3}
                           : LatLon{perf_rng.NextUniform(-44.0, -10.0),
                                    perf_rng.NextUniform(113.0, 154.0)};
    clustered.points.push_back(IndexedPoint{pos, i % num_ids});
  }
  inputs.push_back(std::move(clustered));
  return inputs;
}

/// Every query of `built` equals the reference's, and the fused walk equals
/// the (CountRadius, CountDistinctIds) pair, at central Sydney (the
/// population queries' densest centre) and at 16 random centres.
void ExpectSameIndex(const GridIndex& reference, const SealedGridIndex& built,
                     const std::string& where) {
  EXPECT_EQ(built.size(), reference.size()) << where;
  EXPECT_EQ(built.num_nonempty_cells(), reference.num_nonempty_cells()) << where;
  random::Xoshiro256 rng(19);
  const BoundingBox& b = reference.bounds();
  std::vector<LatLon> centers = {LatLon{-33.8688, 151.2093}};
  for (int trial = 0; trial < 16; ++trial) {
    centers.push_back(LatLon{rng.NextUniform(b.min_lat - 1.0, b.max_lat + 1.0),
                             rng.NextUniform(b.min_lon - 1.0, b.max_lon + 1.0)});
  }
  for (const LatLon& center : centers) {
    for (const double radius_m : {500.0, 2000.0, 25000.0, 50000.0, 400000.0}) {
      SCOPED_TRACE(where + " radius " + std::to_string(radius_m));
      ExpectSamePoints(reference.QueryRadius(center, radius_m),
                       built.QueryRadius(center, radius_m));
      const size_t count = built.CountRadius(center, radius_m);
      const size_t distinct = built.CountDistinctIds(center, radius_m);
      EXPECT_EQ(count, reference.CountRadius(center, radius_m));
      EXPECT_EQ(distinct, HashDistinct(reference, center, radius_m));
      const RadiusCounts fused = built.CountRadiusAndDistinctIds(center, radius_m);
      EXPECT_EQ(fused.points, count);
      EXPECT_EQ(fused.distinct_ids, distinct);
    }
  }
}

TEST(SealedBuildTest, DirectBuildMatchesGridIndexAtEveryPoolSize) {
  for (const BuildInput& input : BuildInputs()) {
    auto reference = GridIndex::Create(input.bounds, input.cell_deg);
    ASSERT_TRUE(reference.ok());
    reference->InsertAll(input.points);
    auto serial = SealedGridIndex::Build(input.bounds, input.cell_deg, input.points);
    ASSERT_TRUE(serial.ok()) << input.name;
    ExpectSameIndex(*reference, *serial, input.name + ", no pool");
    for (const size_t threads : {1, 2, 3, 8}) {
      ThreadPool pool(threads);
      auto built =
          SealedGridIndex::Build(input.bounds, input.cell_deg, input.points, &pool);
      ASSERT_TRUE(built.ok()) << input.name;
      ExpectSameIndex(*reference, *built,
                      input.name + ", " + std::to_string(threads) + " threads");
      EXPECT_TRUE(*built == *serial) << input.name << ", " << threads << " threads";
    }
  }
}

TEST(SealedBuildTest, CellFedByDescendingRunsAndAnUnsortedTail) {
  // One cell, six ascending runs whose starts descend, then a shuffled
  // tail: the cell's unique list is merged from runs, never sorted.
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  random::Xoshiro256 rng(31);
  std::vector<IndexedPoint> pts;
  const auto in_cell = [&rng] {
    return LatLon{-33.9 + rng.NextUniform(0.0, 0.04), 151.0 + rng.NextUniform(0.0, 0.04)};
  };
  for (uint64_t run = 0; run < 6; ++run) {
    for (uint64_t id = 0; id < 40; ++id) {
      pts.push_back(IndexedPoint{in_cell(), (5 - run) * 30 + id * 3});
      pts.push_back(IndexedPoint{in_cell(), (5 - run) * 30 + id * 3});
    }
  }
  for (int i = 0; i < 300; ++i) pts.push_back(IndexedPoint{in_cell(), rng.NextUint64(400)});
  const SealedGridIndex sealed = MustBuild(box, 0.05, pts);
  ASSERT_EQ(sealed.num_nonempty_cells(), 1u);
  std::set<uint64_t> all;
  for (const IndexedPoint& p : pts) all.insert(p.id);
  EXPECT_EQ(sealed.num_distinct_ids(), all.size());
  std::vector<uint64_t> ids;
  EXPECT_EQ(sealed.CollectDistinctIds(LatLon{-33.88, 151.02}, 20000.0, &ids), pts.size());
  EXPECT_EQ(ids, std::vector<uint64_t>(all.begin(), all.end()));
  EXPECT_EQ(sealed.CountDistinctIds(LatLon{-33.88, 151.02}, 20000.0), all.size());
}

TEST(SealedBuildTest, ExtremeIdsAndASingleUser) {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const LatLon a{-33.87, 151.21};
  const LatLon b{-33.5, 150.5};
  const SealedGridIndex extremes = MustBuild(
      box, 0.05, {IndexedPoint{a, kMax}, IndexedPoint{a, 0}, IndexedPoint{b, kMax}});
  EXPECT_EQ(extremes.num_distinct_ids(), 2u);
  std::vector<uint64_t> ids;
  EXPECT_EQ(extremes.CollectDistinctIds(a, 100000.0, &ids), 3u);
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, kMax}));
  const std::vector<IndexedPoint> near_a = extremes.QueryRadius(a, 10.0);
  ASSERT_EQ(near_a.size(), 2u);
  EXPECT_EQ(near_a[0].id, kMax);  // input order within the cell
  EXPECT_EQ(near_a[1].id, 0u);
  EXPECT_EQ(extremes.CountRadiusAndDistinctIds(b, 10.0).distinct_ids, 1u);
  const std::vector<uint64_t> also{0, 5, kMax};
  EXPECT_EQ(extremes.CountRadiusAndDistinctIds(b, 10.0, &also).distinct_ids, 3u);

  std::vector<IndexedPoint> one_user;
  random::Xoshiro256 rng(47);
  for (int i = 0; i < 40000; ++i) {
    one_user.push_back(IndexedPoint{
        LatLon{rng.NextUniform(-36.0, -32.0), rng.NextUniform(148.0, 153.0)}, 42});
  }
  ThreadPool pool(3);
  auto single = SealedGridIndex::Build(box, 0.05, one_user, &pool);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->num_distinct_ids(), 1u);
  EXPECT_EQ(single->CountDistinctIds(a, 80000.0), 1u);
  EXPECT_EQ(single->CollectDistinctIds(a, 80000.0, &ids),
            single->CountRadius(a, 80000.0));
  EXPECT_EQ(ids, std::vector<uint64_t>{42});
}

// ---------------------------------------------------------------------------
// Dense ranks: every distinct answer against a std::set over QueryRadius.

/// CountDistinctIds, the fused walk and CollectDistinctIds of `index` at
/// (center, radius_m) all equal the std::set of QueryRadius's ids.
void ExpectDistinctMatchesSet(const SealedGridIndex& index, const LatLon& center,
                              double radius_m, const std::string& where) {
  SCOPED_TRACE(where);
  const std::vector<IndexedPoint> points = index.QueryRadius(center, radius_m);
  std::set<uint64_t> expected;
  for (const IndexedPoint& p : points) expected.insert(p.id);
  EXPECT_EQ(index.CountDistinctIds(center, radius_m), expected.size());
  const RadiusCounts fused = index.CountRadiusAndDistinctIds(center, radius_m);
  EXPECT_EQ(fused.points, points.size());
  EXPECT_EQ(fused.distinct_ids, expected.size());
  std::vector<uint64_t> ids;
  EXPECT_EQ(index.CollectDistinctIds(center, radius_m, &ids), points.size());
  EXPECT_EQ(ids, std::vector<uint64_t>(expected.begin(), expected.end()));
}

/// RandomPoints with wide 64-bit ids: 12,000 users, in random order.
std::vector<IndexedPoint> WideIdPoints(size_t n, uint64_t seed, const BoundingBox& box) {
  std::vector<IndexedPoint> pts = RandomPoints(n, seed, box);
  random::Xoshiro256 rng(seed + 1);
  std::vector<uint64_t> users(12000);
  for (uint64_t& user : users) user = rng.Next();
  for (IndexedPoint& p : pts) p.id = users[rng.NextUint64(users.size())];
  return pts;
}

TEST(RankPropertyTest, DistinctAnswersMatchSetAtRandomRadii) {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  const std::vector<IndexedPoint> pts = WideIdPoints(30000, 61, box);
  ThreadPool pool(3);
  auto sealed = SealedGridIndex::Build(box, 0.05, pts, &pool);
  ASSERT_TRUE(sealed.ok());
  random::Xoshiro256 rng(62);
  for (int trial = 0; trial < 60; ++trial) {
    const LatLon center{rng.NextUniform(-36.5, -31.5), rng.NextUniform(147.5, 153.5)};
    const double radius_m = rng.NextUniform(100.0, 120000.0);
    ExpectDistinctMatchesSet(*sealed, center, radius_m,
                             "trial " + std::to_string(trial));
  }
}

TEST(RankPropertyTest, EpsilonOnAPointEmptyOneCellAndManyCellDiscs) {
  const BoundingBox box{-36.0, 148.0, -32.0, 153.0};
  const std::vector<IndexedPoint> pts = WideIdPoints(30000, 71, box);
  const SealedGridIndex sealed = MustBuild(box, 0.05, pts);
  const LatLon sydney{-33.87, 151.21};

  // ε exactly on a point: the point is inside (inclusive radius).
  for (size_t k = 0; k < pts.size(); k += 5000) {
    const double radius_m = HaversineMeters(sydney, pts[k].pos);
    ExpectDistinctMatchesSet(sealed, sydney, radius_m, "on point " + std::to_string(k));
    std::vector<uint64_t> ids;
    sealed.CollectDistinctIds(sydney, radius_m, &ids);
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), pts[k].id)) << k;
  }

  // An empty disc, outside every point.
  ExpectDistinctMatchesSet(sealed, LatLon{-20.0, 130.0}, 1000.0, "empty");
  EXPECT_EQ(sealed.CountDistinctIds(LatLon{-20.0, 130.0}, 1000.0), 0u);

  // One cell, then many interior cells.
  RadiusQueryProfile one_cell;
  const LatLon mid_cell{-33.875, 151.225};
  sealed.CountRadiusProfiled(mid_cell, 300.0, &one_cell);
  EXPECT_EQ(one_cell.cells_candidate, 1u);
  ExpectDistinctMatchesSet(sealed, mid_cell, 300.0, "one cell");
  RadiusQueryProfile many;
  sealed.CountRadiusProfiled(sydney, 60000.0, &many);
  EXPECT_GT(many.cells_interior, 10u);
  ExpectDistinctMatchesSet(sealed, sydney, 60000.0, "many cells");
}

TEST(SealedBuildTest, RejectsInvalidGrids) {
  const std::vector<IndexedPoint> none;
  EXPECT_FALSE(SealedGridIndex::Build(AustraliaBoundingBox(), 0.0, none).ok());
  EXPECT_FALSE(
      SealedGridIndex::Build(BoundingBox{-30.0, 150.0, -35.0, 151.0}, 0.1, none).ok());
}

}  // namespace
}  // namespace twimob::geo
