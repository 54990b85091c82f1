#include "mobility/trip_extractor.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include <gtest/gtest.h>

#include "census/census_data.h"
#include "geo/geodesic.h"
#include "random/rng.h"

namespace twimob::mobility {
namespace {

std::vector<census::Area> TwoAreas() {
  std::vector<census::Area> areas(2);
  areas[0] = census::Area{0, "Alpha", geo::LatLon{-33.0, 151.0}, 1000.0};
  areas[1] = census::Area{1, "Beta", geo::LatLon{-37.0, 145.0}, 500.0};
  return areas;
}

tweetdb::Tweet At(uint64_t user, int64_t ts, const geo::LatLon& p) {
  return tweetdb::Tweet{user, ts, p};
}

TEST(AssignToAreaTest, NearestWithinRadiusWins) {
  const auto areas = TwoAreas();
  // Exactly at Alpha's centre.
  const AreaAssigner assigner(areas, 50000.0);
  auto a = assigner.Assign(geo::LatLon{-33.0, 151.0});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  // Far from both.
  EXPECT_FALSE(assigner.Assign(geo::LatLon{-20.0, 120.0}).has_value());
  // Slightly off Beta.
  auto b = assigner.Assign(geo::LatLon{-37.05, 145.02});
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 1u);
}

TEST(AssignToAreaTest, OverlappingAreasResolveToClosest) {
  std::vector<census::Area> areas(2);
  areas[0] = census::Area{0, "West", geo::LatLon{-33.0, 151.00}, 1.0};
  areas[1] = census::Area{1, "East", geo::LatLon{-33.0, 151.10}, 1.0};
  // Point slightly east of the midpoint with a radius covering both.
  auto got = AreaAssigner(areas, 50000.0).Assign(geo::LatLon{-33.0, 151.06});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

/// `rows` routed into `shards` equal time shards over [start, end) with
/// the given block capacity, each shard compacted by (user, time) unless
/// `compact` is false.
tweetdb::TweetDataset MakeDataset(const std::vector<tweetdb::Tweet>& rows,
                                  size_t shards, int64_t start, int64_t end,
                                  size_t block_capacity = tweetdb::kDefaultBlockCapacity,
                                  bool compact = true) {
  tweetdb::TweetDataset dataset(
      tweetdb::PartitionSpec::ForWindow(start, end, shards), block_capacity);
  for (const tweetdb::Tweet& t : rows) EXPECT_TRUE(dataset.Append(t).ok());
  dataset.SealAll();
  if (compact) dataset.CompactShards();
  return dataset;
}

/// `rows` as one compacted shard.
tweetdb::TweetDataset OneShard(const std::vector<tweetdb::Tweet>& rows) {
  return MakeDataset(rows, 1, 0, 1000000);
}

TEST(ExtractTripsTest, ValidatesArguments) {
  const tweetdb::TweetDataset dataset = OneShard({});
  ThreadPool pool(2);
  EXPECT_TRUE(ExtractTrips(dataset, {}, 1000.0, pool).status().IsInvalidArgument());
  EXPECT_TRUE(
      ExtractTrips(dataset, TwoAreas(), 0.0, pool).status().IsInvalidArgument());
  TripOptions bad;
  bad.max_gap_seconds = -1;
  EXPECT_TRUE(ExtractTrips(dataset, TwoAreas(), 50000.0, pool, nullptr, bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExtractTripsTest, CountsDirectedConsecutivePairs) {
  const auto areas = TwoAreas();
  const geo::LatLon alpha{-33.0, 151.0};
  const geo::LatLon beta{-37.0, 145.0};

  const tweetdb::TweetDataset dataset = OneShard({
      // User 1: alpha -> beta -> alpha  (trips: A->B, B->A)
      At(1, 100, alpha), At(1, 200, beta), At(1, 300, alpha),
      // User 2: beta -> beta (intra-area, no trip), then alpha (B->A).
      At(2, 100, beta), At(2, 150, beta), At(2, 400, alpha)});

  ThreadPool pool(2);
  ExtractionStats stats;
  auto od = ExtractTrips(dataset, areas, 50000.0, pool, &stats);
  ASSERT_TRUE(od.ok());
  EXPECT_DOUBLE_EQ(od->Flow(0, 1), 1.0);  // A->B from user 1
  EXPECT_DOUBLE_EQ(od->Flow(1, 0), 2.0);  // B->A from users 1 and 2
  EXPECT_EQ(stats.tweets_seen, 6u);
  EXPECT_EQ(stats.tweets_in_some_area, 6u);
  EXPECT_EQ(stats.consecutive_pairs, 4u);
  EXPECT_EQ(stats.inter_area_trips, 3u);
  EXPECT_EQ(stats.intra_area_pairs, 1u);
}

TEST(ExtractTripsTest, UserBoundaryPairsDoNotCount) {
  // User 1 ends at alpha; user 2 begins at beta — must not count as a trip.
  const tweetdb::TweetDataset dataset = OneShard(
      {At(1, 100, geo::LatLon{-33.0, 151.0}), At(2, 200, geo::LatLon{-37.0, 145.0})});
  ThreadPool pool(2);
  auto od = ExtractTrips(dataset, TwoAreas(), 50000.0, pool);
  ASSERT_TRUE(od.ok());
  EXPECT_DOUBLE_EQ(od->TotalFlow(), 0.0);
}

TEST(ExtractTripsTest, TweetsOutsideAllAreasBreakChains) {
  // alpha -> nowhere -> beta: neither consecutive pair maps to two areas.
  const tweetdb::TweetDataset dataset = OneShard({At(1, 100, geo::LatLon{-33.0, 151.0}),
                                                  At(1, 200, geo::LatLon{-20.0, 120.0}),
                                                  At(1, 300, geo::LatLon{-37.0, 145.0})});
  ThreadPool pool(2);
  ExtractionStats stats;
  auto od = ExtractTrips(dataset, TwoAreas(), 50000.0, pool, &stats);
  ASSERT_TRUE(od.ok());
  EXPECT_DOUBLE_EQ(od->TotalFlow(), 0.0);
  EXPECT_EQ(stats.tweets_in_some_area, 2u);
  EXPECT_EQ(stats.consecutive_pairs, 2u);
}

TEST(ExtractTripsTest, RadiusControlsAssignment) {
  const auto areas = TwoAreas();
  // ~11 km east of Alpha's centre.
  const tweetdb::TweetDataset dataset = OneShard(
      {At(1, 100, geo::LatLon{-33.0, 151.12}), At(1, 200, geo::LatLon{-37.0, 145.0})});
  ThreadPool pool(2);

  auto wide = ExtractTrips(dataset, areas, 25000.0, pool);
  ASSERT_TRUE(wide.ok());
  EXPECT_DOUBLE_EQ(wide->Flow(0, 1), 1.0);

  auto narrow = ExtractTrips(dataset, areas, 2000.0, pool);
  ASSERT_TRUE(narrow.ok());
  EXPECT_DOUBLE_EQ(narrow->TotalFlow(), 0.0);
}

// The extractor's edge cases at one shard and at three time shards (users
// whose runs continue across shard boundaries).
class ExtractTripsShardsTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, ExtractTripsShardsTest, ::testing::Values(1, 3));

TEST_P(ExtractTripsShardsTest, RequiresCompactedInput) {
  const tweetdb::TweetDataset dataset =
      MakeDataset({At(2, 1, geo::LatLon{-33.0, 151.0}),
                   At(1, 900, geo::LatLon{-37.0, 145.0})},
                  GetParam(), 0, 1000, tweetdb::kDefaultBlockCapacity,
                  /*compact=*/false);
  ThreadPool pool(2);
  EXPECT_TRUE(ExtractTrips(dataset, TwoAreas(), 50000.0, pool)
                  .status()
                  .IsFailedPrecondition());
}

TEST_P(ExtractTripsShardsTest, MaxGapFiltersStaleTransitions) {
  const auto areas = TwoAreas();
  const geo::LatLon alpha{-33.0, 151.0};
  const geo::LatLon beta{-37.0, 145.0};
  // Quick hop (1 h apart) then a stale transition (40 days apart).
  const int64_t stale = 3600 + 40 * 86400;
  const tweetdb::TweetDataset dataset =
      MakeDataset({At(1, 0, alpha), At(1, 3600, beta), At(1, stale, alpha)},
                  GetParam(), 0, stale + 1, /*block_capacity=*/2);

  TripOptions day_cap;
  day_cap.max_gap_seconds = 86400;
  ThreadPool pool(3);
  ExtractionStats stats;
  auto od = ExtractTrips(dataset, areas, 50000.0, pool, &stats, day_cap);
  ASSERT_TRUE(od.ok());
  EXPECT_DOUBLE_EQ(od->Flow(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(od->Flow(1, 0), 0.0);  // stale pair dropped
  EXPECT_EQ(stats.gap_filtered_pairs, 1u);

  // Default (unlimited gap) keeps both — the paper's definition.
  auto unlimited = ExtractTrips(dataset, areas, 50000.0, pool);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_DOUBLE_EQ(unlimited->Flow(1, 0), 1.0);
}

TEST_P(ExtractTripsShardsTest, RunSpanningManyBlocksStaysWithOwner) {
  const auto areas = TwoAreas();
  const geo::LatLon alpha{-33.0, 151.0};
  const geo::LatLon beta{-37.0, 145.0};

  // Block capacity 2: user 1's alternating run covers four blocks (and, at
  // three shards, all three shards); user 2 starts mid-block. The trips
  // across every block and shard boundary must count exactly once.
  std::vector<tweetdb::Tweet> rows;
  for (int k = 0; k < 7; ++k) rows.push_back(At(1, 100 * k, k % 2 == 0 ? alpha : beta));
  rows.push_back(At(2, 100, beta));
  rows.push_back(At(2, 200, alpha));
  const tweetdb::TweetDataset dataset =
      MakeDataset(rows, GetParam(), 0, 700, /*block_capacity=*/2);
  ASSERT_GE(dataset.num_blocks(), 4u);
  ASSERT_EQ(dataset.num_shards(), GetParam());

  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ExtractionStats stats;
    auto od = ExtractTrips(dataset, areas, 50000.0, pool, &stats);
    ASSERT_TRUE(od.ok());
    EXPECT_DOUBLE_EQ(od->Flow(0, 1), 3.0);  // user 1: A->B x3
    EXPECT_DOUBLE_EQ(od->Flow(1, 0), 4.0);  // user 1: B->A x3, user 2: x1
    EXPECT_EQ(stats.tweets_seen, 9u);
    EXPECT_EQ(stats.consecutive_pairs, 7u);
    EXPECT_EQ(stats.inter_area_trips, 7u);
  }
}

/// Reference assignment with no prefilters: nearest centre within radius,
/// first index winning ties (strict `<`), exactly AreaAssigner's contract.
std::optional<size_t> BruteAssign(const geo::LatLon& pos,
                                  const std::vector<census::Area>& areas,
                                  double radius_m) {
  double best = std::numeric_limits<double>::infinity();
  std::optional<size_t> best_idx;
  for (size_t i = 0; i < areas.size(); ++i) {
    const double d = geo::HaversineMeters(pos, areas[i].center);
    if (d <= radius_m && d < best) {
      best = d;
      best_idx = i;
    }
  }
  return best_idx;
}

TEST(AreaAssignerTest, EmptyAreaListAssignsNothing) {
  const AreaAssigner assigner({}, 1000.0);
  EXPECT_EQ(assigner.num_areas(), 0u);
  EXPECT_FALSE(assigner.Assign(geo::LatLon{-33.8, 151.2}).has_value());
}

TEST(AreaAssignerTest, IdenticalCentresTieToTheLowestIndex) {
  // Every point is exactly equidistant from two centres at the same
  // coordinates, so the strict `d < best` keeps the first.
  std::vector<census::Area> areas(2);
  areas[0] = census::Area{0, "First", geo::LatLon{-33.9, 151.1}, 1.0};
  areas[1] = census::Area{1, "Second", geo::LatLon{-33.9, 151.1}, 1.0};
  const AreaAssigner assigner(areas, 500000.0);
  EXPECT_EQ(assigner.Assign(geo::LatLon{-33.8, 151.2}), std::optional<size_t>(0));
  EXPECT_EQ(assigner.Assign(areas[1].center), std::optional<size_t>(0));
}

TEST(AreaAssignerTest, CentresAssignToThemselves) {
  for (const census::Scale scale : census::kAllScales) {
    const std::vector<census::Area>& areas = census::AreasForScale(scale);
    for (const double radius_m : {2000.0, 25000.0, 50000.0}) {
      const AreaAssigner assigner(areas, radius_m);
      for (size_t i = 0; i < areas.size(); ++i) {
        EXPECT_EQ(assigner.Assign(areas[i].center), std::optional<size_t>(i))
            << areas[i].name << " at " << radius_m << " m";
      }
    }
  }
}

TEST(AreaAssignerTest, PrefiltersNeverChangeTheAssignment) {
  random::Xoshiro256 rng(99);
  // 300 areas are too many for one-byte verdicts: every point takes the
  // exact path.
  for (const size_t num_areas : {40, 300}) {
    std::vector<census::Area> areas;
    for (size_t i = 0; i < num_areas; ++i) {
      areas.push_back(census::Area{static_cast<uint32_t>(i), "A",
                                   geo::LatLon{rng.NextUniform(-38.0, -30.0),
                                               rng.NextUniform(145.0, 153.0)},
                                   100.0});
    }
    for (const double radius_m : {2000.0, 50000.0, 400000.0}) {
      const AreaAssigner assigner(areas, radius_m);
      EXPECT_EQ(assigner.verdict_stats().bytes == 0, num_areas == 300);
      for (int trial = 0; trial < 300; ++trial) {
        const geo::LatLon p{rng.NextUniform(-40.0, -28.0),
                            rng.NextUniform(143.0, 155.0)};
        EXPECT_EQ(assigner.Assign(p), BruteAssign(p, areas, radius_m))
            << p.ToString() << " r=" << radius_m << " areas=" << num_areas;
      }
    }
  }
}

TEST(AreaAssignerTest, PointExactlyAtRadiusIsAssigned) {
  const auto areas = TwoAreas();
  const geo::LatLon at_radius =
      geo::DestinationPoint(areas[0].center, 45.0, 10000.0);
  const double d = geo::HaversineMeters(at_radius, areas[0].center);
  const AreaAssigner assigner(areas, d);
  const auto got = assigner.Assign(at_radius);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0u);
  EXPECT_FALSE(AreaAssigner(areas, d - 1.0).Assign(at_radius).has_value());
}

/// The candidate grid never changes an answer: AreaAssigner::Assign equals
/// BruteAssign at the three paper scales and at radii of 500 m and 400 km,
/// on random points and on the points where a grid could go wrong.
TEST(AreaAssignerTest, CandidateGridMatchesBruteForce) {
  random::Xoshiro256 rng(2015);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  size_t checked = 0;
  for (const census::Scale scale : census::kAllScales) {
    // The scale's centres plus two copies of its first centre (exactly
    // equidistant from everything: the lowest index must win) and two
    // centres mirrored in longitude about a third point.
    std::vector<census::Area> areas = census::AreasForScale(scale);
    const geo::LatLon first = areas[0].center;
    const geo::LatLon mid{areas[1].center.lat, areas[1].center.lon + 0.3};
    areas.push_back(census::Area{900, "Copy", first, 1.0});
    areas.push_back(census::Area{901, "West", geo::LatLon{mid.lat, mid.lon - 0.003}, 1.0});
    areas.push_back(census::Area{902, "East", geo::LatLon{mid.lat, mid.lon + 0.003}, 1.0});

    for (const double radius_m :
         {census::DefaultSearchRadiusMeters(scale), 500.0, 400000.0}) {
      const AreaAssigner assigner(areas, radius_m);
      EXPECT_LE(assigner.grid_bytes(), kMaxAssignerGridBytes);
      const geo::BoundingBox box = assigner.grid_box();
      const double cell = assigner.grid_cell_deg();

      std::vector<geo::LatLon> points;
      for (int i = 0; i < 3000; ++i) {
        points.push_back(geo::LatLon{rng.NextUniform(-46.0, -8.0),
                                     rng.NextUniform(110.0, 156.0)});
      }
      for (const census::Area& a : areas) {
        for (double bearing = 0.0; bearing < 360.0; bearing += 22.5) {
          // Exactly at ε (up to the destination formula's rounding), and
          // just inside and outside.
          for (const double scale_eps : {1.0, 0.999, 0.99997, 1.0003, 1.001}) {
            points.push_back(
                geo::DestinationPoint(a.center, bearing, radius_m * scale_eps));
          }
        }
        // Jittered points near the centre, where neighbours compete.
        for (int i = 0; i < 20; ++i) {
          points.push_back(geo::LatLon{a.center.lat + rng.NextUniform(-0.5, 0.5),
                                       a.center.lon + rng.NextUniform(-0.5, 0.5)});
        }
      }
      points.push_back(mid);  // equidistant from West and East
      points.push_back(first);
      // Cell edges and the box's edges, exactly and one ulp either side.
      if (std::isfinite(box.min_lat) && std::isfinite(box.min_lon)) {
        const uint64_t rows = 1 + static_cast<uint64_t>((box.max_lat - box.min_lat) / cell);
        const uint64_t cols = 1 + static_cast<uint64_t>((box.max_lon - box.min_lon) / cell);
        for (int k = 0; k < 200; ++k) {
          const double lat = box.min_lat + cell * static_cast<double>(rng.NextUint64(rows));
          const double lon = box.min_lon + cell * static_cast<double>(rng.NextUint64(cols));
          for (const double dlat : {-1.0, 0.0, 1.0}) {
            points.push_back(geo::LatLon{std::nextafter(lat, lat + dlat), lon});
            points.push_back(geo::LatLon{lat, std::nextafter(lon, lon + dlat)});
          }
        }
        for (const double lat : {box.min_lat, box.max_lat}) {
          for (const double lon : {box.min_lon, box.max_lon}) {
            for (const double step : {-1.0, 1.0}) {
              points.push_back(geo::LatLon{lat, lon});
              points.push_back(geo::LatLon{std::nextafter(lat, lat + step), lon});
              points.push_back(geo::LatLon{lat, std::nextafter(lon, lon + step)});
            }
            points.push_back(geo::LatLon{lat, rng.NextUniform(box.min_lon, box.max_lon)});
            points.push_back(geo::LatLon{rng.NextUniform(box.min_lat, box.max_lat), lon});
          }
        }
      }
      // Outside the grid, and NaN coordinates.
      points.push_back(geo::LatLon{10.0, 0.0});
      points.push_back(geo::LatLon{-89.0, -170.0});
      points.push_back(geo::LatLon{kNaN, first.lon});
      points.push_back(geo::LatLon{first.lat, kNaN});
      points.push_back(geo::LatLon{kNaN, kNaN});

      for (const geo::LatLon& p : points) {
        ASSERT_EQ(assigner.Assign(p), BruteAssign(p, areas, radius_m))
            << census::ScaleName(scale) << " r=" << radius_m << " at "
            << p.ToString();
        ++checked;
      }
      EXPECT_EQ(assigner.Assign(first), std::optional<size_t>(0));
      EXPECT_EQ(assigner.Assign(mid), std::optional<size_t>(areas.size() - 2));
      EXPECT_FALSE(assigner.Assign(geo::LatLon{kNaN, first.lon}).has_value());
    }
  }
  EXPECT_GT(checked, 30000u);
}

/// The last double along `step` (a unit change of latitude or longitude
/// from `c`) whose point is still within `radius_m` of `c`, and the next
/// one, which is not: the exact ε threshold of HaversineMeters.
std::pair<geo::LatLon, geo::LatLon> ThresholdPair(const geo::LatLon& c, double radius_m,
                                                  double dlat, double dlon) {
  const auto at = [&](double t) { return geo::LatLon{c.lat + dlat * t, c.lon + dlon * t}; };
  double in = 0.0;
  double out = 2.0 * radius_m / geo::MetersPerDegreeLon(std::fabs(c.lat) + 2.0);
  while (std::nextafter(in, out) < out) {
    const double mid = in + (out - in) / 2.0;
    if (mid <= in || mid >= out) break;
    (geo::HaversineMeters(at(mid), c) <= radius_m ? in : out) = mid;
  }
  return {at(in), at(out)};
}

/// Every verdict the assigner decides without a distance holds on its whole
/// leaf: at the three paper scales and at 500 m and 400 km, a lattice of
/// points of every decided leaf — its corners, edge midpoints and centre —
/// and points one ulp outside its corners assign as BruteAssign does, and
/// as the leaf says. Points exactly at ε from a centre (the last double
/// within and the first beyond), equidistant centres and NaN match too.
TEST(AreaAssignerTest, DecidedLeavesMatchBruteForce) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  size_t leaves = 0;
  for (const census::Scale scale : census::kAllScales) {
    std::vector<census::Area> areas = census::AreasForScale(scale);
    const geo::LatLon first = areas[0].center;
    const geo::LatLon mid{areas[1].center.lat, areas[1].center.lon + 0.3};
    areas.push_back(census::Area{900, "Copy", first, 1.0});
    areas.push_back(census::Area{901, "West", geo::LatLon{mid.lat, mid.lon - 0.003}, 1.0});
    areas.push_back(census::Area{902, "East", geo::LatLon{mid.lat, mid.lon + 0.003}, 1.0});
    for (const double radius_m :
         {census::DefaultSearchRadiusMeters(scale), 500.0, 400000.0}) {
      const AreaAssigner assigner(areas, radius_m);
      const AssignerVerdictStats& stats = assigner.verdict_stats();
      EXPECT_LE(stats.bytes, kMaxAssignerGridBytes);
      EXPECT_GT(stats.area_leaves, 0u) << census::ScaleName(scale) << " r=" << radius_m;
      EXPECT_GT(stats.empty_leaves, 0u) << census::ScaleName(scale) << " r=" << radius_m;
      const auto check = [&](const geo::LatLon& p, std::optional<size_t> want) {
        ASSERT_EQ(BruteAssign(p, areas, radius_m), want)
            << census::ScaleName(scale) << " r=" << radius_m << " at " << p.ToString();
        ASSERT_EQ(assigner.Assign(p), want)
            << census::ScaleName(scale) << " r=" << radius_m << " at " << p.ToString();
      };
      assigner.ForEachDecidedLeaf([&](const geo::BoundingBox& box, std::optional<size_t> area) {
        ++leaves;
        const double lat_mid = box.min_lat + (box.max_lat - box.min_lat) / 2.0;
        const double lon_mid = box.min_lon + (box.max_lon - box.min_lon) / 2.0;
        for (const double lat : {box.min_lat, lat_mid, box.max_lat}) {
          for (const double lon : {box.min_lon, lon_mid, box.max_lon}) {
            check(geo::LatLon{lat, lon}, area);
          }
        }
        for (const double lat :
             {std::nextafter(box.min_lat, -kInf), std::nextafter(box.max_lat, kInf)}) {
          for (const double lon :
               {std::nextafter(box.min_lon, -kInf), std::nextafter(box.max_lon, kInf)}) {
            check(geo::LatLon{lat, lon}, area);
          }
        }
      });
      // The ε threshold of every centre, along its meridian and parallel.
      for (const census::Area& a : areas) {
        for (const auto& [dlat, dlon] : {std::pair{1.0, 0.0}, std::pair{-1.0, 0.0},
                                         std::pair{0.0, 1.0}, std::pair{0.0, -1.0}}) {
          const auto [in, out] = ThresholdPair(a.center, radius_m, dlat, dlon);
          ASSERT_LE(geo::HaversineMeters(in, a.center), radius_m);
          ASSERT_GT(geo::HaversineMeters(out, a.center), radius_m);
          for (const geo::LatLon& p : {in, out}) check(p, BruteAssign(p, areas, radius_m));
        }
      }
      check(first, 0);                     // on two identical centres
      check(mid, areas.size() - 2);        // equidistant from West and East
      check(geo::LatLon{kNaN, first.lon}, std::nullopt);
      check(geo::LatLon{first.lat, kNaN}, std::nullopt);
    }
  }
  EXPECT_GT(leaves, 10000u);
}

TEST(AreaAssignerTest, CentresAcrossTheEquatorMatchBruteForce) {
  // Pairs straddling the equator: the mean latitude of a point and a
  // centre in opposite hemispheres can be 0 (cosine 1).
  random::Xoshiro256 rng(77);
  std::vector<census::Area> areas;
  for (uint32_t i = 0; i < 12; ++i) {
    areas.push_back(census::Area{i, "E",
                                 geo::LatLon{rng.NextUniform(-0.3, 0.3),
                                             rng.NextUniform(100.0, 103.0)},
                                 1.0});
  }
  for (const double radius_m : {2000.0, 50000.0}) {
    const AreaAssigner assigner(areas, radius_m);
    for (int trial = 0; trial < 4000; ++trial) {
      const geo::LatLon p{rng.NextUniform(-0.8, 0.8), rng.NextUniform(99.5, 103.5)};
      ASSERT_EQ(assigner.Assign(p), BruteAssign(p, areas, radius_m))
          << p.ToString() << " r=" << radius_m;
    }
    for (const census::Area& a : areas) {
      for (double bearing = 0.0; bearing < 360.0; bearing += 10.0) {
        for (const double scale_eps : {0.99997, 1.0003}) {
          const geo::LatLon p =
              geo::DestinationPoint(a.center, bearing, radius_m * scale_eps);
          ASSERT_EQ(assigner.Assign(p), BruteAssign(p, areas, radius_m))
              << p.ToString() << " r=" << radius_m;
        }
      }
    }
  }
}

}  // namespace
}  // namespace twimob::mobility
