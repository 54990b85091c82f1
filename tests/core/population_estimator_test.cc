#include "core/population_estimator.h"

#include <gtest/gtest.h>

#include "geo/geodesic.h"

namespace twimob::core {
namespace {

tweetdb::Tweet At(uint64_t user, const geo::LatLon& p, int64_t ts = 100) {
  return tweetdb::Tweet{user, ts, p};
}

TEST(PopulationEstimatorTest, CountsUniqueUsersNotTweets) {
  tweetdb::TweetTable table;
  const geo::LatLon sydney{-33.8688, 151.2093};
  // User 1 tweets three times near Sydney, user 2 once.
  ASSERT_TRUE(table.Append(At(1, sydney, 1)).ok());
  ASSERT_TRUE(table.Append(At(1, geo::DestinationPoint(sydney, 90, 500), 2)).ok());
  ASSERT_TRUE(table.Append(At(1, geo::DestinationPoint(sydney, 0, 900), 3)).ok());
  ASSERT_TRUE(table.Append(At(2, sydney, 4)).ok());
  // User 3 tweets in Perth.
  ASSERT_TRUE(table.Append(At(3, geo::LatLon{-31.95, 115.86}, 5)).ok());

  auto est = PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(table)));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->num_indexed_tweets(), 5u);
  EXPECT_EQ(est->CountUniqueUsers(sydney, 2000.0), 2u);
  EXPECT_EQ(est->CountTweets(sydney, 2000.0), 4u);
  EXPECT_EQ(est->CountUniqueUsers(geo::LatLon{-31.95, 115.86}, 2000.0), 1u);
  EXPECT_EQ(est->CountUniqueUsers(geo::LatLon{-20.0, 130.0}, 50000.0), 0u);
}

TEST(PopulationEstimatorTest, RadiusBoundaryInclusive) {
  tweetdb::TweetTable table;
  const geo::LatLon center{-33.0, 151.0};
  const geo::LatLon at_2km = geo::DestinationPoint(center, 45.0, 2000.0);
  ASSERT_TRUE(table.Append(At(1, at_2km)).ok());
  auto est = PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(table)));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->CountUniqueUsers(center, 2001.0), 1u);
  EXPECT_EQ(est->CountUniqueUsers(center, 1990.0), 0u);
}

TEST(PopulationEstimatorTest, EstimateValidatesSpec) {
  tweetdb::TweetTable table;
  ASSERT_TRUE(table.Append(At(1, geo::LatLon{-33.0, 151.0})).ok());
  auto est = PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(table)));
  ASSERT_TRUE(est.ok());
  ScaleSpec empty;
  EXPECT_TRUE(est->Estimate(empty).status().IsInvalidArgument());
  ScaleSpec bad_radius = MakeScaleSpec(census::Scale::kNational);
  bad_radius.radius_m = 0.0;
  EXPECT_TRUE(est->Estimate(bad_radius).status().IsInvalidArgument());
}

TEST(PopulationEstimatorTest, EstimateComputesRescaleAndCorrelation) {
  // Plant users proportional to census population at every national centre:
  // ceil(pop / 100000) users each.
  tweetdb::TweetTable table;
  uint64_t next_user = 1;
  const ScaleSpec spec = MakeScaleSpec(census::Scale::kNational);
  for (const census::Area& a : spec.areas) {
    const int users = static_cast<int>(a.population / 100000.0) + 1;
    for (int u = 0; u < users; ++u) {
      ASSERT_TRUE(table.Append(At(next_user++, a.center)).ok());
    }
  }
  auto est = PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(table)));
  ASSERT_TRUE(est.ok());
  auto result = est->Estimate(spec);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->areas.size(), 20u);
  EXPECT_EQ(result->scale_name, "National");
  // Near-exact proportionality -> r close to 1.
  EXPECT_GT(result->correlation.r, 0.999);
  EXPECT_LT(result->correlation.p_value, 1e-10);
  // The rescale factor maps total users to total census population.
  double total_users = 0.0, total_census = 0.0;
  for (const auto& a : result->areas) {
    total_users += static_cast<double>(a.unique_users);
    total_census += a.census_population;
    EXPECT_NEAR(a.rescaled_estimate,
                result->rescale_factor * static_cast<double>(a.unique_users),
                1e-9);
  }
  EXPECT_NEAR(result->rescale_factor, total_census / total_users, 1e-9);
  EXPECT_GT(result->median_users, 0.0);
}

TEST(PopulationEstimatorTest, PooledCorrelationAcrossScales) {
  PopulationEstimateResult a;
  a.areas.resize(3);
  a.areas[0] = {0, "x", 0, 10, 100.0, 100.0};
  a.areas[1] = {1, "y", 0, 20, 200.0, 200.0};
  a.areas[2] = {2, "z", 0, 30, 300.0, 300.0};
  PopulationEstimateResult b;
  b.areas.resize(3);
  b.areas[0] = {0, "p", 0, 1, 10.0, 11.0};
  b.areas[1] = {1, "q", 0, 2, 20.0, 19.0};
  b.areas[2] = {2, "r", 0, 3, 30.0, 31.0};
  auto pooled = PooledPopulationCorrelation({a, b});
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->n, 6u);
  EXPECT_GT(pooled->r, 0.99);
}

TEST(PopulationEstimatorTest, PooledCorrelationNeedsData) {
  EXPECT_FALSE(PooledPopulationCorrelation({}).ok());
}

}  // namespace
}  // namespace twimob::core
