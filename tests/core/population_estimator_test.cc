#include "core/population_estimator.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "geo/geodesic.h"
#include "random/rng.h"

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

/// Tweets by users [first, first + count) around Sydney, in random order.
tweetdb::TweetDataset UserRange(uint64_t first, uint64_t count, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  std::vector<tweetdb::Tweet> tweets;
  for (uint64_t user = first; user < first + count; ++user) {
    const geo::LatLon home{-33.87 + rng.NextGaussian() * 0.4,
                           151.21 + rng.NextGaussian() * 0.4};
    for (int t = 0; t < 4; ++t) {
      tweets.push_back(At(user * 0x9E3779B97F4A7C15ULL,
                          geo::LatLon{home.lat + rng.NextGaussian() * 0.05,
                                      home.lon + rng.NextGaussian() * 0.05},
                          static_cast<int64_t>(rng.NextUint64(100000))));
    }
  }
  for (size_t i = tweets.size(); i > 1; --i) {
    std::swap(tweets[i - 1], tweets[rng.NextUint64(i)]);
  }
  tweetdb::TweetTable table;
  for (const tweetdb::Tweet& t : tweets) EXPECT_TRUE(table.Append(t).ok());
  return tweetdb::TweetDataset::FromTable(std::move(table));
}

// A layered estimator (a snapshot's runs) whose later layers hold both new
// users and users an earlier layer already holds: its counts and user
// lists equal a std::set over every stored row within the radius.
TEST(PopulationEstimatorTest, LayeredCountsMatchSetOverAllLayers) {
  std::vector<tweetdb::TweetDataset> rows;
  rows.push_back(UserRange(1, 400, 1));    // the base
  rows.push_back(UserRange(350, 100, 2));  // 50 seen, 50 new
  rows.push_back(UserRange(420, 60, 3));   // seen in the base and layer 1, new
  ThreadPool pool(3);
  std::vector<PopulationEstimator> layers;
  for (const tweetdb::TweetDataset& r : rows) {
    auto built = PopulationEstimator::Build(r, &pool);
    ASSERT_TRUE(built.ok());
    layers.push_back(std::move(*built));
  }
  const PopulationEstimator layered =
      PopulationEstimator::Layered({&layers[0], &layers[1], &layers[2]});
  random::Xoshiro256 rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const geo::LatLon center{-33.87 + rng.NextUniform(-0.6, 0.6),
                             151.21 + rng.NextUniform(-0.6, 0.6)};
    const double radius_m = rng.NextUniform(200.0, 60000.0);
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::set<uint64_t> users;
    size_t tweets = 0;
    for (const tweetdb::TweetDataset& r : rows) {
      r.ForEachRow([&](const tweetdb::Tweet& t) {
        if (geo::HaversineMeters(center, t.pos) > radius_m) return;
        ++tweets;
        users.insert(t.user_id);
      });
    }
    const geo::RadiusCounts counts = layered.CountTweetsAndUsers(center, radius_m);
    EXPECT_EQ(counts.points, tweets);
    EXPECT_EQ(counts.distinct_ids, users.size());
    EXPECT_EQ(layered.CountUniqueUsers(center, radius_m), users.size());
    std::vector<uint64_t> collected;
    EXPECT_EQ(layered.CollectUsers(center, radius_m, &collected), tweets);
    EXPECT_EQ(collected, std::vector<uint64_t>(users.begin(), users.end()));
  }
}

// The single-scale Estimate is EstimateScales over one scale: the one loop
// over every (scale, area) pair gives each scale's per-scale answer, with
// and without a pool.
TEST(PopulationEstimatorTest, EstimateScalesMatchesEachScaleAlone) {
  auto est = PopulationEstimator::Build(UserRange(1, 2000, 4));
  ASSERT_TRUE(est.ok());
  std::vector<ScaleSpec> specs;
  for (const census::Scale scale : census::kAllScales) {
    specs.push_back(MakeScaleSpec(scale));
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::vector<std::vector<uint64_t>>> all_users;
    auto all = est->EstimateScales(specs, p, &all_users);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), specs.size());
    ASSERT_EQ(all_users.size(), specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      std::vector<std::vector<uint64_t>> users;
      auto one = est->Estimate(specs[s], nullptr, &users);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(users, all_users[s]);
      ASSERT_EQ((*all)[s].areas.size(), one->areas.size());
      for (size_t i = 0; i < one->areas.size(); ++i) {
        EXPECT_EQ((*all)[s].areas[i].unique_users, one->areas[i].unique_users);
        EXPECT_EQ((*all)[s].areas[i].tweet_count, one->areas[i].tweet_count);
        EXPECT_EQ((*all)[s].areas[i].unique_users, users[i].size());
      }
      EXPECT_EQ((*all)[s].rescale_factor, one->rescale_factor);
      EXPECT_EQ((*all)[s].median_users, one->median_users);
    }
  }
  std::vector<ScaleSpec> with_empty = specs;
  with_empty.push_back(ScaleSpec{});
  EXPECT_TRUE(est->EstimateScales(with_empty).status().IsInvalidArgument());
}

}  // namespace
}  // namespace twimob::core
