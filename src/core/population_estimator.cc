#include "core/population_estimator.h"

#include <algorithm>
#include <utility>

#include "geo/bbox.h"
#include "stats/descriptive.h"

namespace twimob::core {

namespace {
// ~5.5 km cells: radius queries at the paper's ε values touch a handful of
// cells while city-sized queries stay bounded.
constexpr double kIndexCellDegrees = 0.05;
}  // namespace

Result<PopulationEstimator> PopulationEstimator::Build(
    const tweetdb::TweetDataset& dataset, ThreadPool* pool,
    tweetdb::ScanStatistics* scan_stats) {
  // Bounds: the Australian study box, extended to cover stray points so no
  // tweet is clamped into a wrong cell's neighbourhood.
  geo::BoundingBox bounds = geo::AustraliaBoundingBox();

  if (pool != nullptr && dataset.fully_sealed()) {
    // (shard, block)-parallel gather into per-global-block buffers; the
    // merge walks global blocks in order, so the index contents are fixed
    // for any thread count.
    const size_t num_blocks = dataset.num_blocks();
    std::vector<std::vector<geo::IndexedPoint>> per_block(num_blocks);
    std::vector<geo::BoundingBox> per_block_bounds(num_blocks, bounds);
    const tweetdb::ScanSpec match_all;
    tweetdb::ScanStatistics stats = tweetdb::ParallelScanDataset(
        dataset, match_all, *pool,
        [&per_block, &per_block_bounds](size_t b, const tweetdb::Tweet& t) {
          per_block[b].push_back(geo::IndexedPoint{t.pos, t.user_id});
          per_block_bounds[b].ExtendToInclude(t.pos);
        });
    if (scan_stats != nullptr) *scan_stats = stats;

    for (const geo::BoundingBox& bb : per_block_bounds) {
      bounds.ExtendToInclude(geo::LatLon{bb.min_lat, bb.min_lon});
      bounds.ExtendToInclude(geo::LatLon{bb.max_lat, bb.max_lon});
    }
    auto index = geo::GridIndex::Create(bounds, kIndexCellDegrees);
    if (!index.ok()) return index.status();
    geo::GridIndex grid = std::move(*index);
    for (const std::vector<geo::IndexedPoint>& points : per_block) {
      grid.InsertAll(points);
    }
    return PopulationEstimator(std::make_unique<geo::SealedGridIndex>(grid.Seal()));
  }

  dataset.ForEachRow(
      [&bounds](const tweetdb::Tweet& t) { bounds.ExtendToInclude(t.pos); });
  auto index = geo::GridIndex::Create(bounds, kIndexCellDegrees);
  if (!index.ok()) return index.status();
  geo::GridIndex grid = std::move(*index);
  dataset.ForEachRow([&grid](const tweetdb::Tweet& t) {
    grid.Insert(geo::IndexedPoint{t.pos, t.user_id});
  });
  if (scan_stats != nullptr) {
    *scan_stats = tweetdb::ScanStatistics{};
    scan_stats->blocks_total = dataset.num_blocks();
    scan_stats->rows_scanned = dataset.num_rows();
    scan_stats->rows_matched = dataset.num_rows();
  }
  return PopulationEstimator(std::make_unique<geo::SealedGridIndex>(grid.Seal()));
}

size_t PopulationEstimator::CountUniqueUsers(const geo::LatLon& center,
                                             double radius_m) const {
  return index_->CountDistinctIds(center, radius_m);
}

size_t PopulationEstimator::CountTweets(const geo::LatLon& center,
                                        double radius_m) const {
  return index_->CountRadius(center, radius_m);
}

Result<PopulationEstimateResult> PopulationEstimator::Estimate(
    const ScaleSpec& spec, ThreadPool* pool) const {
  if (spec.areas.empty()) {
    return Status::InvalidArgument("Estimate: scale spec has no areas");
  }
  if (!(spec.radius_m > 0.0)) {
    return Status::InvalidArgument("Estimate: radius must be positive");
  }

  // Per-area counts, into per-area slots when a pool is supplied; the
  // aggregation below runs in area order either way, so the parallel and
  // serial paths agree exactly.
  const size_t n = spec.areas.size();
  std::vector<size_t> unique_users(n, 0);
  std::vector<size_t> tweet_counts(n, 0);
  auto count_area = [this, &spec, &unique_users, &tweet_counts](size_t i) {
    unique_users[i] = CountUniqueUsers(spec.areas[i].center, spec.radius_m);
    tweet_counts[i] = CountTweets(spec.areas[i].center, spec.radius_m);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, count_area);
  } else {
    for (size_t i = 0; i < n; ++i) count_area(i);
  }

  return AssemblePopulationEstimate(spec, unique_users, tweet_counts);
}

Result<PopulationEstimateResult> AssemblePopulationEstimate(
    const ScaleSpec& spec, const std::vector<size_t>& unique_users,
    const std::vector<size_t>& tweet_counts) {
  const size_t n = spec.areas.size();
  if (unique_users.size() != n || tweet_counts.size() != n) {
    return Status::InvalidArgument(
        "AssemblePopulationEstimate: count vectors must parallel spec.areas");
  }
  PopulationEstimateResult result;
  result.scale_name = spec.name;
  result.radius_m = spec.radius_m;

  double total_users = 0.0;
  double total_census = 0.0;
  std::vector<double> users_vec, census_vec;
  for (size_t i = 0; i < n; ++i) {
    const census::Area& area = spec.areas[i];
    AreaPopulationEstimate est;
    est.area_id = area.id;
    est.name = area.name;
    est.unique_users = unique_users[i];
    est.tweet_count = tweet_counts[i];
    est.census_population = area.population;
    result.areas.push_back(std::move(est));

    total_users += static_cast<double>(unique_users[i]);
    total_census += area.population;
    users_vec.push_back(static_cast<double>(unique_users[i]));
    census_vec.push_back(area.population);
  }

  result.rescale_factor = total_users > 0.0 ? total_census / total_users : 0.0;
  for (AreaPopulationEstimate& est : result.areas) {
    est.rescaled_estimate =
        result.rescale_factor * static_cast<double>(est.unique_users);
  }
  result.median_users = stats::Median(users_vec);

  auto corr = stats::PearsonCorrelation(users_vec, census_vec);
  if (!corr.ok()) return corr.status();
  result.correlation = *corr;
  return result;
}

Result<stats::CorrelationResult> PooledPopulationCorrelation(
    const std::vector<PopulationEstimateResult>& results) {
  std::vector<double> twitter, census;
  for (const PopulationEstimateResult& r : results) {
    for (const AreaPopulationEstimate& a : r.areas) {
      twitter.push_back(a.rescaled_estimate);
      census.push_back(a.census_population);
    }
  }
  return stats::PearsonCorrelation(twitter, census);
}

}  // namespace twimob::core
