#include "core/population_estimator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "geo/bbox.h"
#include "geo/latlon.h"
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
  // Every block holding rows, in storage order, with its first global row.
  // Bounds: the Australian study box, extended by the blocks' zone maps to
  // cover stray points so no tweet is clamped into a wrong cell's
  // neighbourhood.
  geo::BoundingBox bounds = geo::AustraliaBoundingBox();
  std::vector<const tweetdb::Block*> blocks;
  std::vector<size_t> first_row;
  size_t rows = 0;
  const auto add_block = [&](const tweetdb::Block& block,
                             const geo::BoundingBox& bbox) {
    if (block.empty()) return;
    blocks.push_back(&block);
    first_row.push_back(rows);
    rows += block.num_rows();
    bounds.ExtendToInclude(geo::LatLon{bbox.min_lat, bbox.min_lon});
    bounds.ExtendToInclude(geo::LatLon{bbox.max_lat, bbox.max_lon});
  };
  for (size_t s = 0; s < dataset.num_shards(); ++s) {
    const tweetdb::TweetTable& table = dataset.shard(s);
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      add_block(table.block(b), table.block_stats(b).bbox);
    }
    add_block(table.active_block(), table.active_block().ComputeStats().bbox);
  }

  // Gathers global rows [begin, end) straight from the column vectors; the
  // coordinate decode matches Block::GetRow bit for bit.
  const auto read = [&blocks, &first_row](size_t begin, size_t end,
                                          geo::IndexedPoint* out) {
    size_t b = static_cast<size_t>(
        std::upper_bound(first_row.begin(), first_row.end(), begin) -
        first_row.begin() - 1);
    for (size_t row = begin; row < end; ++b) {
      const tweetdb::Block& block = *blocks[b];
      const size_t offset = row - first_row[b];
      const size_t take = std::min(end - row, block.num_rows() - offset);
      const uint64_t* users = block.user_ids().data() + offset;
      const int32_t* lats = block.lat_fixed().data() + offset;
      const int32_t* lons = block.lon_fixed().data() + offset;
      for (size_t i = 0; i < take; ++i) {
        *out++ = geo::IndexedPoint{
            geo::LatLon{geo::FixedToDegrees(lats[i]), geo::FixedToDegrees(lons[i])},
            users[i]};
      }
      row += take;
    }
  };
  auto index =
      geo::SealedGridIndex::Build(bounds, kIndexCellDegrees, rows, read, pool);
  if (!index.ok()) return index.status();
  if (scan_stats != nullptr) {
    *scan_stats = tweetdb::ScanStatistics{};
    scan_stats->blocks_total = dataset.num_blocks();
    scan_stats->rows_scanned = rows;
    scan_stats->rows_matched = rows;
  }
  PopulationEstimator estimator;
  estimator.indexes_.push_back(
      std::make_shared<const geo::SealedGridIndex>(std::move(*index)));
  return estimator;
}

PopulationEstimator PopulationEstimator::Layered(
    const std::vector<const PopulationEstimator*>& layers) {
  PopulationEstimator all;
  for (const PopulationEstimator* layer : layers) {
    all.indexes_.insert(all.indexes_.end(), layer->indexes_.begin(),
                        layer->indexes_.end());
  }
  return all;
}

size_t PopulationEstimator::CountUniqueUsers(const geo::LatLon& center,
                                             double radius_m) const {
  return CountTweetsAndUsers(center, radius_m).distinct_ids;
}

size_t PopulationEstimator::CountTweets(const geo::LatLon& center,
                                        double radius_m) const {
  size_t tweets = 0;
  for (const auto& index : indexes_) tweets += index->CountRadius(center, radius_m);
  return tweets;
}

geo::RadiusCounts PopulationEstimator::CountTweetsAndUsers(const geo::LatLon& center,
                                                           double radius_m) const {
  if (indexes_.size() == 1) {
    return indexes_[0]->CountRadiusAndDistinctIds(center, radius_m);
  }
  // The smaller layers' users, united, are counted into the first layer's
  // walk (ids found both ways count once).
  std::vector<uint64_t> others;
  const size_t other_tweets = CollectLayerUsers(1, center, radius_m, &others);
  geo::RadiusCounts counts =
      indexes_[0]->CountRadiusAndDistinctIds(center, radius_m, &others);
  counts.points += other_tweets;
  return counts;
}

size_t PopulationEstimator::CollectUsers(const geo::LatLon& center, double radius_m,
                                         std::vector<uint64_t>* users) const {
  return CollectLayerUsers(0, center, radius_m, users);
}

size_t PopulationEstimator::CollectLayerUsers(size_t first, const geo::LatLon& center,
                                              double radius_m,
                                              std::vector<uint64_t>* users) const {
  users->clear();
  size_t tweets = 0;
  std::vector<uint64_t> layer_users;
  std::vector<uint64_t> united;
  for (size_t l = first; l < indexes_.size(); ++l) {
    if (l == first) {
      tweets += indexes_[l]->CollectDistinctIds(center, radius_m, users);
      continue;
    }
    tweets += indexes_[l]->CollectDistinctIds(center, radius_m, &layer_users);
    united.clear();
    std::set_union(users->begin(), users->end(), layer_users.begin(),
                   layer_users.end(), std::back_inserter(united));
    users->swap(united);
  }
  return tweets;
}

Result<std::vector<PopulationEstimateResult>> PopulationEstimator::EstimateScales(
    std::span<const ScaleSpec> specs, ThreadPool* pool,
    std::vector<std::vector<std::vector<uint64_t>>>* area_users) const {
  std::vector<std::pair<size_t, size_t>> pairs;  // (scale, area)
  for (size_t s = 0; s < specs.size(); ++s) {
    if (specs[s].areas.empty()) {
      return Status::InvalidArgument("Estimate: scale spec has no areas");
    }
    if (!(specs[s].radius_m > 0.0)) {
      return Status::InvalidArgument("Estimate: radius must be positive");
    }
    for (size_t i = 0; i < specs[s].areas.size(); ++i) pairs.emplace_back(s, i);
  }
  // Longest walks first: a wider disc around a more populous centre holds
  // more tweets. The order only schedules; each pair writes its own slot.
  std::stable_sort(pairs.begin(), pairs.end(), [&specs](const auto& a, const auto& b) {
    const ScaleSpec& sa = specs[a.first];
    const ScaleSpec& sb = specs[b.first];
    if (sa.radius_m != sb.radius_m) return sa.radius_m > sb.radius_m;
    return sa.areas[a.second].population > sb.areas[b.second].population;
  });

  std::vector<std::vector<size_t>> unique_users(specs.size());
  std::vector<std::vector<size_t>> tweet_counts(specs.size());
  if (area_users != nullptr) area_users->assign(specs.size(), {});
  for (size_t s = 0; s < specs.size(); ++s) {
    unique_users[s].assign(specs[s].areas.size(), 0);
    tweet_counts[s].assign(specs[s].areas.size(), 0);
    if (area_users != nullptr) (*area_users)[s].resize(specs[s].areas.size());
  }
  const auto count_area = [&](size_t k) {
    const auto [s, i] = pairs[k];
    const geo::LatLon& center = specs[s].areas[i].center;
    if (area_users != nullptr) {
      std::vector<uint64_t>& users = (*area_users)[s][i];
      tweet_counts[s][i] = CollectUsers(center, specs[s].radius_m, &users);
      unique_users[s][i] = users.size();
      return;
    }
    const geo::RadiusCounts counts = CountTweetsAndUsers(center, specs[s].radius_m);
    unique_users[s][i] = counts.distinct_ids;
    tweet_counts[s][i] = counts.points;
  };
  if (pool != nullptr) {
    pool->ParallelFor(pairs.size(), count_area);
  } else {
    for (size_t k = 0; k < pairs.size(); ++k) count_area(k);
  }

  std::vector<PopulationEstimateResult> results;
  for (size_t s = 0; s < specs.size(); ++s) {
    auto result = AssemblePopulationEstimate(specs[s], unique_users[s], tweet_counts[s]);
    if (!result.ok()) return result.status();
    results.push_back(std::move(*result));
  }
  return results;
}

Result<PopulationEstimateResult> PopulationEstimator::Estimate(
    const ScaleSpec& spec, ThreadPool* pool,
    std::vector<std::vector<uint64_t>>* area_users) const {
  std::vector<std::vector<std::vector<uint64_t>>> users;
  auto results = EstimateScales(std::span<const ScaleSpec>(&spec, 1), pool,
                                area_users != nullptr ? &users : nullptr);
  if (!results.ok()) return results.status();
  if (area_users != nullptr) *area_users = std::move(users.front());
  return std::move(results->front());
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
