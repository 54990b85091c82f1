#ifndef TWIMOB_CORE_POPULATION_ESTIMATOR_H_
#define TWIMOB_CORE_POPULATION_ESTIMATOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/scales.h"
#include "geo/grid_index.h"
#include "geo/sealed_grid_index.h"
#include "stats/correlation.h"
#include "tweetdb/dataset.h"
#include "tweetdb/query.h"

namespace twimob::core {

/// Per-area population estimate derived from tweets (paper §III).
struct AreaPopulationEstimate {
  uint32_t area_id = 0;
  std::string name;
  size_t tweet_count = 0;        ///< tweets within ε of the centre
  size_t unique_users = 0;       ///< distinct users within ε — "Twitter population"
  double census_population = 0.0;
  double rescaled_estimate = 0.0;  ///< C · unique_users
};

/// Result of population estimation at one scale.
struct PopulationEstimateResult {
  std::string scale_name;
  double radius_m = 0.0;
  std::vector<AreaPopulationEstimate> areas;
  /// Rescaling factor C with C·Σusers = Σcensus over this scale's areas.
  double rescale_factor = 0.0;
  /// Pearson correlation of unique users vs census population (scale-local;
  /// Pearson is invariant to the rescale factor).
  stats::CorrelationResult correlation;
  /// Median unique users across the 20 areas (paper: 4166 / 743 / 3988).
  double median_users = 0.0;
};

/// Estimates area populations from geo-tagged tweets by counting the
/// distinct users whose tweets fall within the scale's search radius ε of
/// each area centre. Build once per corpus, estimate at any scale/radius.
class PopulationEstimator {
 public:
  /// Indexes every tweet of `dataset` into a uniform grid (cell ≈ 0.05°);
  /// all data is copied into the index, so the dataset need not outlive
  /// the estimator. A table is indexed by wrapping it with the zero-copy
  /// TweetDataset::FromTable.
  ///
  /// The sealed index is built directly (geo::SealedGridIndex::Build) from
  /// every row in storage order — shards by key, each shard's sealed
  /// blocks then its active tail — on `pool` when it is non-null. The
  /// build's chunking is fixed by the row count, so the index, and every
  /// estimate, is byte-identical for any thread or shard count.
  /// `scan_stats`, when non-null, receives the storage-scan statistics of
  /// the build.
  static Result<PopulationEstimator> Build(
      const tweetdb::TweetDataset& dataset, ThreadPool* pool = nullptr,
      tweetdb::ScanStatistics* scan_stats = nullptr);

  /// An estimator over the rows of every one of `layers` (disjoint row
  /// sets, largest first — a snapshot's runs): their sealed indexes are
  /// shared, not copied, and every query walks each one and takes the
  /// union of their users. `layers` must not be empty.
  static PopulationEstimator Layered(
      const std::vector<const PopulationEstimator*>& layers);

  /// Distinct users with at least one tweet within radius_m of `center`.
  /// Backed by the sealed index's rank marks: interior cells mark their
  /// unique-user lists, boundary cells their accepted tweets.
  size_t CountUniqueUsers(const geo::LatLon& center, double radius_m) const;

  /// Tweets within radius_m of `center`.
  size_t CountTweets(const geo::LatLon& center, double radius_m) const;

  /// Tweets (`points`) and distinct users (`distinct_ids`) within radius_m
  /// of `center` from one fused radius walk per index; equal to the pair
  /// (CountTweets, CountUniqueUsers). Estimate and the serving layer's
  /// population query use this.
  geo::RadiusCounts CountTweetsAndUsers(const geo::LatLon& center,
                                        double radius_m) const;

  /// CountTweetsAndUsers keeping the users: `users` receives the sorted
  /// distinct user ids within radius_m of `center` (its size is the
  /// distinct count); returns the tweet count.
  size_t CollectUsers(const geo::LatLon& center, double radius_m,
                      std::vector<uint64_t>* users) const;

  /// Full estimates for every scale of `specs` from one loop over all
  /// (scale, area) pairs. With a `pool` the pairs run data-parallel into
  /// per-pair slots, largest radius and census population first so the
  /// longest walks do not trail; aggregation stays in scale and area
  /// order, so the result matches the serial path exactly. `area_users`,
  /// when non-null, receives each area's sorted distinct user ids (per
  /// scale, parallel to its areas) from the same walks.
  Result<std::vector<PopulationEstimateResult>> EstimateScales(
      std::span<const ScaleSpec> specs, ThreadPool* pool = nullptr,
      std::vector<std::vector<std::vector<uint64_t>>>* area_users = nullptr) const;

  /// EstimateScales for the one scale `spec`; `area_users` is parallel to
  /// spec.areas.
  Result<PopulationEstimateResult> Estimate(
      const ScaleSpec& spec, ThreadPool* pool = nullptr,
      std::vector<std::vector<uint64_t>>* area_users = nullptr) const;

  size_t num_indexed_tweets() const {
    size_t tweets = 0;
    for (const auto& index : indexes_) tweets += index->size();
    return tweets;
  }

 private:
  PopulationEstimator() = default;

  /// CollectUsers over the layers from `first` on: `users` receives their
  /// united sorted distinct ids within radius_m; returns their tweets.
  size_t CollectLayerUsers(size_t first, const geo::LatLon& center,
                           double radius_m, std::vector<uint64_t>* users) const;

  /// Every query runs on the immutable CSR form. One index per layer, over
  /// disjoint rows; the first is the largest, so its walk keeps the
  /// count-only union and the others hand it their users.
  std::vector<std::shared_ptr<const geo::SealedGridIndex>> indexes_;
};

/// Assembles one scale's PopulationEstimateResult from per-area counts
/// (`unique_users[i]` / `tweet_counts[i]` parallel to `spec.areas`): the
/// rescale factor, rescaled estimates, median and Pearson correlation.
/// This is the arithmetic tail of PopulationEstimator::Estimate, shared
/// with the delta path (StageEngine::DeltaStages) so both produce
/// bitwise-identical results from identical counts.
Result<PopulationEstimateResult> AssemblePopulationEstimate(
    const ScaleSpec& spec, const std::vector<size_t>& unique_users,
    const std::vector<size_t>& tweet_counts);

/// Pools per-scale estimates into the paper's 60-sample comparison
/// (Figure 3a): Pearson correlation of the rescaled Twitter populations
/// against census populations across all areas of all supplied results.
Result<stats::CorrelationResult> PooledPopulationCorrelation(
    const std::vector<PopulationEstimateResult>& results);

}  // namespace twimob::core

#endif  // TWIMOB_CORE_POPULATION_ESTIMATOR_H_
