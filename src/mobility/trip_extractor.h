#ifndef TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
#define TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_

#include <optional>
#include <vector>

#include "census/area.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "mobility/od_matrix.h"
#include "tweetdb/dataset.h"

namespace twimob::mobility {

/// Extraction counters, for diagnostics and the ablation benches.
struct ExtractionStats {
  size_t tweets_seen = 0;
  size_t tweets_in_some_area = 0;
  size_t consecutive_pairs = 0;   ///< same-user consecutive tweet pairs
  size_t inter_area_trips = 0;    ///< pairs mapping to two distinct areas
  size_t intra_area_pairs = 0;    ///< pairs mapping to the same area
  size_t gap_filtered_pairs = 0;  ///< pairs dropped by TripOptions::max_gap_seconds
};

/// Maps a coordinate to the nearest area centre within `radius_m`, or
/// nullopt when no centre is that close. Ties resolve to the closest
/// centre, matching the paper's ε-radius assignment.
std::optional<size_t> AssignToArea(const geo::LatLon& pos,
                                   const std::vector<census::Area>& areas,
                                   double radius_m);

/// Precomputed form of AssignToArea for streaming many points against one
/// (areas, radius) pair — the trip extractors assign every tweet this way.
/// Centre coordinates are held in structure-of-arrays layout and the reject
/// thresholds (exact latitude band, equirectangular prefilter margin) are
/// hoisted out of the per-point loop. `Assign` returns exactly what
/// `AssignToArea` returns for the same inputs.
class AreaAssigner {
 public:
  AreaAssigner(const std::vector<census::Area>& areas, double radius_m);

  /// Nearest centre within the radius, or nullopt; identical output (index
  /// and tie-breaks) to AssignToArea(pos, areas, radius_m).
  std::optional<size_t> Assign(const geo::LatLon& pos) const;

 private:
  std::vector<double> lats_;
  std::vector<double> lons_;
  double radius_m_;
  double prefilter_m_;    ///< equirectangular reject threshold (1% margin)
  double lat_band_deg_;   ///< exact meridian-leg reject threshold, degrees
};

/// Options of the trip extraction.
struct TripOptions {
  /// Consecutive pairs further apart in time than this are not trips
  /// (0 = unlimited, the paper's definition). Twitter mobility studies
  /// often cap the gap (e.g. Hawelka et al. use day-level transitions) so
  /// that a tweet in Sydney followed by one in Perth a month later does
  /// not count as a trip.
  int64_t max_gap_seconds = 0;
};

/// Rows per trip-extraction work-unit stride: ExtractTrips cuts every
/// shard's compacted rows at each block start and at every kTripUnitRows
/// rows inside a block. A constant, never derived from the thread count, so
/// the work units — and the order their results merge in — depend on the
/// stored data alone.
inline constexpr size_t kTripUnitRows = 4096;

/// Extracts the Twitter mobility matrix (paper §IV): every pair of
/// consecutive tweets of the same user whose first tweet maps to area i and
/// second to area j (i ≠ j) contributes one trip to flow (i, j). `radius_m`
/// is the scale's search radius ε. A table is analysed by wrapping it with
/// the zero-copy TweetDataset::FromTable.
///
/// Every shard must be compacted by (user, time) — CompactShards() — so
/// that each user's rows are contiguous and time-ordered within a shard;
/// otherwise FailedPrecondition. Because the shards partition time, a
/// user's merged row sequence is their per-shard runs in shard-key order.
///
/// Work is split into units balanced by the rows they cover across all
/// shards: the users at the kTripUnitRows cut rows of every shard, sorted
/// and deduplicated, split the user-id space into ranges, so each unit
/// covers at most one stride (or one longer user run) per shard. A unit
/// walks its users in ascending order, feeding each user's per-shard runs
/// in shard-key order (located by zone-map binary search). Units run on
/// `pool`; their OD matrices and counters merge in unit order. Flows are
/// sums of 1.0 and counters are integers, so the result is byte-identical
/// for any thread count and any shard count.
Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const std::vector<census::Area>& areas,
                              double radius_m, ThreadPool& pool,
                              ExtractionStats* stats = nullptr,
                              const TripOptions& options = TripOptions{});

}  // namespace twimob::mobility

#endif  // TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
