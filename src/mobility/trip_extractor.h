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
/// Work is chunked by (shard, block) and distributed over `pool`: a chunk
/// owns the user runs starting in it whose user appears in no earlier
/// shard (head rows continuing the previous block's last run belong to
/// that run's owner), and follows each owned run across block boundaries
/// and through later shards (located by zone-map binary search). Partial
/// OD matrices and counters merge in global (shard, block) order, so the
/// result is byte-identical for any thread count and any shard count.
Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const std::vector<census::Area>& areas,
                              double radius_m, ThreadPool& pool,
                              ExtractionStats* stats = nullptr,
                              const TripOptions& options = TripOptions{});

}  // namespace twimob::mobility

#endif  // TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
