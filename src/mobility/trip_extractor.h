#ifndef TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
#define TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "census/area.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/bbox.h"
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

  /// Counter-wise sums and differences: merging work units' counters, and
  /// the delta path's removal of a user's old contribution (never more than
  /// the totals hold).
  ExtractionStats& operator+=(const ExtractionStats& o) {
    tweets_seen += o.tweets_seen;
    tweets_in_some_area += o.tweets_in_some_area;
    consecutive_pairs += o.consecutive_pairs;
    inter_area_trips += o.inter_area_trips;
    intra_area_pairs += o.intra_area_pairs;
    gap_filtered_pairs += o.gap_filtered_pairs;
    return *this;
  }
  ExtractionStats& operator-=(const ExtractionStats& o) {
    tweets_seen -= o.tweets_seen;
    tweets_in_some_area -= o.tweets_in_some_area;
    consecutive_pairs -= o.consecutive_pairs;
    inter_area_trips -= o.inter_area_trips;
    intra_area_pairs -= o.intra_area_pairs;
    gap_filtered_pairs -= o.gap_filtered_pairs;
    return *this;
  }
};

/// Cap on an AreaAssigner grid's cell count.
inline constexpr size_t kMaxAssignerGridCells = 65536;
/// Cap on an AreaAssigner grid's heap bytes: the grid coarsens until it fits.
inline constexpr size_t kMaxAssignerGridBytes = 1 << 20;

/// Maps coordinates to the nearest area centre within `radius_m` — the
/// paper's ε-radius assignment — or nullopt when no centre is that close.
/// Ties resolve to the lowest-indexed equidistant centre. The trip
/// extractors assign every tweet this way; one assigner is built per
/// (areas, radius) pair and shared read-only by every work unit.
///
/// A centre passes three tests, in index order: the exact latitude band
/// (great-circle distance is at least the meridian leg), a 1% margin
/// equirectangular prefilter, then HaversineMeters(pos, center) <= ε. The
/// prefilter runs as a cheap longitude reject it implies, and is skipped
/// outright where a haversine accept provably implies it; a lone surviving
/// candidate provably within ε is returned without computing its distance.
/// A CSR candidate grid skips the centres that cannot pass the first two:
/// cells of edge 2× the latitude band (coarsened to at most
/// kMaxAssignerGridCells cells and kMaxAssignerGridBytes), each listing in
/// index order the centres whose band/prefilter might accept some point
/// of the cell, with points outside the grid's box rejected before any
/// distance is computed. cos(lat) is hoisted once per centre and once per
/// point by HaversineMeters' exact expression, so every distance — and so
/// every assignment — is bit-identical to testing all centres.
class AreaAssigner {
 public:
  AreaAssigner(const std::vector<census::Area>& areas, double radius_m);

  /// Nearest centre within the radius, or nullopt; lowest index on ties.
  std::optional<size_t> Assign(const geo::LatLon& pos) const;

  /// Number of area centres (the OD matrix dimension).
  size_t num_areas() const { return lats_.size(); }
  /// The search radius ε.
  double radius_m() const { return radius_m_; }

  /// The grid's box (points outside it are rejected outright; a dimension
  /// may be unbounded) and its cell edge in degrees.
  geo::BoundingBox grid_box() const {
    return geo::BoundingBox{lat_lo_, lon_lo_, lat_hi_, lon_hi_};
  }
  double grid_cell_deg() const { return 1.0 / inv_cell_; }
  /// Heap bytes of the candidate grid (offsets plus candidate lists).
  size_t grid_bytes() const {
    return (cell_begin_.size() + candidates_.size()) * sizeof(uint32_t);
  }

 private:
  void BuildGrid();

  std::vector<double> lats_;
  std::vector<double> lons_;
  std::vector<double> cos_lats_;  ///< cos(lat * kDegToRad), per centre
  /// Per centre: the |Δlon| (degrees) beyond which the prefilter rejects.
  std::vector<double> half_lons_;
  /// True when a haversine accept implies the prefilter's at every centre,
  /// so Assign skips it (see BuildGrid).
  bool skip_prefilter_ = false;
  /// Squared-angle bound under which a lone candidate is certainly within
  /// ε (negative: never); see BuildGrid.
  double certain_q_ = -1.0;
  double radius_m_;
  double prefilter_m_;    ///< equirectangular reject threshold (1% margin)
  double lat_band_deg_;   ///< exact meridian-leg reject threshold, degrees

  // The candidate grid: box [lat_lo_, lat_hi_] x [lon_lo_, lon_hi_] cut
  // into ny_ rows and nx_ columns of edge 1 / inv_cell_ degrees (a
  // dimension with an unbounded extent has one cell); cell (y, x)'s
  // candidates are candidates_[cell_begin_[c], cell_begin_[c + 1]) with
  // c = y * nx_ + x.
  double lat_lo_ = 0.0;
  double lat_hi_ = 0.0;
  double lon_lo_ = 0.0;
  double lon_hi_ = 0.0;
  double inv_cell_ = 0.0;
  size_t nx_ = 1;
  size_t ny_ = 1;
  std::vector<uint32_t> cell_begin_;
  std::vector<uint32_t> candidates_;
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

/// The trip state machine: fed rows in (user, time, lat, lon) order, it
/// assigns each row its area and counts a trip for every same-user
/// consecutive pair landing in two different areas (a pair further apart
/// than TripOptions::max_gap_seconds is filtered instead). It resets at
/// every user change, so a user's contribution depends on that user's
/// rows alone: ExtractTrips runs one per work unit, and the delta path
/// replays touched users through one (GatherUserRows) to subtract their
/// old contribution and add their new one.
class TripAccumulator {
 public:
  /// Adds trips into `od` (one 1.0 per trip), which must outlive the
  /// accumulator; `assigner` must too.
  TripAccumulator(const AreaAssigner& assigner, const TripOptions& options,
                  OdMatrix* od)
      : assigner_(assigner), options_(options), od_(od) {}

  /// Feeds one row. The columnar gather loops pass decoded column values
  /// directly, never materialising a Tweet.
  void Process(uint64_t user, int64_t time, const geo::LatLon& pos) {
    ++stats_.tweets_seen;
    const size_t area = assigner_.Assign(pos).value_or(kNoArea);
    if (area != kNoArea) ++stats_.tweets_in_some_area;

    if (have_prev_ && user == prev_user_) {
      ++stats_.consecutive_pairs;
      const bool gap_ok = options_.max_gap_seconds == 0 ||
                          time - prev_time_ <= options_.max_gap_seconds;
      if (!gap_ok) {
        ++stats_.gap_filtered_pairs;
      } else if (prev_area_ != kNoArea && area != kNoArea) {
        if (prev_area_ != area) {
          od_->AddFlow(prev_area_, area, 1.0);
          ++stats_.inter_area_trips;
        } else {
          ++stats_.intra_area_pairs;
        }
      }
    }
    prev_user_ = user;
    prev_time_ = time;
    prev_area_ = area;
    have_prev_ = true;
  }

  /// The counters of every row fed so far.
  const ExtractionStats& stats() const { return stats_; }

 private:
  static constexpr size_t kNoArea = static_cast<size_t>(-1);

  const AreaAssigner& assigner_;
  const TripOptions options_;
  OdMatrix* od_;
  ExtractionStats stats_;
  uint64_t prev_user_ = 0;
  int64_t prev_time_ = 0;
  bool have_prev_ = false;
  size_t prev_area_ = kNoArea;
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

/// ExtractTrips with a prebuilt assigner, shared read-only by every unit
/// (the staged pipeline keeps it for the delta path's replays).
Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const AreaAssigner& assigner, ThreadPool& pool,
                              ExtractionStats* stats = nullptr,
                              const TripOptions& options = TripOptions{});

/// Appends `user`'s rows held by `layers` to `rows` in the order
/// ExtractTrips would feed them from one compacted dataset holding every
/// layer's rows: shard by shard in ascending partition key, each shard's
/// runs of every layer merged in (time, lat, lon) order. Every layer must
/// be compacted by (user, time) and share one partition spec; a run is
/// located by zone-map binary search (TweetTable::LowerBoundUser), so the
/// cost is the user's rows plus a search per shard. Replaying the result
/// through a TripAccumulator gives exactly the user's share of the
/// combined dataset's ExtractTrips.
void GatherUserRows(uint64_t user,
                    const std::vector<const tweetdb::TweetDataset*>& layers,
                    std::vector<tweetdb::Tweet>* rows);

}  // namespace twimob::mobility

#endif  // TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
