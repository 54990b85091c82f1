#ifndef TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_
#define TWIMOB_MOBILITY_TRIP_EXTRACTOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
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
/// Cap on an AreaAssigner grid's heap bytes: the grid coarsens until it
/// fits. The verdicts have a cap of their own of the same size.
inline constexpr size_t kMaxAssignerGridBytes = 1 << 20;
/// Target edge (degrees) of an AreaAssigner verdict leaf: cells split in
/// halves until their sub-cells are no wider than this, nor than a quarter
/// of the radius in degrees of latitude (so that small discs hold leaves).
inline constexpr double kVerdictLeafDeg = 0.02;

/// What an AreaAssigner's verdicts hold (see AreaAssigner). A leaf is a
/// box the refinement stopped at: a cell or a sub-cell of any level.
struct AssignerVerdictStats {
  size_t bytes = 0;         ///< heap bytes of the verdicts (roots and tables)
  size_t area_leaves = 0;   ///< leaves proved to one area
  size_t empty_leaves = 0;  ///< leaves with candidates, proved to no area
  size_t test_leaves = 0;   ///< leaves left to the exact path
  int64_t build_us = 0;     ///< wall microseconds of the verdict build
};

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
///
/// Cell verdicts answer most points with no distance at all. Where the rule
/// is pure haversine (the prefilter is skipped), every cell with a
/// candidate is classified by the box–disc certificate
/// (geo::DiscCertificate) over its box widened by the rounding margin of
/// Assign's cell index, and an undecided cell is refined quadtree-style
/// down to leaves of edge about kVerdictLeafDeg (less for small radii),
/// each sub-cell classified against only the candidates that still reach
/// its parent. A box every candidate is proved beyond is "no area"; one
/// that a single candidate is proved to cover, every other proved beyond,
/// is that area; any other box splits until the leaf edge, where it is
/// "test" — so a leaf any second disc reaches is always tested, and the
/// lowest-index tie-break never rests on a certificate. A refined cell stores its verdicts as a dense
/// table of its finest sub-cells (a decided box fills its block), so Assign
/// finds a point's verdict with one or two loads and runs the exact path
/// only on "test". The tables stay within kMaxAssignerGridBytes: when they
/// would not fit, cells refine fewer levels.
class AreaAssigner {
 public:
  /// Builds the candidate grid and the verdicts; the refinement of the
  /// cells runs on `pool` when given (the result is the same either way).
  AreaAssigner(const std::vector<census::Area>& areas, double radius_m,
               ThreadPool* pool = nullptr);

  /// Nearest centre within the radius, or nullopt; lowest index on ties.
  /// The box reject and the verdict lookup are inline; only points on a
  /// "test" verdict (or with no verdicts) call the exact path.
  std::optional<size_t> Assign(const geo::LatLon& pos) const {
    // No centre's band or prefilter accepts a point outside the box; the
    // negated form also rejects a NaN coordinate, which no haversine test
    // would accept either.
    if (!(pos.lat >= lat_lo_ && pos.lat <= lat_hi_ && pos.lon >= lon_lo_ &&
          pos.lon <= lon_hi_)) {
      return std::nullopt;
    }
    const double ty = (pos.lat - lat_lo_) * inv_cell_;
    const double tx = (pos.lon - lon_lo_) * inv_cell_;
    const size_t y = ny_ == 1 ? 0 : std::min(ny_ - 1, static_cast<size_t>(ty));
    const size_t x = nx_ == 1 ? 0 : std::min(nx_ - 1, static_cast<size_t>(tx));
    const size_t c = y * nx_ + x;
    if (!roots_.empty()) {
      // The point's verdict: its cell's, or its sub-cell's in the cell's
      // table (the sub-cell fractions are exact; rounding of ty and tx is
      // inside the margin the verdicts were certified over).
      uint32_t code = roots_[c];
      if (code >= kTableBase) {
        const double scale = static_cast<double>(side_);
        const size_t sy =
            std::min(side_ - 1, static_cast<size_t>((ty - static_cast<double>(y)) * scale));
        const size_t sx =
            std::min(side_ - 1, static_cast<size_t>((tx - static_cast<double>(x)) * scale));
        code = leaves_[code - kTableBase + sy * side_ + sx];
      }
      if (code == kNone) return std::nullopt;
      if (code != kTest) return code;
    }
    return AssignInCell(pos, c);
  }

  /// Number of area centres (the OD matrix dimension).
  size_t num_areas() const { return lats_.size(); }
  /// The search radius ε.
  double radius_m() const { return radius_m_; }

  /// The grid's box (points outside it are rejected outright; a dimension
  /// may be unbounded) and its cell edge in degrees.
  geo::BoundingBox grid_box() const {
    return geo::BoundingBox{lat_lo_, lon_lo_, lat_hi_, lon_hi_};
  }
  double grid_cell_deg() const { return cell_deg_; }
  /// Heap bytes of the candidate grid (offsets plus candidate lists).
  size_t grid_bytes() const {
    return (cell_begin_.size() + candidates_.size()) * sizeof(uint32_t);
  }

  /// The verdicts' size, leaf counts and build time.
  const AssignerVerdictStats& verdict_stats() const { return verdict_stats_; }

  /// Calls `fn(box, area)` for every decided verdict leaf — a cell, or a
  /// quadtree block of a refined cell's sub-cells with one verdict — in
  /// cell and quadrant order: `box` is the leaf's nominal box, and every
  /// point that falls in it (or within the rounding margin around it) is
  /// assigned `area`, an index, or nullopt for "no area".
  void ForEachDecidedLeaf(
      const std::function<void(const geo::BoundingBox&, std::optional<size_t>)>& fn) const;

 private:
  /// Verdict codes, one byte: an area index, kNone ("no area") or kTest
  /// (so only assigners of fewer than kNone areas have verdicts). A cell's
  /// root (roots_) is a code, or kTableBase + the offset in leaves_ of its
  /// table of side_ x side_ finest sub-cells, row-major by latitude.
  static constexpr uint32_t kNone = 0xFE;
  static constexpr uint32_t kTest = 0xFF;
  static constexpr uint32_t kTableBase = 0x100;

  /// Assign's exact path for a point of the grid's box in cell `c`.
  std::optional<size_t> AssignInCell(const geo::LatLon& pos, size_t c) const;
  void BuildGrid();
  void BuildVerdicts(ThreadPool* pool);
  /// Nominal box of sub-cell (j, i) of cell (y, x) at refinement depth
  /// `level` (2^level sub-cells per side).
  geo::BoundingBox LeafBox(size_t y, size_t x, int level, size_t j, size_t i) const;

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
  // into ny_ rows and nx_ columns of edge cell_deg_ = 1 / inv_cell_
  // degrees (a dimension with an unbounded extent has one cell); cell
  // (y, x)'s candidates are candidates_[cell_begin_[c], cell_begin_[c + 1])
  // with c = y * nx_ + x.
  double lat_lo_ = 0.0;
  double lat_hi_ = 0.0;
  double lon_lo_ = 0.0;
  double lon_hi_ = 0.0;
  double cell_deg_ = 0.0;
  double inv_cell_ = 0.0;
  size_t nx_ = 1;
  size_t ny_ = 1;
  std::vector<uint32_t> cell_begin_;
  std::vector<uint32_t> candidates_;

  // The verdicts: roots_[c] is cell c's (empty: no verdicts, every point
  // takes the exact path); a refined cell's table holds side_ = 2^depth_
  // sub-cells per side.
  std::vector<uint32_t> roots_;
  std::vector<uint8_t> leaves_;
  int depth_ = 0;
  size_t side_ = 1;
  AssignerVerdictStats verdict_stats_;
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

/// Extracts the Twitter mobility matrix (paper §IV) of every scale in one
/// walk over the rows: every pair of consecutive tweets of the same user
/// whose first tweet maps to area i and second to area j (i ≠ j) under a
/// scale's assigner contributes one trip to that scale's flow (i, j). Each
/// row is decoded once and fed to one TripAccumulator per assigner. Returns
/// one OD matrix per assigner, in order, and fills `stats` (when non-null)
/// with one ExtractionStats per assigner. A table is analysed by wrapping
/// it with the zero-copy TweetDataset::FromTable.
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
/// `pool`; their nonzero flows and counters merge in unit order. Flows are
/// sums of 1.0 and counters are integers, so the result is byte-identical
/// for any thread count and any shard count.
Result<std::vector<OdMatrix>> ExtractTrips(const tweetdb::TweetDataset& dataset,
                                           std::span<const AreaAssigner> assigners,
                                           ThreadPool& pool,
                                           std::vector<ExtractionStats>* stats = nullptr,
                                           const TripOptions& options = TripOptions{});

/// ExtractTrips of one scale with a prebuilt assigner: a one-assigner call
/// of the walk above.
Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const AreaAssigner& assigner, ThreadPool& pool,
                              ExtractionStats* stats = nullptr,
                              const TripOptions& options = TripOptions{});

/// ExtractTrips of one scale: the assigner of (`areas`, `radius_m`, the
/// scale's search radius ε), built for the call.
Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const std::vector<census::Area>& areas,
                              double radius_m, ThreadPool& pool,
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
