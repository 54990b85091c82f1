#ifndef TWIMOB_GEO_SEALED_GRID_INDEX_H_
#define TWIMOB_GEO_SEALED_GRID_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/bbox.h"
#include "geo/disc_certificate.h"
#include "geo/geodesic.h"
#include "geo/grid_index.h"
#include "geo/latlon.h"

namespace twimob::geo {

/// Vector allocator that default-initialises: `resize` leaves trivial
/// elements unwritten, so a slot's first write (and its page's first touch)
/// is the one the parallel build makes.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  NoFillAllocator() = default;
  template <typename U>
  NoFillAllocator(const NoFillAllocator<U>& /*other*/) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
template <typename T>
using NoFillVector = std::vector<T, NoFillAllocator<T>>;

/// Per-query cell/point breakdown of a sealed radius query — exposed so the
/// spatial bench and the tests can assert that the interior-cell fast path
/// actually fires.
struct RadiusQueryProfile {
  size_t cells_candidate = 0;  ///< non-empty cells inside the coarse box
  size_t cells_interior = 0;   ///< cells consumed without per-point checks
  size_t cells_boundary = 0;   ///< cells not interior: filtered point by
                               ///< point, or skipped whole when proved
                               ///< exterior
  size_t points_interior = 0;  ///< points accepted via the interior path
  size_t points_tested = 0;    ///< boundary points that reached a distance check
};

/// Points and distinct payload ids within one radius, from one fused walk.
struct RadiusCounts {
  size_t points = 0;
  size_t distinct_ids = 0;
};

/// An immutable, query-optimised grid index, built directly from a point
/// sequence by `Build`.
///
/// The points live in a CSR (compressed-sparse-row) layout: one
/// structure-of-arrays point store (lat / lon / user rank) sorted by cell key, an
/// ascending array of the non-empty cell keys, and an offsets array mapping
/// each cell to its point range. Input order is preserved within each cell
/// (the build is a stable counting sort by cell key), so every query
/// returns exactly the bytes a `GridIndex` loaded in the same order would
/// return, in the same order.
///
/// Radius queries classify each candidate cell against the query circle
/// using the cell's true point bounding box (clamped out-of-bounds points
/// keep their real coordinates, so the stored cell rectangle cannot be
/// used):
///
/// * *interior* — the box–disc certificate (geo/disc_certificate.h) proves
///   every point of the cell within the radius: the cell is consumed with
///   no per-point distance check (counting is O(1) per cell);
/// * *exterior* — the certificate proves every point beyond the radius:
///   the cell is skipped without touching a point;
/// * *boundary* — points run an exact latitude-band reject and a cheap
///   equirectangular prefilter before the exact haversine test.
///
/// Both filters are conservative (they can only skip points the haversine
/// test would reject), so results stay byte-identical to `GridIndex`.
///
/// Payload ids are stored as dense ranks: the build maps the distinct ids,
/// in ascending order, to `uint32_t` ranks [0, U) and keeps the one sorted
/// rank → id array. Each cell carries its ascending unique-rank list, so a
/// distinct count marks ranks in a per-thread bitset — interior cells mark
/// their list, boundary cells the points they accept — and counts the
/// marks: O(points) with no hashing, heap or sort. Rank order is id order,
/// so reading the marks back yields ids already sorted. The population
/// estimator's unique-user counts ride on this.
class SealedGridIndex {
 public:
  /// Copies input points [begin, end), in input order, into `out`. Called
  /// concurrently for disjoint ranges when the build runs on a pool.
  using PointReader =
      std::function<void(size_t begin, size_t end, IndexedPoint* out)>;

  /// Builds the index over `bounds` with `cell_deg`-degree cells from
  /// `num_points` input points, read through `read` twice (once to count
  /// cells, once to scatter). The build is a stable counting sort: per-point
  /// cell keys and each range's sorted-unique ids over fixed ranges of the
  /// input, the union of those keys and of those ids (the rank → id array),
  /// cell counts with a prefix sum in input order, a scatter of
  /// coordinates and ranks into the SoA arrays (their first write), then
  /// per-cell bounding boxes and unique-rank lists, each merged from the
  /// cell's ascending runs. No phase sorts a cell or walks every point
  /// serially. Every phase is chunked by a constant, never by the thread
  /// count, and each writes disjoint slots, so the index is byte-identical
  /// with or without `pool` and for any pool size, and answers every query
  /// exactly as a `GridIndex` loaded in the same order does. Fails like
  /// GridIndex::Create on invalid bounds or cell size, and with
  /// InvalidArgument past 2^32 - 1 distinct ids.
  static Result<SealedGridIndex> Build(const BoundingBox& bounds, double cell_deg,
                                       size_t num_points, const PointReader& read,
                                       ThreadPool* pool = nullptr);

  /// Build over an in-memory point vector.
  static Result<SealedGridIndex> Build(const BoundingBox& bounds, double cell_deg,
                                       const std::vector<IndexedPoint>& points,
                                       ThreadPool* pool = nullptr);

  /// All points within `radius_m` metres (inclusive) of `center`, in the
  /// same order as the unsealed index.
  std::vector<IndexedPoint> QueryRadius(const LatLon& center, double radius_m) const;

  /// Number of points within the radius; interior cells contribute their
  /// size in O(1) without touching point data.
  size_t CountRadius(const LatLon& center, double radius_m) const;

  /// CountRadius with the per-query cell/point breakdown filled in.
  size_t CountRadiusProfiled(const LatLon& center, double radius_m,
                             RadiusQueryProfile* profile) const;

  /// Number of distinct payload ids within the radius: the `distinct_ids`
  /// of CountRadiusAndDistinctIds.
  size_t CountDistinctIds(const LatLon& center, double radius_m) const;

  /// Points and distinct payload ids within the radius from one walk over
  /// the candidate cells: interior cells add their size and mark their
  /// unique-rank lists; boundary cells are filtered once and their
  /// survivors feed both counts. Equal to the pair (CountRadius,
  /// CountDistinctIds) on every query. `also_ids`, when non-null, is a
  /// sorted-unique id list counted into `distinct_ids` as well (ids found
  /// both ways count once: each is looked up in the rank → id array and
  /// counted unless its rank is marked) — how indexes over disjoint points
  /// (a snapshot's runs) answer one distinct count together.
  RadiusCounts CountRadiusAndDistinctIds(
      const LatLon& center, double radius_m,
      const std::vector<uint64_t>* also_ids = nullptr) const;

  /// The walk of CountRadiusAndDistinctIds, keeping the ids: `ids`
  /// receives the sorted-unique payload ids within the radius (its size is
  /// the `distinct_ids` count), read from the marks in rank order, and the
  /// number of points within the radius is returned.
  size_t CollectDistinctIds(const LatLon& center, double radius_m,
                            std::vector<uint64_t>* ids) const;

  /// Invokes `fn(point)` for every point within the radius, in the same
  /// order as the unsealed index.
  template <typename Fn>
  void ForEachInRadius(const LatLon& center, double radius_m, Fn&& fn) const;

  size_t size() const { return ranks_.size(); }
  const BoundingBox& bounds() const { return bounds_; }
  double cell_deg() const { return cell_deg_; }

  /// Number of non-empty cells (diagnostics / bench).
  size_t num_nonempty_cells() const { return cell_keys_.size(); }

  /// Number of distinct payload ids: the rank space [0, U).
  size_t num_distinct_ids() const { return rank_ids_.size(); }

  /// Member-wise equality: the same bounds, cells, points in the same slots,
  /// ranks and per-cell rank lists. The build's determinism tests use it.
  bool operator==(const SealedGridIndex& other) const = default;

 private:
  SealedGridIndex() = default;

  /// The equirectangular prefilter is applied only below this radius: under
  /// ~500 km at the study latitudes the approximation stays within ~1% of
  /// haversine, so the 5% rejection margin is conservative by a wide
  /// factor. Larger queries go straight to haversine on boundary cells.
  static constexpr double kEquirectPrefilterMaxRadiusMeters = 500e3;
  static constexpr double kEquirectPrefilterMargin = 1.05;

  /// Degrees of latitude beyond which a point is provably outside the
  /// radius (great-circle distance is at least the meridian separation).
  /// The 1e-9 relative slack absorbs floating-point rounding so the exact
  /// reject can never drop a point the haversine test would accept.
  static double LatitudeBandDegrees(double radius_m) {
    return radius_m / MetersPerDegreeLat() * (1.0 + 1e-9);
  }

  /// Whether every point of cell `cell` is provably within the query disc
  /// (interior: consumed whole), provably beyond it (exterior: skipped
  /// whole), or neither (boundary: filtered point by point) — the geo
  /// box–disc certificate on the cell's true point bounding box.
  BoxDisc CellVerdict(size_t cell, const DiscCertificate& disc) const {
    return disc.Classify(BoundingBox{cell_min_lat_[cell], cell_min_lon_[cell],
                                     cell_max_lat_[cell], cell_max_lon_[cell]});
  }

  /// Invokes `fn(cell_index)` for every non-empty cell intersecting `box`,
  /// in ascending cell-key order — the same (row, col) order the unsealed
  /// index scans.
  template <typename CellFn>
  void VisitCandidateCells(const BoundingBox& box, CellFn&& fn) const;

  /// The shared walk of the distinct-id queries: sets bit r of `marks`
  /// (one bit per rank, all clear on entry) for the rank r of every point
  /// within the radius — interior cells mark their unique-rank lists,
  /// boundary cells their accepted points — and returns the points within
  /// the radius.
  size_t MarkRanks(const LatLon& center, double radius_m, uint64_t* marks) const;

  /// Boundary-cell point filter over the SoA rows [begin, end): runs the
  /// SIMD-dispatched latitude-band select, then the equirectangular
  /// prefilter and the exact haversine (origin terms hoisted in `batch`,
  /// bit-identical to the scalar formula) on the survivors. Fills
  /// `accepted` (cleared first) with the cell-relative indices of the
  /// points inside the circle, ascending — the same points, in the same
  /// order, as the scalar per-point loop. `band_scratch` is caller-owned
  /// scratch reused across cells; `points_tested` (may be null) counts
  /// points that reached the haversine check.
  void FilterBoundaryCell(size_t begin, size_t end, const LatLon& center,
                          double radius_m, bool use_equirect,
                          double lat_band_deg, double prefilter_m,
                          const HaversineBatch& batch,
                          std::vector<uint32_t>& band_scratch,
                          size_t* points_tested,
                          std::vector<uint32_t>& accepted) const;

  BoundingBox bounds_;
  double cell_deg_ = 0.0;
  int64_t cols_ = 1;

  /// CSR over grid cells: cell_keys_ ascending; points of cell i live at
  /// [offsets_[i], offsets_[i+1]) of the SoA arrays below, in input order.
  /// A point's id is rank_ids_[ranks_[slot]].
  std::vector<int64_t> cell_keys_;
  std::vector<size_t> offsets_;
  NoFillVector<double> lats_;
  NoFillVector<double> lons_;
  NoFillVector<uint32_t> ranks_;

  /// The distinct payload ids, ascending: rank r is id rank_ids_[r].
  std::vector<uint64_t> rank_ids_;

  /// True point bounding box per cell (not the cell rectangle: clamped
  /// points keep out-of-bounds coordinates).
  std::vector<double> cell_min_lat_;
  std::vector<double> cell_max_lat_;
  std::vector<double> cell_min_lon_;
  std::vector<double> cell_max_lon_;

  /// Ascending unique ranks per cell, CSR again: cell i's ranks live at
  /// [rank_offsets_[i], rank_offsets_[i+1]) of unique_ranks_.
  std::vector<size_t> rank_offsets_;
  NoFillVector<uint32_t> unique_ranks_;
};

template <typename CellFn>
void SealedGridIndex::VisitCandidateCells(const BoundingBox& box, CellFn&& fn) const {
  if (cell_keys_.empty()) return;
  int64_t row0, row1, col0, col1;
  grid_internal::CellRangeFor(bounds_, cell_deg_, cols_, box, &row0, &row1, &col0,
                              &col1);
  for (int64_t r = row0; r <= row1; ++r) {
    const int64_t key_lo = r * cols_ + col0;
    const int64_t key_hi = r * cols_ + col1;
    auto it = std::lower_bound(cell_keys_.begin(), cell_keys_.end(), key_lo);
    for (; it != cell_keys_.end() && *it <= key_hi; ++it) {
      fn(static_cast<size_t>(it - cell_keys_.begin()));
    }
  }
}

template <typename Fn>
void SealedGridIndex::ForEachInRadius(const LatLon& center, double radius_m,
                                      Fn&& fn) const {
  const BoundingBox box = BoundingBoxForRadius(center, radius_m);
  const bool use_equirect = radius_m < kEquirectPrefilterMaxRadiusMeters;
  const double lat_band_deg = LatitudeBandDegrees(radius_m);
  const double prefilter_m = radius_m * kEquirectPrefilterMargin;
  const HaversineBatch batch(center);
  const DiscCertificate disc(center, radius_m);
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    const BoxDisc verdict = CellVerdict(cell, disc);
    if (verdict == BoxDisc::kInside) {
      for (size_t i = begin; i < end; ++i) {
        fn(IndexedPoint{LatLon{lats_[i], lons_[i]}, rank_ids_[ranks_[i]]});
      }
      return;
    }
    if (verdict == BoxDisc::kOutside) return;
    FilterBoundaryCell(begin, end, center, radius_m, use_equirect, lat_band_deg,
                       prefilter_m, batch, band_scratch, nullptr, accepted);
    for (const uint32_t rel : accepted) {
      const size_t i = begin + rel;
      fn(IndexedPoint{LatLon{lats_[i], lons_[i]}, rank_ids_[ranks_[i]]});
    }
  });
}

}  // namespace twimob::geo

#endif  // TWIMOB_GEO_SEALED_GRID_INDEX_H_
