#ifndef TWIMOB_GEO_SEALED_GRID_INDEX_H_
#define TWIMOB_GEO_SEALED_GRID_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/bbox.h"
#include "geo/geodesic.h"
#include "geo/grid_index.h"
#include "geo/latlon.h"

namespace twimob::geo {

/// Per-query cell/point breakdown of a sealed radius query — exposed so the
/// spatial bench and the tests can assert that the interior-cell fast path
/// actually fires.
struct RadiusQueryProfile {
  size_t cells_candidate = 0;  ///< non-empty cells inside the coarse box
  size_t cells_interior = 0;   ///< cells consumed without per-point checks
  size_t cells_boundary = 0;   ///< cells filtered point by point
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
/// structure-of-arrays point store (lat / lon / id) sorted by cell key, an
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
/// * *interior* — a rigorous spherical upper bound on the distance from the
///   centre to any point of the cell is within the radius: the cell is
///   consumed with no per-point distance check (counting is O(1) per cell);
/// * *boundary* — points run an exact latitude-band reject and a cheap
///   equirectangular prefilter before the exact haversine test.
///
/// Both filters are conservative (they can only skip points the haversine
/// test would reject), so results stay byte-identical to `GridIndex`.
///
/// Each cell also carries its sorted-unique payload-id list, letting
/// `CountDistinctIds` merge interior cells without hashing — the
/// population estimator's unique-user counts ride on this.
class SealedGridIndex {
 public:
  /// Copies input points [begin, end), in input order, into `out`. Called
  /// concurrently for disjoint ranges when the build runs on a pool.
  using PointReader =
      std::function<void(size_t begin, size_t end, IndexedPoint* out)>;

  /// Builds the index over `bounds` with `cell_deg`-degree cells from
  /// `num_points` input points, read through `read` twice (once to count
  /// cells, once to scatter). The build is a stable counting sort: per-point
  /// cell keys over fixed ranges of the input, cell counts with a prefix
  /// sum in input order, a scatter into the SoA arrays, then per-cell
  /// bounding boxes and sorted-unique id lists. Every phase is chunked by
  /// a constant, never by the thread count, and each writes disjoint
  /// slots, so the index is byte-identical with or without `pool` and for
  /// any pool size, and answers every query exactly as a `GridIndex`
  /// loaded in the same order does. Fails like GridIndex::Create on
  /// invalid bounds or cell size.
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
  /// the candidate cells: interior cells add their size and merge their
  /// pre-sorted unique id lists (no hashing); boundary cells are filtered
  /// once and their survivors feed both counts. Equal to the pair
  /// (CountRadius, CountDistinctIds) on every query. `also_ids`, when
  /// non-null, is a sorted-unique id list counted into `distinct_ids` as
  /// well (ids found both ways count once) — how indexes over disjoint
  /// points (a snapshot's runs) answer one distinct count together.
  RadiusCounts CountRadiusAndDistinctIds(
      const LatLon& center, double radius_m,
      const std::vector<uint64_t>* also_ids = nullptr) const;

  /// The walk of CountRadiusAndDistinctIds, keeping the ids: `ids`
  /// receives the sorted-unique payload ids within the radius (its size is
  /// the `distinct_ids` count), and the number of points within the radius
  /// is returned.
  size_t CollectDistinctIds(const LatLon& center, double radius_m,
                            std::vector<uint64_t>* ids) const;

  /// Invokes `fn(point)` for every point within the radius, in the same
  /// order as the unsealed index.
  template <typename Fn>
  void ForEachInRadius(const LatLon& center, double radius_m, Fn&& fn) const;

  size_t size() const { return ids_.size(); }
  const BoundingBox& bounds() const { return bounds_; }
  double cell_deg() const { return cell_deg_; }

  /// Number of non-empty cells (diagnostics / bench).
  size_t num_nonempty_cells() const { return cell_keys_.size(); }

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

  /// True iff every point of cell `cell` is provably within `radius_m` of
  /// `center`: upper-bounds the distance by a meridian leg plus a parallel
  /// leg (triangle inequality on the sphere) over the cell's true point
  /// bounding box. The 1e-9 slack keeps the bound safe against rounding in
  /// the haversine the boundary path would have computed.
  bool CellInsideCircle(size_t cell, const LatLon& center, double radius_m) const {
    const double dlat = std::max(std::fabs(cell_min_lat_[cell] - center.lat),
                                 std::fabs(cell_max_lat_[cell] - center.lat));
    const double dlon = std::max(std::fabs(cell_min_lon_[cell] - center.lon),
                                 std::fabs(cell_max_lon_[cell] - center.lon));
    // cos(lat) is maximised at the cell latitude closest to the equator.
    const double lo = cell_min_lat_[cell], hi = cell_max_lat_[cell];
    const double eq_lat = (lo <= 0.0 && hi >= 0.0)
                              ? 0.0
                              : std::min(std::fabs(lo), std::fabs(hi));
    const double upper =
        dlat * MetersPerDegreeLat() + dlon * MetersPerDegreeLon(eq_lat);
    return upper <= radius_m * (1.0 - 1e-9);
  }

  /// Invokes `fn(cell_index)` for every non-empty cell intersecting `box`,
  /// in ascending cell-key order — the same (row, col) order the unsealed
  /// index scans.
  template <typename CellFn>
  void VisitCandidateCells(const BoundingBox& box, CellFn&& fn) const;

  /// The shared walk of the distinct-id queries: returns the points within
  /// the radius, fills `interior_cells` with the cells consumed whole and
  /// `boundary_ids` with the sorted-unique ids of the boundary cells'
  /// accepted points.
  size_t WalkDistinct(const LatLon& center, double radius_m,
                      std::vector<size_t>* interior_cells,
                      std::vector<uint64_t>* boundary_ids) const;

  /// Heap-merges the sorted-unique id lists of `cells` (two or more) into
  /// `merged`: O(M log k) with no hashing, M the total list length.
  void MergeCellIds(const std::vector<size_t>& cells,
                    std::vector<uint64_t>* merged) const;

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
  std::vector<int64_t> cell_keys_;
  std::vector<size_t> offsets_;
  std::vector<double> lats_;
  std::vector<double> lons_;
  std::vector<uint64_t> ids_;

  /// True point bounding box per cell (not the cell rectangle: clamped
  /// points keep out-of-bounds coordinates).
  std::vector<double> cell_min_lat_;
  std::vector<double> cell_max_lat_;
  std::vector<double> cell_min_lon_;
  std::vector<double> cell_max_lon_;

  /// Sorted-unique payload ids per cell, CSR again: cell i's ids live at
  /// [id_offsets_[i], id_offsets_[i+1]) of unique_ids_.
  std::vector<size_t> id_offsets_;
  std::vector<uint64_t> unique_ids_;
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
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    if (CellInsideCircle(cell, center, radius_m)) {
      for (size_t i = begin; i < end; ++i) {
        fn(IndexedPoint{LatLon{lats_[i], lons_[i]}, ids_[i]});
      }
      return;
    }
    FilterBoundaryCell(begin, end, center, radius_m, use_equirect, lat_band_deg,
                       prefilter_m, batch, band_scratch, nullptr, accepted);
    for (const uint32_t rel : accepted) {
      const size_t i = begin + rel;
      fn(IndexedPoint{LatLon{lats_[i], lons_[i]}, ids_[i]});
    }
  });
}

}  // namespace twimob::geo

#endif  // TWIMOB_GEO_SEALED_GRID_INDEX_H_
