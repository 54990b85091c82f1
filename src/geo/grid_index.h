#ifndef TWIMOB_GEO_GRID_INDEX_H_
#define TWIMOB_GEO_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "geo/bbox.h"
#include "geo/geodesic.h"
#include "geo/latlon.h"

namespace twimob::geo {

/// A point with an opaque payload id (e.g. a row id in the tweet store or a
/// user id).
struct IndexedPoint {
  LatLon pos;
  uint64_t id = 0;
};

namespace grid_internal {

/// Column count of a grid over `bounds` with `cell_deg`-degree cells, or
/// InvalidArgument for invalid bounds or a non-positive cell size. Shared
/// by GridIndex::Create and SealedGridIndex::Build so both accept the same
/// grids.
Result<int64_t> GridColumns(const BoundingBox& bounds, double cell_deg);

/// Cell key (`row * cols + col`) of `p` on a grid over `bounds` with
/// `cell_deg`-degree cells. Out-of-bounds points clamp into the edge cells.
/// Shared by the mutable and sealed indexes so both bucket identically.
inline int64_t CellKeyFor(const BoundingBox& bounds, double cell_deg, int64_t cols,
                          const LatLon& p) {
  const double lat = std::clamp(p.lat, bounds.min_lat, bounds.max_lat);
  const double lon = std::clamp(p.lon, bounds.min_lon, bounds.max_lon);
  const int64_t row = static_cast<int64_t>((lat - bounds.min_lat) / cell_deg);
  int64_t col = static_cast<int64_t>((lon - bounds.min_lon) / cell_deg);
  col = std::min(col, cols - 1);
  return row * cols + col;
}

/// Row/column range of the cells intersecting `box`, clamped to `bounds`.
/// Shared by the mutable and sealed indexes so both scan the same cells.
inline void CellRangeFor(const BoundingBox& bounds, double cell_deg, int64_t cols,
                         const BoundingBox& box, int64_t* row0, int64_t* row1,
                         int64_t* col0, int64_t* col1) {
  const double lat0 = std::clamp(box.min_lat, bounds.min_lat, bounds.max_lat);
  const double lat1 = std::clamp(box.max_lat, bounds.min_lat, bounds.max_lat);
  const double lon0 = std::clamp(box.min_lon, bounds.min_lon, bounds.max_lon);
  const double lon1 = std::clamp(box.max_lon, bounds.min_lon, bounds.max_lon);
  *row0 = static_cast<int64_t>((lat0 - bounds.min_lat) / cell_deg);
  *row1 = static_cast<int64_t>((lat1 - bounds.min_lat) / cell_deg);
  *col0 = static_cast<int64_t>((lon0 - bounds.min_lon) / cell_deg);
  *col1 =
      std::min(static_cast<int64_t>((lon1 - bounds.min_lon) / cell_deg), cols - 1);
}

}  // namespace grid_internal

/// A uniform latitude/longitude grid index over a fixed bounding box.
///
/// Points are bucketed into square-degree cells; a radius query scans only
/// the cells intersecting the circumscribing box of the query circle and
/// verifies candidates with the haversine distance. This is the index the
/// population/mobility pipeline uses for its ε-radius aggregations (50 km /
/// 25 km / 2 km / 0.5 km in the paper).
///
/// The analysis pipeline queries a `SealedGridIndex` instead — an
/// immutable CSR form with interior/boundary cell classification, built
/// directly from the points (`SealedGridIndex::Build`), that answers the
/// same queries byte-identically but much faster. This mutable index is the
/// reference the tests and benches hold that build to.
class GridIndex {
 public:
  /// Creates an index over `bounds` with cells of `cell_deg` degrees on each
  /// axis. Fails for invalid bounds or non-positive cell size.
  static Result<GridIndex> Create(const BoundingBox& bounds, double cell_deg);

  /// Inserts a point. Points outside the bounds are clamped into the edge
  /// cells (they remain retrievable; their true coordinates are kept).
  void Insert(const IndexedPoint& point);

  /// Bulk insertion; reserves hash-map capacity from the batch size.
  void InsertAll(const std::vector<IndexedPoint>& points);

  /// All points within `radius_m` metres (inclusive) of `center`.
  std::vector<IndexedPoint> QueryRadius(const LatLon& center, double radius_m) const;

  /// Number of points within the radius, without materialising them.
  size_t CountRadius(const LatLon& center, double radius_m) const;

  /// Invokes `fn(point)` for every point within the radius.
  template <typename Fn>
  void ForEachInRadius(const LatLon& center, double radius_m, Fn&& fn) const;

  /// All points whose coordinates fall inside `box`.
  std::vector<IndexedPoint> QueryBox(const BoundingBox& box) const;

  size_t size() const { return size_; }
  const BoundingBox& bounds() const { return bounds_; }
  double cell_deg() const { return cell_deg_; }

  /// Number of non-empty cells (diagnostics / bench).
  size_t num_nonempty_cells() const { return cells_.size(); }

 private:
  GridIndex(const BoundingBox& bounds, double cell_deg, int64_t cols)
      : bounds_(bounds), cell_deg_(cell_deg), cols_(cols) {}

  int64_t CellKey(const LatLon& p) const {
    return grid_internal::CellKeyFor(bounds_, cell_deg_, cols_, p);
  }
  void CellRange(const BoundingBox& box, int64_t* row0, int64_t* row1, int64_t* col0,
                 int64_t* col1) const {
    grid_internal::CellRangeFor(bounds_, cell_deg_, cols_, box, row0, row1, col0,
                                col1);
  }

  BoundingBox bounds_;
  double cell_deg_;
  int64_t cols_;
  size_t size_ = 0;
  std::unordered_map<int64_t, std::vector<IndexedPoint>> cells_;
};

template <typename Fn>
void GridIndex::ForEachInRadius(const LatLon& center, double radius_m, Fn&& fn) const {
  const BoundingBox box = BoundingBoxForRadius(center, radius_m);
  int64_t row0, row1, col0, col1;
  CellRange(box, &row0, &row1, &col0, &col1);
  for (int64_t r = row0; r <= row1; ++r) {
    for (int64_t c = col0; c <= col1; ++c) {
      auto it = cells_.find(r * cols_ + c);
      if (it == cells_.end()) continue;
      for (const IndexedPoint& p : it->second) {
        if (HaversineMeters(center, p.pos) <= radius_m) fn(p);
      }
    }
  }
}

}  // namespace twimob::geo

#endif  // TWIMOB_GEO_GRID_INDEX_H_
