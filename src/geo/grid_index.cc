#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesic.h"

namespace twimob::geo {

namespace grid_internal {

Result<int64_t> GridColumns(const BoundingBox& bounds, double cell_deg) {
  if (!bounds.IsValid()) {
    return Status::InvalidArgument("GridIndex bounds invalid: " + bounds.ToString());
  }
  if (!(cell_deg > 0.0)) {
    return Status::InvalidArgument("GridIndex cell size must be positive");
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil((bounds.max_lon - bounds.min_lon) / cell_deg)));
}

}  // namespace grid_internal

Result<GridIndex> GridIndex::Create(const BoundingBox& bounds, double cell_deg) {
  TWIMOB_ASSIGN_OR_RETURN(const int64_t cols,
                          grid_internal::GridColumns(bounds, cell_deg));
  return GridIndex(bounds, cell_deg, cols);
}

void GridIndex::Insert(const IndexedPoint& point) {
  cells_[CellKey(point.pos)].push_back(point);
  ++size_;
}

void GridIndex::InsertAll(const std::vector<IndexedPoint>& points) {
  // Real corpora put well over 8 points into the average occupied cell, so
  // batch/8 buckets over-provisions; rehashing on growth stays the rare case.
  cells_.reserve(cells_.size() + points.size() / 8 + 1);
  for (const auto& p : points) Insert(p);
}

std::vector<IndexedPoint> GridIndex::QueryRadius(const LatLon& center,
                                                 double radius_m) const {
  std::vector<IndexedPoint> out;
  ForEachInRadius(center, radius_m, [&out](const IndexedPoint& p) { out.push_back(p); });
  return out;
}

size_t GridIndex::CountRadius(const LatLon& center, double radius_m) const {
  size_t n = 0;
  ForEachInRadius(center, radius_m, [&n](const IndexedPoint&) { ++n; });
  return n;
}

std::vector<IndexedPoint> GridIndex::QueryBox(const BoundingBox& box) const {
  std::vector<IndexedPoint> out;
  int64_t row0, row1, col0, col1;
  CellRange(box, &row0, &row1, &col0, &col1);
  for (int64_t r = row0; r <= row1; ++r) {
    for (int64_t c = col0; c <= col1; ++c) {
      auto it = cells_.find(r * cols_ + c);
      if (it == cells_.end()) continue;
      for (const IndexedPoint& p : it->second) {
        if (box.Contains(p.pos)) out.push_back(p);
      }
    }
  }
  return out;
}

}  // namespace twimob::geo
