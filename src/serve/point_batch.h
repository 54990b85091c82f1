#ifndef TWIMOB_SERVE_POINT_BATCH_H_
#define TWIMOB_SERVE_POINT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "census/area.h"
#include "geo/geodesic.h"
#include "geo/latlon.h"

namespace twimob::serve {

/// The answer to one point-assignment query: the nearest area centre within
/// the scale's search radius ε, or none.
struct PointAssignment {
  /// Index into the scale's area list, or kNoArea when no centre is within ε.
  int32_t area = kNoArea;
  /// Great-circle distance to the assigned centre, metres (+inf when
  /// `area == kNoArea`).
  double distance_m = 0.0;

  static constexpr int32_t kNoArea = -1;
};

/// Assigns query points to the nearest area centre within ε, in either a
/// one-point scalar form or a SoA batched form that feeds the SIMD geodesic
/// kernels (SelectWithinLatBand + HaversineBatch).
///
/// Bit-identity contract: `AssignBatch` produces exactly the assignments
/// `AssignScalar` produces, point for point, in both kernel dispatch modes
/// (plain and TWIMOB_FORCE_SCALAR=1). Both paths measure distance with the
/// same centre-first expression — HaversineBatch(center).DistanceTo(pos),
/// i.e. HaversineMeters(center, pos) bit for bit — iterate centres in
/// ascending index order, and break ties identically (`d < best` strictly:
/// the lowest-indexed equidistant centre wins). The lat-band prefilter's
/// keep decision is the SelectWithinLatBand predicate in both paths, so a
/// reject in one path is a reject in the other.
///
/// Why this class keeps its own scan instead of mobility::AreaAssigner's
/// candidate grid: the batch path is organised centre by centre — one
/// SIMD lat-band select over the whole query column per centre, then one
/// hoisted-origin haversine batch over its survivors — and a per-point
/// grid lookup would break that column-wise shape. Both paths here also
/// fix the distance argument order as (center, pos), where AreaAssigner
/// evaluates HaversineMeters(pos, center); haversine's symmetry is
/// mathematical, not bitwise, so serve-layer assignments are
/// self-consistent rather than bit-matched to the trip extractor's (any
/// divergence is < 1 ulp of distance at the ε boundary).
class PointBatchAssigner {
 public:
  PointBatchAssigner(const std::vector<census::Area>& areas, double radius_m);

  /// Assigns one point (the unbatched reference path).
  PointAssignment AssignScalar(const geo::LatLon& pos) const;

  /// Assigns `n` points given in SoA form: per centre, one lat-band select
  /// over the whole query column, then one hoisted-origin haversine batch
  /// over the survivors. `out` must hold `n` entries; bit-identical to
  /// calling AssignScalar on each point.
  void AssignBatch(const double* lats, const double* lons, size_t n,
                   PointAssignment* out) const;

  size_t num_areas() const { return lats_.size(); }
  double radius_m() const { return radius_m_; }

 private:
  std::vector<double> lats_;
  std::vector<double> lons_;
  /// One hoisted-origin batch per centre, shared by both paths so the
  /// per-distance bits cannot depend on the path taken.
  std::vector<geo::HaversineBatch> batches_;
  double radius_m_ = 0.0;
  /// Exact meridian-leg reject threshold, degrees: great-circle distance
  /// is at least the meridian leg (1e-9 slack absorbs rounding).
  double lat_band_deg_ = 0.0;
};

}  // namespace twimob::serve

#endif  // TWIMOB_SERVE_POINT_BATCH_H_
