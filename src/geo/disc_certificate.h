#ifndef TWIMOB_GEO_DISC_CERTIFICATE_H_
#define TWIMOB_GEO_DISC_CERTIFICATE_H_

#include <cstdint>

#include "geo/bbox.h"
#include "geo/latlon.h"

namespace twimob::geo {

/// How every point of a latitude/longitude box relates to a disc.
enum class BoxDisc : uint8_t {
  kUnknown,  ///< not proved either way
  kInside,   ///< every point p of the box has HaversineMeters(p, c) <= ε
  kOutside,  ///< every point p of the box has HaversineMeters(p, c) > ε
};

/// The box–disc certificate: proves that a lat/lon box lies wholly inside,
/// or wholly outside, the great-circle disc of radius ε around a centre, as
/// HaversineMeters measures distance (either argument order, and so
/// HaversineBatch too). The sealed index's interior cells and the area
/// assigner's cell verdicts both rest on it.
///
/// The proof. Write φ, φc for the latitudes and Δλ for the longitude
/// offset; cos d/R = sin φ·sin φc + cos φ·cos φc·cos Δλ on the sphere.
///  * Along a parallel, cos φ·cos φc >= 0, so d grows with |Δλ| over
///    [0°, 180°]. With the box's offsets inside [-180°, 180°], every
///    latitude of the box is nearest at the box's smallest |Δλ| (0 when the
///    box spans the centre's meridian) and farthest at its largest.
///  * Along a meridian, cos d/R = C·cos(φ − φ0) for φ0 = atan2(sin φc,
///    cos φc·cos Δλ). When |Δλ| <= 90°, φ0 lies in [-90°, 90°], so over a
///    latitude interval d is largest at an end; d is smallest at φ0 if the
///    interval holds it (there sin d/R = cos φc·|sin Δλ|), else at an end.
///    The interval holds φ0 exactly when the slope −C·sin(φ − φ0) is
///    positive at its low end and negative at its high end.
/// So the farthest point is a corner on the far meridian, and the nearest
/// is the perpendicular foot or a corner on the near meridian (the nearest
/// latitude, exactly, when Δλ can be 0).
///
/// Rounding. The certificate compares haversine values sin²(d/2R) of the
/// exact geometry, computed in double precision, against the thresholds of
/// ε·(1 ∓ 1e-9) ∓ 1 µm. A double evaluation of the haversine formula is
/// within ~1e-14 relative and ~3e-8 m absolute of the true distance for
/// d <= R (the absolute part from cos φ near the poles) and stays above
/// R·(1 − 1e-8) beyond it, and the certificate's own arithmetic is as
/// close, so both margins hold by orders of magnitude. It decides nothing for ε beyond kEarthRadiusMeters (where
/// asin loses precision), for boxes outside [-90°, 90°] of latitude, wider
/// than 180° of longitude or across the centre's antipodal meridian, or for
/// any non-finite input; it proves "inside" only for boxes within 90° of
/// longitude of the centre.
class DiscCertificate {
 public:
  DiscCertificate(const LatLon& center, double radius_m);

  /// Whether every point of `box` (edges inclusive) is within ε, every one
  /// is beyond ε, or neither is proved.
  BoxDisc Classify(const BoundingBox& box) const;

 private:
  LatLon center_;
  bool decides_ = false;  ///< false: every box is kUnknown
  double sin_lat_ = 0.0;
  double cos_lat_ = 0.0;
  /// Haversine values at and beyond which the box is proved inside /
  /// outside (inside: every corner value <= in_h_; outside: the nearest
  /// value > out_h_), and the same thresholds as central angles (radians).
  double in_h_ = -1.0;
  double out_h_ = 2.0;
  double in_angle_ = -1.0;
  double out_angle_ = 4.0;
};

}  // namespace twimob::geo

#endif  // TWIMOB_GEO_DISC_CERTIFICATE_H_
