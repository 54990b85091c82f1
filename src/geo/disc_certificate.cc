#include "geo/disc_certificate.h"

#include <algorithm>
#include <cmath>

namespace twimob::geo {

namespace {

/// Relative and absolute (metres) margins between ε and the thresholds the
/// certificate proves against; see the class comment.
constexpr double kRelMargin = 1e-9;
constexpr double kAbsMarginM = 1e-6;
/// Meridian slopes within this of zero leave the perpendicular foot's side
/// undecided (their rounding is ~1e-15), so the foot's distance is used.
constexpr double kSlopeTol = 1e-12;

/// sin²(angle / 2) of an angle in degrees: the haversine of a coordinate
/// offset.
double Hav(double deg) {
  const double s = std::sin(deg * kDegToRad / 2.0);
  return s * s;
}

}  // namespace

DiscCertificate::DiscCertificate(const LatLon& center, double radius_m)
    : center_(center) {
  decides_ = std::fabs(center.lat) <= 90.0 && std::isfinite(center.lon) &&
             radius_m >= 0.0 && radius_m <= kEarthRadiusMeters;
  if (!decides_) return;
  sin_lat_ = std::sin(center.lat * kDegToRad);
  cos_lat_ = std::cos(center.lat * kDegToRad);
  const double in_m = radius_m * (1.0 - kRelMargin) - kAbsMarginM;
  if (in_m > 0.0) {
    in_angle_ = in_m / kEarthRadiusMeters;
    const double s = std::sin(in_angle_ / 2.0);
    in_h_ = s * s;
  }
  out_angle_ = (radius_m * (1.0 + kRelMargin) + kAbsMarginM) / kEarthRadiusMeters;
  const double s = std::sin(out_angle_ / 2.0);
  out_h_ = s * s;
}

BoxDisc DiscCertificate::Classify(const BoundingBox& box) const {
  if (!decides_) return BoxDisc::kUnknown;
  const double lo = box.min_lat;
  const double hi = box.max_lat;
  if (!(lo >= -90.0 && hi <= 90.0 && lo <= hi)) return BoxDisc::kUnknown;
  // The box's longitude offsets from the centre, brought into [-180, 180].
  double w0 = box.min_lon - center_.lon;
  double w1 = box.max_lon - center_.lon;
  if (!(w0 <= w1 && w1 - w0 <= 180.0)) return BoxDisc::kUnknown;
  if (w1 > 180.0) {
    w0 -= 360.0;
    w1 -= 360.0;
  } else if (w0 < -180.0) {
    w0 += 360.0;
    w1 += 360.0;
  }
  if (!(w0 >= -180.0 && w1 <= 180.0)) return BoxDisc::kUnknown;

  // Cheap bounds first, with no trigonometry: every point is at least the
  // latitude gap away, and the far corners at least the far latitude.
  const double gap =
      center_.lat < lo ? lo - center_.lat : (center_.lat > hi ? center_.lat - hi : 0.0);
  if (gap * kDegToRad > out_angle_) return BoxDisc::kOutside;
  const double far_lat = std::max(std::fabs(lo - center_.lat), std::fabs(hi - center_.lat));
  const double far = std::max(std::fabs(w0), std::fabs(w1));
  const double near = w0 <= 0.0 && w1 >= 0.0 ? 0.0 : std::min(std::fabs(w0), std::fabs(w1));
  // Every point is also at least as far as the near meridian's great
  // circle: sin d/R = cos φc·sin|Δλ| >= cos φc·(x − x³/6) for x = |Δλ| in
  // radians, and asin s >= s.
  const double x = near * kDegToRad;
  if (cos_lat_ * (x - x * x * x / 6.0) > out_angle_) return BoxDisc::kOutside;
  const bool may_be_inside = far <= 90.0 && far_lat * kDegToRad <= in_angle_;
  // On the centre's meridian the nearest point is exactly the gap away.
  const bool may_be_outside = near > 0.0;
  if (!may_be_inside && !may_be_outside) return BoxDisc::kUnknown;

  const double cos_lo = std::cos(lo * kDegToRad);
  const double cos_hi = std::cos(hi * kDegToRad);
  const double hav_lo = Hav(lo - center_.lat);
  const double hav_hi = Hav(hi - center_.lat);
  // The haversine value at the box's two corners on the meridian `dlon`.
  const auto corners = [&](double dlon, double* at_lo, double* at_hi) {
    const double h = Hav(dlon) * cos_lat_;
    *at_lo = hav_lo + cos_lo * h;
    *at_hi = hav_hi + cos_hi * h;
  };
  if (may_be_inside) {
    double at_lo, at_hi;
    corners(far, &at_lo, &at_hi);
    if (at_lo <= in_h_ && at_hi <= in_h_) return BoxDisc::kInside;
  }
  if (may_be_outside) {
    const double cos_near = std::cos(near * kDegToRad);
    const double slope_lo = sin_lat_ * cos_lo - cos_lat_ * cos_near * std::sin(lo * kDegToRad);
    const double slope_hi = sin_lat_ * cos_hi - cos_lat_ * cos_near * std::sin(hi * kDegToRad);
    double nearest;
    if (slope_lo < -kSlopeTol || slope_hi > kSlopeTol) {
      // The perpendicular foot is off the interval: the nearer corner.
      double at_lo, at_hi;
      corners(near, &at_lo, &at_hi);
      nearest = std::min(at_lo, at_hi);
    } else {
      // The foot, the nearest point of the whole meridian: sin d/R = s.
      const double s = cos_lat_ * std::sin(near * kDegToRad);
      nearest = s * s / (2.0 * (1.0 + std::sqrt(std::max(0.0, 1.0 - s * s))));
    }
    if (nearest > out_h_) return BoxDisc::kOutside;
  }
  return BoxDisc::kUnknown;
}

}  // namespace twimob::geo
