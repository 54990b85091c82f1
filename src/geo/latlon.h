#ifndef TWIMOB_GEO_LATLON_H_
#define TWIMOB_GEO_LATLON_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace twimob::geo {

/// Degrees/radians conversion constants.
inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kDegToRad = kPi / 180.0;
inline constexpr double kRadToDeg = 180.0 / kPi;

/// Mean Earth radius (WGS-84 authalic sphere), metres.
inline constexpr double kEarthRadiusMeters = 6371008.8;

/// A WGS-84 geographic coordinate in degrees.
///
/// latitude in [-90, 90], longitude in [-180, 180]. The struct is a passive
/// value type; validity can be checked with IsValid().
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  /// True iff both components are finite and inside the WGS-84 envelope.
  bool IsValid() const;

  /// "(-33.868000, 151.209000)" with 6 decimal places (~0.1 m).
  std::string ToString() const;

  friend bool operator==(const LatLon& a, const LatLon& b) {
    return a.lat == b.lat && a.lon == b.lon;
  }
};

std::ostream& operator<<(std::ostream& os, const LatLon& p);

/// Fixed-point representation used by the columnar store: degrees scaled by
/// 1e6 into int32 (resolution ≈ 0.11 m, range covers ±180°).
inline constexpr double kFixedPointScale = 1e6;

/// Converts degrees to the store's fixed-point representation (round to
/// nearest).
int32_t DegreesToFixed(double degrees);

/// Converts the store's fixed-point representation back to degrees (inline:
/// the row walks decode every row with it).
inline double FixedToDegrees(int32_t fixed) {
  return static_cast<double>(fixed) / kFixedPointScale;
}

}  // namespace twimob::geo

#endif  // TWIMOB_GEO_LATLON_H_
