#include "geo/latlon.h"

#include <cmath>

#include "common/string_util.h"

namespace twimob::geo {

bool LatLon::IsValid() const {
  return std::isfinite(lat) && std::isfinite(lon) && lat >= -90.0 && lat <= 90.0 &&
         lon >= -180.0 && lon <= 180.0;
}

std::string LatLon::ToString() const {
  return StrFormat("(%.6f, %.6f)", lat, lon);
}

std::ostream& operator<<(std::ostream& os, const LatLon& p) {
  return os << p.ToString();
}

int32_t DegreesToFixed(double degrees) {
  return static_cast<int32_t>(std::lround(degrees * kFixedPointScale));
}

}  // namespace twimob::geo
