#include "geo/disc_certificate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geo/geodesic.h"
#include "random/rng.h"

namespace twimob::geo {
namespace {

/// Where a property case draws its centre and box.
enum class Region { kAnywhere, kEquator, kAntimeridian, kPole };

const char* RegionName(Region r) {
  switch (r) {
    case Region::kAnywhere:
      return "anywhere";
    case Region::kEquator:
      return "equator";
    case Region::kAntimeridian:
      return "antimeridian";
    case Region::kPole:
      return "pole";
  }
  return "?";
}

double LogUniform(random::Xoshiro256& rng, double lo, double hi) {
  return std::exp(rng.NextUniform(std::log(lo), std::log(hi)));
}

struct Case {
  LatLon center;
  double radius_m = 0.0;
  BoundingBox box;
};

/// A random centre in `region`, ε log-uniform in [1 m, 500 km], and a box
/// of about ε's size or smaller placed within ~1.5 ε of the centre, so the
/// cases mix inside, outside and straddling boxes.
Case RandomCase(random::Xoshiro256& rng, Region region) {
  Case c;
  c.radius_m = LogUniform(rng, 1.0, 500e3);
  const double eps_deg = c.radius_m / MetersPerDegreeLat();
  switch (region) {
    case Region::kAnywhere:
      c.center = LatLon{rng.NextUniform(-89.0, 89.0), rng.NextUniform(-180.0, 180.0)};
      break;
    case Region::kEquator:
      c.center = LatLon{rng.NextUniform(-1.0, 1.0) * eps_deg, rng.NextUniform(-180.0, 180.0)};
      break;
    case Region::kAntimeridian:
      c.center = LatLon{rng.NextUniform(-60.0, 60.0),
                        rng.NextUniform(0.0, 1.0) < 0.5 ? rng.NextUniform(179.0, 180.0)
                                                        : rng.NextUniform(-180.0, -179.0)};
      break;
    case Region::kPole:
      c.center = LatLon{(rng.NextUniform(0.0, 1.0) < 0.5 ? 1.0 : -1.0) *
                            (90.0 - LogUniform(rng, 1e-7, 5.0)),
                        rng.NextUniform(-180.0, 180.0)};
      break;
  }
  const double cos_lat = std::max(std::cos(c.center.lat * kDegToRad), 0.02);
  const double lat_span = eps_deg * LogUniform(rng, 1e-3, 1.5);
  const double lon_span = std::min(
      170.0, eps_deg / cos_lat * LogUniform(rng, 1e-3, 1.5) * rng.NextUniform(0.3, 3.0));
  double mid_lat = c.center.lat + rng.NextUniform(-1.5, 1.5) * eps_deg;
  if (region == Region::kEquator) mid_lat = rng.NextUniform(-0.5, 0.5) * lat_span;
  double mid_lon = c.center.lon + rng.NextUniform(-1.5, 1.5) * eps_deg / cos_lat;
  if (region == Region::kAntimeridian) {
    // A box on the far side of ±180 from the centre, possibly across it.
    mid_lon = (c.center.lon > 0.0 ? -180.0 : 180.0) +
              rng.NextUniform(-1.5, 1.5) * eps_deg / cos_lat;
  }
  c.box.min_lat = std::max(-90.0, mid_lat - lat_span / 2);
  c.box.max_lat = std::min(90.0, mid_lat + lat_span / 2);
  if (region == Region::kPole && rng.NextUniform(0.0, 1.0) < 0.3) {
    // Boxes that reach the pole itself.
    if (c.center.lat > 0.0) {
      c.box.max_lat = 90.0;
    } else {
      c.box.min_lat = -90.0;
    }
  }
  if (c.box.min_lat > c.box.max_lat) std::swap(c.box.min_lat, c.box.max_lat);
  c.box.min_lon = mid_lon - lon_span / 2;
  c.box.max_lon = mid_lon + lon_span / 2;
  return c;
}

/// The points of `box` a verdict is checked on: its corners, points on
/// every edge, interior points, and the box points nearest and farthest
/// from the centre along its near and far meridians (the perpendicular
/// foot, clamped to the box).
std::vector<LatLon> SamplePoints(random::Xoshiro256& rng, const Case& c) {
  const BoundingBox& b = c.box;
  std::vector<LatLon> pts;
  for (const double lat : {b.min_lat, b.max_lat}) {
    for (const double lon : {b.min_lon, b.max_lon}) pts.push_back(LatLon{lat, lon});
  }
  for (int i = 0; i < 6; ++i) {
    const double lat = rng.NextUniform(b.min_lat, b.max_lat);
    const double lon = rng.NextUniform(b.min_lon, b.max_lon);
    pts.push_back(LatLon{lat, b.min_lon});
    pts.push_back(LatLon{lat, b.max_lon});
    pts.push_back(LatLon{b.min_lat, lon});
    pts.push_back(LatLon{b.max_lat, lon});
    pts.push_back(LatLon{rng.NextUniform(b.min_lat, b.max_lat),
                         rng.NextUniform(b.min_lon, b.max_lon)});
  }
  // On the centre's meridian, if the box spans it.
  for (const double shift : {-360.0, 0.0, 360.0}) {
    const double lon = c.center.lon + shift;
    if (lon >= b.min_lon && lon <= b.max_lon) {
      pts.push_back(LatLon{std::clamp(c.center.lat, b.min_lat, b.max_lat), lon});
    }
  }
  // The perpendicular foot on each edge meridian, clamped to the box.
  for (const double lon : {b.min_lon, b.max_lon}) {
    const double dlon = (lon - c.center.lon) * kDegToRad;
    const double foot =
        std::atan2(std::sin(c.center.lat * kDegToRad),
                   std::cos(c.center.lat * kDegToRad) * std::cos(dlon)) *
        kRadToDeg;
    const double lat = std::clamp(foot, b.min_lat, b.max_lat);
    pts.push_back(LatLon{lat, lon});
    pts.push_back(LatLon{std::nextafter(lat, b.min_lat), lon});
    pts.push_back(LatLon{std::nextafter(lat, b.max_lat), lon});
  }
  return pts;
}

/// The property: a box certified inside has every sampled point within ε
/// (in both argument orders), one certified outside has none.
void CheckRegion(Region region, uint64_t seed, size_t cases) {
  random::Xoshiro256 rng(seed);
  size_t inside = 0;
  size_t outside = 0;
  for (size_t k = 0; k < cases; ++k) {
    const Case c = RandomCase(rng, region);
    const BoxDisc verdict = DiscCertificate(c.center, c.radius_m).Classify(c.box);
    if (verdict == BoxDisc::kUnknown) continue;
    (verdict == BoxDisc::kInside ? inside : outside) += 1;
    for (const LatLon& p : SamplePoints(rng, c)) {
      const bool within = HaversineMeters(p, c.center) <= c.radius_m;
      const bool within_rev = HaversineMeters(c.center, p) <= c.radius_m;
      ASSERT_EQ(within, verdict == BoxDisc::kInside)
          << RegionName(region) << " case " << k << ": centre " << c.center
          << " r=" << c.radius_m << " box " << c.box.ToString() << " point " << p
          << " d=" << HaversineMeters(p, c.center);
      ASSERT_EQ(within_rev, within) << p;
    }
  }
  // The property is not vacuous: every region proves both ways often.
  EXPECT_GT(inside, cases / 50) << RegionName(region);
  EXPECT_GT(outside, cases / 50) << RegionName(region);
}

TEST(DiscCertificateTest, VerdictsHoldAnywhere) { CheckRegion(Region::kAnywhere, 1, 20000); }
TEST(DiscCertificateTest, VerdictsHoldAcrossTheEquator) {
  CheckRegion(Region::kEquator, 2, 20000);
}
TEST(DiscCertificateTest, VerdictsHoldAcrossTheAntimeridian) {
  CheckRegion(Region::kAntimeridian, 3, 20000);
}
TEST(DiscCertificateTest, VerdictsHoldNearThePoles) { CheckRegion(Region::kPole, 4, 20000); }

TEST(DiscCertificateTest, CornerAtTheRadiusIsNeverInside) {
  const LatLon c{-33.8688, 151.2093};
  for (const double r : {1.0, 2000.0, 50000.0, 500000.0}) {
    for (const double bearing : {10.0, 45.0, 135.0, 260.0}) {
      const LatLon p = DestinationPoint(c, bearing, r);
      const BoundingBox box{std::min(c.lat, p.lat), std::min(c.lon, p.lon),
                            std::max(c.lat, p.lat), std::max(c.lon, p.lon)};
      // The box's far corner sits at ε up to rounding: proving it inside
      // would need more than the margin allows, and a box a little smaller
      // is inside.
      EXPECT_NE(DiscCertificate(c, r).Classify(box), BoxDisc::kInside) << r;
      const double shrink = 0.99;
      const BoundingBox smaller{c.lat + (box.min_lat - c.lat) * shrink,
                                c.lon + (box.min_lon - c.lon) * shrink,
                                c.lat + (box.max_lat - c.lat) * shrink,
                                c.lon + (box.max_lon - c.lon) * shrink};
      EXPECT_EQ(DiscCertificate(c, r).Classify(smaller), BoxDisc::kInside) << r;
    }
  }
}

TEST(DiscCertificateTest, NearestPointCanBeInsideAnEdge) {
  // Centre at 60°N; the box's near meridian is 8.84° east, its latitudes
  // [50°, 70°]. Both near corners are over 1000 km away, but the meridian's
  // perpendicular foot (north of the centre's latitude) is ~490 km away.
  const LatLon c{60.0, 0.0};
  const BoundingBox box{50.0, 8.84, 70.0, 9.84};
  const double r = 500000.0;
  const double foot = std::atan2(std::sin(60.0 * kDegToRad),
                                 std::cos(60.0 * kDegToRad) * std::cos(8.84 * kDegToRad)) *
                      kRadToDeg;
  ASSERT_GT(foot, 60.0);
  EXPECT_LT(HaversineMeters(LatLon{foot, 8.84}, c), r);
  EXPECT_GT(HaversineMeters(LatLon{50.0, 8.84}, c), 2 * r);
  EXPECT_GT(HaversineMeters(LatLon{70.0, 8.84}, c), r);
  EXPECT_EQ(DiscCertificate(c, r).Classify(box), BoxDisc::kUnknown);
  // Farther east the foot itself is beyond ε.
  EXPECT_EQ(DiscCertificate(c, r).Classify(BoundingBox{50.0, 10.0, 70.0, 11.0}),
            BoxDisc::kOutside);
}

TEST(DiscCertificateTest, WrapsAcrossTheAntimeridian) {
  const LatLon c{0.0, 179.9};
  EXPECT_EQ(DiscCertificate(c, 50000.0).Classify(BoundingBox{-0.01, -179.95, 0.01, -179.9}),
            BoxDisc::kInside);
  EXPECT_EQ(DiscCertificate(c, 5000.0).Classify(BoundingBox{-0.01, -179.95, 0.01, -179.9}),
            BoxDisc::kOutside);
  // A box across the centre's antipodal meridian is never decided.
  EXPECT_EQ(DiscCertificate(LatLon{0.0, 0.0}, 5000.0)
                .Classify(BoundingBox{-1.0, 179.0, 1.0, 181.0}),
            BoxDisc::kUnknown);
}

TEST(DiscCertificateTest, UndecidableInputsAreUnknown) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BoundingBox box{-34.0, 151.0, -33.9, 151.1};
  const LatLon c{-33.95, 151.05};
  EXPECT_EQ(DiscCertificate(c, 50000.0).Classify(box), BoxDisc::kInside);
  EXPECT_EQ(DiscCertificate(LatLon{nan, 151.0}, 50000.0).Classify(box), BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(LatLon{-33.9, inf}, 50000.0).Classify(box), BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(c, nan).Classify(box), BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(c, 2.0 * kEarthRadiusMeters).Classify(box), BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(c, 50000.0).Classify(BoundingBox{nan, 151.0, -33.9, 151.1}),
            BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(c, 50000.0).Classify(BoundingBox{-34.0, 151.0, -33.9, inf}),
            BoxDisc::kUnknown);
  EXPECT_EQ(DiscCertificate(c, 50000.0).Classify(BoundingBox{-91.0, 151.0, -33.9, 151.1}),
            BoxDisc::kUnknown);
}

/// The interior bound the sealed index used before the certificate: a
/// meridian leg plus a parallel leg at the cell's most equatorial latitude.
bool L1BoundInside(const BoundingBox& b, const LatLon& c, double r) {
  const double dlat = std::max(std::fabs(b.min_lat - c.lat), std::fabs(b.max_lat - c.lat));
  const double dlon = std::max(std::fabs(b.min_lon - c.lon), std::fabs(b.max_lon - c.lon));
  const double eq_lat = (b.min_lat <= 0.0 && b.max_lat >= 0.0)
                            ? 0.0
                            : std::min(std::fabs(b.min_lat), std::fabs(b.max_lat));
  return dlat * MetersPerDegreeLat() + dlon * MetersPerDegreeLon(eq_lat) <= r * (1.0 - 1e-9);
}

TEST(DiscCertificateTest, AcceptsEveryCellTheL1BoundAccepted) {
  // Point boxes inside 0.05° grid cells (the sealed index's cells) around
  // centres at any latitude up to 80°, the equator included.
  random::Xoshiro256 rng(25);
  size_t l1 = 0;
  size_t certified = 0;
  for (int k = 0; k < 4000; ++k) {
    const LatLon c{k % 4 == 0 ? rng.NextUniform(-0.2, 0.2) : rng.NextUniform(-80.0, 80.0),
                   rng.NextUniform(-170.0, 170.0)};
    const double r = LogUniform(rng, 1000.0, 500e3);
    const BoundingBox reach = BoundingBoxForRadius(c, r);
    for (int i = 0; i < 30; ++i) {
      const double lat0 = std::floor(rng.NextUniform(reach.min_lat, reach.max_lat) / 0.05) * 0.05;
      const double lon0 = std::floor(rng.NextUniform(reach.min_lon, reach.max_lon) / 0.05) * 0.05;
      double a = rng.NextUniform(0.0, 0.05), b = rng.NextUniform(0.0, 0.05);
      double e = rng.NextUniform(0.0, 0.05), f = rng.NextUniform(0.0, 0.05);
      const BoundingBox cell{lat0 + std::min(a, b), lon0 + std::min(e, f),
                             lat0 + std::max(a, b), lon0 + std::max(e, f)};
      const bool inside = DiscCertificate(c, r).Classify(cell) == BoxDisc::kInside;
      if (L1BoundInside(cell, c, r)) {
        ++l1;
        ASSERT_TRUE(inside) << c << " r=" << r << " cell " << cell.ToString();
      }
      certified += inside ? 1 : 0;
    }
  }
  EXPECT_GT(l1, 1000u);
  EXPECT_GT(certified, l1);
}

}  // namespace
}  // namespace twimob::geo
