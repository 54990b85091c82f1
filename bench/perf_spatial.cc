// Ablation A3: spatial-index comparison for the ε-radius queries the
// population pipeline performs — sealed CSR grid vs unsealed grid vs
// linear scan at the paper's radii (0.5 / 2 / 25 / 50 km), over a
// clustered synthetic point set (default 1M points; override with
// TWIMOB_SPATIAL_POINTS). The sealed index is built the pipeline's way,
// directly (SealedGridIndex::Build), timed on one thread and on a pool of
// TWIMOB_THREADS (default: hardware concurrency) threads. The "Fused"
// column times the one-walk points + distinct-ids count the population
// queries use.
//
// The exit code enforces the speedup: at ε = 50 km on ≥ 1M points the
// sealed count must be at least 2x faster than the unsealed one (the
// interior-cell contract). That both indexes answer alike — points, order,
// distinct ids, the fused walk — is geo_test's SealedBuildTest, on this
// binary's point set at 100k points.
//
// `--json <path>` writes the machine-readable profile (per-query wall
// times, speedups, interior/boundary cell breakdown, build times, corpus
// size, storage format version) for the CI artifact upload.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/time_util.h"
#include "core/analysis_context.h"
#include "geo/bbox.h"
#include "geo/geodesic.h"
#include "geo/grid_index.h"
#include "geo/sealed_grid_index.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"

namespace twimob {
namespace {

size_t PointCount() {
  const char* value = std::getenv("TWIMOB_SPATIAL_POINTS");
  if (value == nullptr) return 1000000;
  auto parsed = ParseInt64(value);
  if (!parsed.ok() || *parsed <= 0) return 1000000;
  return static_cast<size_t>(*parsed);
}

std::vector<geo::IndexedPoint> RandomPoints(size_t n) {
  random::Xoshiro256 rng(7);
  // ~13 points per id, mirroring the corpus' tweets-per-user ratio so the
  // distinct-id queries exercise real duplicate merging.
  const uint64_t num_ids = std::max<uint64_t>(1, n / 13);
  std::vector<geo::IndexedPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Clustered around Sydney with a broad national background, mimicking
    // the corpus distribution the pipeline actually queries.
    if (rng.NextBernoulli(0.6)) {
      pts.push_back(geo::IndexedPoint{
          geo::LatLon{-33.87 + rng.NextGaussian() * 0.3,
                      151.21 + rng.NextGaussian() * 0.3},
          i % num_ids});
    } else {
      pts.push_back(geo::IndexedPoint{
          geo::LatLon{rng.NextUniform(-44.0, -10.0), rng.NextUniform(113.0, 154.0)},
          i % num_ids});
    }
  }
  return pts;
}

constexpr geo::LatLon kQueryCenter{-33.8688, 151.2093};
constexpr double kRadiiMeters[] = {500.0, 2000.0, 25000.0, 50000.0};
constexpr double kCellDegrees = 0.05;

/// Mean wall time per call, microseconds. One warmup call, then repeats
/// until at least `min_reps` calls and `min_seconds` of elapsed time.
template <typename Fn>
double TimePerCallUs(Fn&& fn, size_t min_reps = 5, double min_seconds = 0.05) {
  bench::timing_sink = bench::timing_sink + fn();
  size_t reps = 0;
  const double t0 = MonotonicSeconds();
  double elapsed = 0.0;
  do {
    bench::timing_sink = bench::timing_sink + fn();
    ++reps;
    elapsed = MonotonicSeconds() - t0;
  } while (reps < min_reps || elapsed < min_seconds);
  return elapsed / static_cast<double>(reps) * 1e6;
}

size_t HashDistinctIds(const geo::GridIndex& index, const geo::LatLon& center,
                       double radius_m) {
  std::unordered_set<uint64_t> ids;
  index.ForEachInRadius(center, radius_m,
                        [&ids](const geo::IndexedPoint& p) { ids.insert(p.id); });
  return ids.size();
}

int Run(const char* json_path) {
  const size_t n = PointCount();
  std::fprintf(stderr, "[perf_spatial] generating %zu points...\n", n);
  const auto pts = RandomPoints(n);

  // The reference: the mutable grid, loaded point by point.
  double t = MonotonicSeconds();
  auto index = geo::GridIndex::Create(geo::AustraliaBoundingBox(), kCellDegrees);
  if (!index.ok()) {
    std::fprintf(stderr, "grid create failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  index->InsertAll(pts);
  const double insert_ms = (MonotonicSeconds() - t) * 1e3;

  // The direct build, on one thread and on the pool: the best of 5 builds
  // each (freeing the index included). The first builds in a fresh process
  // run on cold allocator memory (page faults, and on the pool fresh
  // per-thread arenas) and vary by 2-3x, so one build does not decide the
  // number.
  auto best_build_ms = [&pts](ThreadPool* pool) {
    return 1e3 * bench::BestOfSeconds(5, [&] {
             auto built = geo::SealedGridIndex::Build(geo::AustraliaBoundingBox(),
                                                      kCellDegrees, pts, pool);
             return built.ok() ? built->size() : 0;
           });
  };
  const double build_1t_ms = best_build_ms(nullptr);
  const size_t threads = core::AnalysisContext::DefaultThreadCount();
  ThreadPool pool(threads);
  const double build_nt_ms = best_build_ms(&pool);
  auto built = geo::SealedGridIndex::Build(geo::AustraliaBoundingBox(), kCellDegrees,
                                           pts, &pool);
  if (!built.ok()) {
    std::fprintf(stderr, "direct build failed\n");
    return 1;
  }
  const geo::SealedGridIndex& sealed = *built;

  std::printf("SPATIAL INDEX PERF — %zu points, cell %.2f°\n", n, kCellDegrees);
  std::printf("build: reference insert %.1f ms; direct build %.1f ms on 1 thread, "
              "%.1f ms on %zu threads (%.2fx, %zu cells)\n",
              insert_ms, build_1t_ms, build_nt_ms, threads,
              build_1t_ms / build_nt_ms, sealed.num_nonempty_cells());

  // Geodesic kernel micro-profile: batched-origin haversine over the SoA
  // columns vs the pairwise scalar call, and the SIMD-dispatched lat-band
  // select vs its scalar reference.
  const size_t kGeodesicProbe = std::min<size_t>(n, 200000);
  std::vector<double> probe_lats(kGeodesicProbe), probe_lons(kGeodesicProbe);
  for (size_t i = 0; i < kGeodesicProbe; ++i) {
    probe_lats[i] = pts[i].pos.lat;
    probe_lons[i] = pts[i].pos.lon;
  }
  std::vector<double> dists(kGeodesicProbe);
  const geo::HaversineBatch batch(kQueryCenter);
  const double batch_us = TimePerCallUs([&] {
    batch.DistancesTo(probe_lats.data(), probe_lons.data(), kGeodesicProbe,
                      dists.data());
    return static_cast<size_t>(dists[0]);
  });
  const double pairwise_us = TimePerCallUs([&] {
    for (size_t i = 0; i < kGeodesicProbe; ++i) {
      dists[i] = geo::HaversineMeters(
          kQueryCenter, geo::LatLon{probe_lats[i], probe_lons[i]});
    }
    return static_cast<size_t>(dists[0]);
  });
  std::vector<uint32_t> band_simd, band_scalar;
  const double band_us = TimePerCallUs([&] {
    band_simd.clear();
    geo::SelectWithinLatBand(probe_lats.data(), kGeodesicProbe, kQueryCenter.lat,
                             0.45, &band_simd);
    return band_simd.size();
  });
  const double band_scalar_us = TimePerCallUs([&] {
    band_scalar.clear();
    geo::SelectWithinLatBandScalar(probe_lats.data(), kGeodesicProbe,
                                   kQueryCenter.lat, 0.45, &band_scalar);
    return band_scalar.size();
  });
  const double mpts = static_cast<double>(kGeodesicProbe);  // points per call
  std::printf(
      "geodesic kernels (%s): haversine batch %.1f Mpt/s (pairwise %.1f), "
      "lat-band select %s %.0f Mpt/s (scalar %.0f, %.1fx)\n",
      geo::LatBandKernelImplementation(), mpts / batch_us, mpts / pairwise_us,
      geo::LatBandKernelImplementation(), mpts / band_us, mpts / band_scalar_us,
      band_scalar_us / band_us);

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "spatial");
  json.Field("num_points", n);
  json.Field("cell_degrees", kCellDegrees);
  json.Field("format_version", static_cast<uint64_t>(tweetdb::kBinaryFormatVersion));
  json.BeginObject("kernels")
      .Field("latband_implementation", geo::LatBandKernelImplementation())
      .Field("latband_select_mpts_per_s", mpts / band_us)
      .Field("latband_scalar_mpts_per_s", mpts / band_scalar_us)
      .Field("latband_simd_speedup", band_scalar_us / band_us)
      .Field("haversine_batch_mpts_per_s", mpts / batch_us)
      .Field("haversine_pairwise_mpts_per_s", mpts / pairwise_us)
      .EndObject();
  // `seal_ms` is the one-thread direct build of the sealed index.
  json.BeginObject("build")
      .Field("insert_ms", insert_ms)
      .Field("seal_ms", build_1t_ms)
      .Field("build_threads", threads)
      .Field("build_nt_ms", build_nt_ms)
      .Field("build_speedup", build_1t_ms / build_nt_ms)
      .Field("nonempty_cells", sealed.num_nonempty_cells())
      .EndObject();

  TablePrinter tp({"Radius", "Count", "Unsealed", "Sealed", "Fused", "Linear",
                   "Speedup", "Interior cells"});
  double speedup_50km = 0.0;
  json.BeginArray("queries");
  for (const double radius : kRadiiMeters) {
    geo::RadiusQueryProfile profile;
    const size_t count = sealed.CountRadiusProfiled(kQueryCenter, radius, &profile);

    const double unsealed_us =
        TimePerCallUs([&] { return index->CountRadius(kQueryCenter, radius); });
    const double sealed_us =
        TimePerCallUs([&] { return sealed.CountRadius(kQueryCenter, radius); });
    const double linear_us = TimePerCallUs(
        [&] {
          size_t c = 0;
          for (const auto& p : pts) {
            if (geo::HaversineMeters(kQueryCenter, p.pos) <= radius) ++c;
          }
          return c;
        },
        2, 0.02);
    const double distinct_unsealed_us = TimePerCallUs(
        [&] { return HashDistinctIds(*index, kQueryCenter, radius); }, 2, 0.02);
    const double distinct_sealed_us = TimePerCallUs(
        [&] { return sealed.CountDistinctIds(kQueryCenter, radius); }, 2, 0.02);
    const double fused_us = TimePerCallUs(
        [&] {
          const geo::RadiusCounts c = sealed.CountRadiusAndDistinctIds(kQueryCenter, radius);
          return c.points + c.distinct_ids;
        },
        2, 0.02);

    const double speedup = sealed_us > 0.0 ? unsealed_us / sealed_us : 0.0;
    if (radius == 50000.0) speedup_50km = speedup;

    tp.AddRow({StrFormat("%.1f km", radius / 1000.0), StrFormat("%zu", count),
               StrFormat("%9.1f us", unsealed_us), StrFormat("%9.1f us", sealed_us),
               StrFormat("%9.1f us", fused_us), StrFormat("%9.1f us", linear_us),
               StrFormat("%.1fx", speedup),
               StrFormat("%zu/%zu", profile.cells_interior,
                         profile.cells_candidate)});

    json.BeginObject()
        .Field("radius_m", radius)
        .Field("count", count)
        .Field("unsealed_us", unsealed_us)
        .Field("sealed_us", sealed_us)
        .Field("linear_us", linear_us)
        .Field("distinct_unsealed_us", distinct_unsealed_us)
        .Field("distinct_sealed_us", distinct_sealed_us)
        .Field("fused_us", fused_us)
        .Field("speedup_sealed_vs_unsealed", speedup)
        .Field("cells_candidate", profile.cells_candidate)
        .Field("cells_interior", profile.cells_interior)
        .Field("cells_boundary", profile.cells_boundary)
        .Field("points_interior", profile.points_interior)
        .Field("points_tested", profile.points_tested)
        .EndObject();
  }
  json.EndArray();
  std::printf("%s", tp.ToString().c_str());

  // The ≥2x acceptance gate only binds at the 1M-point scale the criterion
  // names; smaller runs (CI smoke) report but do not enforce it.
  const bool enforce_speedup = n >= 1000000;
  const bool speedup_ok = !enforce_speedup || speedup_50km >= 2.0;
  std::printf("SPEEDUP AT 50 km: %.1fx sealed vs unsealed%s\n", speedup_50km,
              enforce_speedup ? (speedup_ok ? " (>= 2x gate PASSED)"
                                            : " (>= 2x gate FAILED)")
                              : " (gate not enforced below 1M points)");

  json.BeginObject("verdict")
      .Field("speedup_50km", speedup_50km)
      .Field("speedup_gate_enforced", enforce_speedup)
      .Field("speedup_gate_passed", speedup_ok)
      .EndObject();
  json.EndObject();
  if (json_path != nullptr) {
    const Status written = json.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[perf_spatial] wrote %s\n", json_path);
  }
  return speedup_ok ? 0 : 1;
}

}  // namespace
}  // namespace twimob

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  return twimob::Run(json_path);
}
