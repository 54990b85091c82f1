// Ablation A5 (google-benchmark): model-fitting and trip-extraction
// throughput — the analytical hot paths of the pipeline.
//
// `--json <path>` skips google-benchmark and writes the machine-readable
// model-fit profile (`BENCH_models.json`: wall time per fit for each model
// and observation scale, trip-extraction throughput, distance-matrix build
// time) via bench::JsonWriter. CI's perf-smoke job uploads it as an
// artifact.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "census/census_data.h"
#include "common/cpu_features.h"
#include "common/time_util.h"
#include "mobility/gravity_model.h"
#include "mobility/radiation_model.h"
#include "mobility/trip_extractor.h"
#include "random/rng.h"
#include "stats/regression.h"

namespace twimob::mobility {
namespace {

std::vector<FlowObservation> SyntheticObservations(size_t n) {
  random::Xoshiro256 rng(3);
  std::vector<FlowObservation> obs;
  obs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FlowObservation o;
    o.src = i % 20;
    o.dst = (i * 7 + 1) % 20;
    if (o.dst == o.src) o.dst = (o.dst + 1) % 20;
    o.m = std::pow(10.0, rng.NextUniform(3.0, 6.5));
    o.n = std::pow(10.0, rng.NextUniform(3.0, 6.5));
    o.d_meters = std::pow(10.0, rng.NextUniform(4.0, 6.5));
    o.flow = std::pow(10.0, rng.NextUniform(0.0, 4.0));
    obs.push_back(o);
  }
  return obs;
}

void BM_GravityFit4P(benchmark::State& state) {
  const auto obs = SyntheticObservations(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto model = GravityModel::Fit(obs, GravityVariant::kFourParam);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GravityFit4P)->Arg(380)->Arg(10000);

void BM_GravityFit2P(benchmark::State& state) {
  const auto obs = SyntheticObservations(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto model = GravityModel::Fit(obs, GravityVariant::kTwoParam);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GravityFit2P)->Arg(380)->Arg(10000);

void BM_RadiationFit(benchmark::State& state) {
  const auto obs = SyntheticObservations(static_cast<size_t>(state.range(0)));
  const auto areas = census::AreasForScale(census::Scale::kNational);
  std::vector<double> masses;
  for (const auto& a : areas) masses.push_back(a.population);
  for (auto _ : state) {
    auto model = RadiationModel::Fit(obs, areas, masses);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadiationFit)->Arg(380);

void BM_InterveningPopulation(benchmark::State& state) {
  const auto areas = census::AreasForScale(census::Scale::kNational);
  std::vector<double> masses;
  for (const auto& a : areas) masses.push_back(a.population);
  for (auto _ : state) {
    double total = 0.0;
    for (size_t i = 0; i < areas.size(); ++i) {
      for (size_t j = 0; j < areas.size(); ++j) {
        if (i == j) continue;
        total += RadiationModel::InterveningPopulation(areas, masses, i, j,
                                                       500000.0);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_InterveningPopulation);

void BM_OlsSolve(benchmark::State& state) {
  random::Xoshiro256 rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> design;
  std::vector<double> y;
  for (size_t i = 0; i < n; ++i) {
    design.push_back({1.0, rng.NextGaussian(), rng.NextGaussian(),
                      rng.NextGaussian()});
    y.push_back(rng.NextGaussian());
  }
  for (auto _ : state) {
    auto fit = stats::OlsSolve(design, y);
    benchmark::DoNotOptimize(fit.ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_OlsSolve)->Arg(1000)->Arg(100000);

/// A corpus-shaped dataset: users hopping among national city centres.
tweetdb::TweetDataset TripDataset(size_t rows,
                                  const std::vector<census::Area>& areas) {
  random::Xoshiro256 rng(9);
  tweetdb::TweetTable table;
  uint64_t user = 1;
  size_t emitted = 0;
  while (emitted < rows) {
    const size_t tweets = 1 + rng.NextUint64(20);
    for (size_t k = 0; k < tweets && emitted < rows; ++k) {
      const auto& a = areas[rng.NextUint64(areas.size())];
      (void)table.Append(tweetdb::Tweet{
          user, static_cast<int64_t>(1378000000 + emitted),
          geo::LatLon{a.center.lat + rng.NextGaussian() * 0.05,
                      a.center.lon + rng.NextGaussian() * 0.05}});
      ++emitted;
    }
    ++user;
  }
  table.CompactByUserTime();
  return tweetdb::TweetDataset::FromTable(std::move(table));
}

void BM_TripExtraction(benchmark::State& state) {
  const auto areas = census::AreasForScale(census::Scale::kNational);
  const size_t rows = static_cast<size_t>(state.range(0));
  const tweetdb::TweetDataset dataset = TripDataset(rows, areas);
  ThreadPool pool(1);
  for (auto _ : state) {
    auto od = ExtractTrips(dataset, areas, 50000.0, pool);
    benchmark::DoNotOptimize(od.ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_TripExtraction)->Arg(100000)->Arg(1000000);

template <typename Fn>
double BestOfSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const double t0 = MonotonicSeconds();
    fn();
    best = std::min(best, MonotonicSeconds() - t0);
  }
  return best;
}

/// The machine-readable model-fit profile behind `--json`.
int RunJsonProfile(const char* json_path) {
  const auto areas = census::AreasForScale(census::Scale::kNational);
  std::vector<double> masses;
  for (const auto& a : areas) masses.push_back(a.population);

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "models");
  json.Field("cpu_features", CpuFeaturesSummary(GetCpuFeatures()));

  json.BeginArray("fits");
  for (const size_t n_obs : {size_t{380}, size_t{10000}}) {
    const auto obs = SyntheticObservations(n_obs);
    const double fit4p_s = BestOfSeconds(5, [&] {
      auto model = GravityModel::Fit(obs, GravityVariant::kFourParam);
      benchmark::DoNotOptimize(model.ok());
    });
    const double fit2p_s = BestOfSeconds(5, [&] {
      auto model = GravityModel::Fit(obs, GravityVariant::kTwoParam);
      benchmark::DoNotOptimize(model.ok());
    });
    const double radiation_s = BestOfSeconds(5, [&] {
      auto model = RadiationModel::Fit(obs, areas, masses);
      benchmark::DoNotOptimize(model.ok());
    });
    std::fprintf(stderr,
                 "[perf_models] %zu obs: gravity4p %.2f ms | gravity2p %.2f ms "
                 "| radiation %.2f ms\n",
                 n_obs, fit4p_s * 1e3, fit2p_s * 1e3, radiation_s * 1e3);
    json.BeginObject()
        .Field("observations", static_cast<uint64_t>(n_obs))
        .Field("gravity_4p_ms", fit4p_s * 1e3)
        .Field("gravity_2p_ms", fit2p_s * 1e3)
        .Field("radiation_ms", radiation_s * 1e3)
        .EndObject();
  }
  json.EndArray();

  // OLS at the regression scales the population estimator uses.
  json.BeginArray("ols");
  random::Xoshiro256 rng(5);
  for (const size_t n : {size_t{1000}, size_t{100000}}) {
    std::vector<std::vector<double>> design;
    std::vector<double> y;
    for (size_t i = 0; i < n; ++i) {
      design.push_back(
          {1.0, rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian()});
      y.push_back(rng.NextGaussian());
    }
    const double ols_s = BestOfSeconds(5, [&] {
      auto fit = stats::OlsSolve(design, y);
      benchmark::DoNotOptimize(fit.ok());
    });
    json.BeginObject()
        .Field("rows", static_cast<uint64_t>(n))
        .Field("solve_ms", ols_s * 1e3)
        .EndObject();
  }
  json.EndArray();

  // Trip extraction and the (now batched-haversine) distance matrix.
  const size_t kTripRows = 100000;
  const tweetdb::TweetDataset dataset = TripDataset(kTripRows, areas);
  ThreadPool pool(1);
  const double trips_s = BestOfSeconds(3, [&] {
    auto od = ExtractTrips(dataset, areas, 50000.0, pool);
    benchmark::DoNotOptimize(od.ok());
  });
  const double dist_matrix_s = BestOfSeconds(5, [&] {
    AreaDistanceMatrix distances(areas);
    benchmark::DoNotOptimize(distances.size());
  });
  std::fprintf(stderr,
               "[perf_models] trip extraction %.1f ms (%zu rows) | distance "
               "matrix %.3f ms (%zu areas)\n",
               trips_s * 1e3, kTripRows, dist_matrix_s * 1e3, areas.size());
  json.BeginObject("trips")
      .Field("rows", static_cast<uint64_t>(kTripRows))
      .Field("extract_ms", trips_s * 1e3)
      .Field("rows_per_s", static_cast<double>(kTripRows) / trips_s)
      .EndObject();
  json.BeginObject("distance_matrix")
      .Field("areas", static_cast<uint64_t>(areas.size()))
      .Field("build_ms", dist_matrix_s * 1e3)
      .EndObject();
  json.EndObject();
  const Status written = json.WriteFile(json_path);
  if (!written.ok()) {
    std::fprintf(stderr, "[perf_models] json write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[perf_models] wrote %s\n", json_path);
  return 0;
}

}  // namespace
}  // namespace twimob::mobility

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      // Remove both arguments so google-benchmark never sees them.
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  if (json_path != nullptr) {
    return twimob::mobility::RunJsonProfile(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
