// Epidemic what-if sweep scaling profile: builds an analysed snapshot,
// expands a >= 1000-scenario grid over its fitted OD matrices, and reports
//   * the sweep throughput (scenarios/s) and the 4-thread-pool-vs-serial
//     speedup, the number CI's perf-smoke job gates at >= 2x;
//   * the SIMD coupling kernel vs its scalar reference (micro-ratio).
// The bitwise contracts behind these numbers are epi_test's
// (ScenarioSweepThreadTest and SoaStepperMatchesLegacyModelBitwise run this
// grid on the same 20k-user snapshot; SeirKernelDifferentialTest the
// kernel); this binary only times them. `--json <path>` writes the profile
// (`BENCH_epi.json`).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "common/time_util.h"
#include "core/analysis_snapshot.h"
#include "epi/scenario_sweep.h"
#include "epi/seir_kernels.h"
#include "random/rng.h"

namespace twimob {
namespace {

/// The sweep cost is grid-bound, not corpus-bound; the snapshot build is
/// capped so huge TWIMOB_BENCH_USERS settings don't drown the measurement
/// in pipeline time. The cap is logged, never silent.
constexpr size_t kMaxEpiUsers = 150000;

/// The >= 1000-scenario profile grid (3 scales x 12 betas x 6 reductions x
/// 5 seed areas = 1080 scenarios, 100 simulated days each).
epi::SweepGrid ProfileGrid() {
  epi::SweepGrid grid;
  for (int b = 0; b < 12; ++b) grid.betas.push_back(0.25 + 0.04 * b);
  for (int m = 0; m < 6; ++m) grid.mobility_reductions.push_back(0.1 * m);
  grid.seed_areas = {0, 1, 2, 3, 4};
  grid.seed_count = 100.0;
  grid.steps = 400;
  return grid;
}

/// Synthetic CSR microbench fixture for the coupling kernel.
struct KernelFixture {
  std::vector<uint32_t> row_ptr;
  std::vector<uint32_t> col;
  std::vector<double> vals;
  std::vector<double> state;
  size_t num_areas = 0;
  size_t lanes = epi::kSweepLanes;
};

KernelFixture MakeKernelFixture(size_t num_areas) {
  KernelFixture f;
  f.num_areas = num_areas;
  random::Xoshiro256 rng(42);
  f.row_ptr.push_back(0);
  for (size_t i = 0; i < num_areas; ++i) {
    for (size_t j = 0; j < num_areas; ++j) {
      if (j != i && rng.Next() % 4 == 0) {
        f.col.push_back(static_cast<uint32_t>(j));
      }
    }
    f.row_ptr.push_back(static_cast<uint32_t>(f.col.size()));
  }
  f.vals.resize(f.col.size() * f.lanes);
  for (double& v : f.vals) v = rng.NextUniform(0.0, 0.01);
  f.state.resize(num_areas * f.lanes);
  for (double& s : f.state) s = rng.NextUniform(0.0, 300000.0);
  return f;
}

int Run(const char* json_path) {
  const double t_start = MonotonicSeconds();
  core::PipelineConfig config;
  config.corpus = bench::BenchCorpusConfig();
  if (config.corpus.num_users > kMaxEpiUsers) {
    std::fprintf(stderr,
                 "[perf_epi] capping corpus at %zu users (asked for %zu)\n",
                 kMaxEpiUsers, config.corpus.num_users);
    config.corpus.num_users = kMaxEpiUsers;
  }
  config.num_shards = 2;
  auto snapshot = core::AnalysisSnapshot::Build(config);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "[perf_epi] snapshot build failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const auto& sweep = snapshot->scenario_sweep();
  if (sweep == nullptr) {
    std::fprintf(stderr, "[perf_epi] snapshot has no sweep engine\n");
    return 1;
  }
  std::fprintf(stderr, "[perf_epi] snapshot: %zu users, %zu scales (%.1f s)\n",
               config.corpus.num_users, sweep->num_scales(),
               MonotonicSeconds() - t_start);

  const epi::SweepGrid grid = ProfileGrid();
  auto points = sweep->ExpandGrid(grid);
  if (!points.ok()) {
    std::fprintf(stderr, "[perf_epi] grid rejected: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  const size_t num_scenarios = points->size();

  // --- Sweep: serial vs a 4-thread pool. The 4-vs-serial speedup is the
  // CI-gated number (runners have 4 vCPUs).
  auto timed_sweep = [&](ThreadPool* pool) {
    const double t0 = MonotonicSeconds();
    const bool ok = sweep->Run(grid, pool).ok();
    return ok ? MonotonicSeconds() - t0 : -1.0;
  };
  const double serial_wall = timed_sweep(nullptr);
  ThreadPool pool4(4);
  const double pool4_wall = timed_sweep(&pool4);
  if (serial_wall < 0.0 || pool4_wall < 0.0) {
    std::fprintf(stderr, "[perf_epi] sweep failed\n");
    return 1;
  }
  const double speedup = pool4_wall > 0.0 ? serial_wall / pool4_wall : 0.0;
  std::fprintf(stderr,
               "[perf_epi] sweep %zu scenarios: serial %.2f s | pool4 %.2f s | "
               "speedup %.2fx\n",
               num_scenarios, serial_wall, pool4_wall, speedup);

  // --- Coupling-kernel microbench: scalar reference vs the SIMD path.
  const KernelFixture fixture = MakeKernelFixture(256);
  const size_t kernel_reps = 2000;
  std::vector<double> out(fixture.state.size(), 0.0);
  auto timed_kernel = [&](epi::seir_internal::CouplingKernelFn kernel) {
    const double t0 = MonotonicSeconds();
    for (size_t rep = 0; rep < kernel_reps; ++rep) {
      std::fill(out.begin(), out.end(), 0.0);
      kernel(fixture.row_ptr.data(), fixture.col.data(), fixture.vals.data(),
             fixture.num_areas, fixture.lanes, 0.25, fixture.state.data(),
             out.data());
    }
    return MonotonicSeconds() - t0;
  };
  const double scalar_wall = timed_kernel(epi::AccumulateCouplingScalar);
  const epi::seir_internal::CouplingKernelFn simd_kernel =
      epi::seir_internal::SimdCouplingKernel();
  const double simd_wall = simd_kernel != nullptr ? timed_kernel(simd_kernel) : 0.0;
  const double kernel_speedup = simd_wall > 0.0 ? scalar_wall / simd_wall : 1.0;
  std::fprintf(stderr,
               "[perf_epi] kernel (%s): scalar %.1f ms | simd %.1f ms | %.2fx\n",
               epi::CouplingKernelImplementation(), scalar_wall * 1e3,
               simd_wall * 1e3, kernel_speedup);

  if (json_path != nullptr) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "epi");
    json.Field("cpu_features", CpuFeaturesSummary(GetCpuFeatures()));
    json.Field("users", static_cast<uint64_t>(config.corpus.num_users));
    json.Field("scenarios", static_cast<uint64_t>(num_scenarios));
    json.Field("steps", static_cast<uint64_t>(grid.steps));
    json.BeginObject("sweep")
        .Field("serial_wall_s", serial_wall)
        .Field("pool4_wall_s", pool4_wall)
        .Field("scenarios_per_s",
               pool4_wall > 0.0 ? static_cast<double>(num_scenarios) / pool4_wall
                                : 0.0)
        .Field("speedup_4_vs_serial", speedup)
        .EndObject();
    json.BeginObject("kernels")
        .Field("implementation", epi::CouplingKernelImplementation())
        .Field("scalar_ms", scalar_wall * 1e3)
        .Field("simd_ms", simd_wall * 1e3)
        .Field("simd_vs_scalar", kernel_speedup)
        .EndObject();
    json.EndObject();
    const Status written = json.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "[perf_epi] json write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[perf_epi] wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace twimob

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  return twimob::Run(json_path);
}
