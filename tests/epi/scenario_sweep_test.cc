#include "epi/scenario_sweep.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/analysis_snapshot.h"
#include "epi/seir.h"
#include "epi/seir_kernels.h"
#include "random/rng.h"

namespace twimob::epi {
namespace {

const std::vector<double> kChainPop = {100000.0, 50000.0, 20000.0};

mobility::OdMatrix ChainFlows() {
  auto flows = mobility::OdMatrix::Create(3);
  flows->AddFlow(0, 1, 100.0);
  flows->AddFlow(1, 0, 100.0);
  flows->AddFlow(1, 2, 50.0);
  flows->AddFlow(2, 1, 50.0);
  return *flows;
}

/// A 12-area matrix with irregular structure: zero rows, zero entries and
/// wildly different magnitudes, so the CSR lowering's edge elision and
/// row-skip paths all get exercised.
mobility::OdMatrix RandomFlows(size_t n, uint64_t seed) {
  auto flows = mobility::OdMatrix::Create(n);
  random::Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) continue;  // isolated area: zero out-flow row
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (rng.Next() % 3 == 0) continue;  // sparse zeros
      flows->SetFlow(i, j, rng.NextUniform(0.5, 900.0));
    }
  }
  return *flows;
}

std::vector<double> RandomPopulations(size_t n, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  std::vector<double> populations(n);
  for (double& p : populations) p = rng.NextUniform(5000.0, 400000.0);
  return populations;
}

ScenarioSweep TwoScaleSweep() {
  std::vector<SweepScaleInput> inputs;
  inputs.push_back(SweepScaleInput{"chain", kChainPop, ChainFlows()});
  inputs.push_back(
      SweepScaleInput{"random12", RandomPopulations(12, 7), RandomFlows(12, 8)});
  auto sweep = ScenarioSweep::Create(std::move(inputs));
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();
  return std::move(*sweep);
}

/// A sweep engine and, per scale, the populations and flows the legacy
/// single-scenario model re-runs it from.
struct SweepInputs {
  std::shared_ptr<const ScenarioSweep> sweep;
  std::vector<std::vector<double>> populations;
  std::vector<mobility::OdMatrix> flows;
};

SweepInputs TwoScaleInputs() {
  return SweepInputs{std::make_shared<const ScenarioSweep>(TwoScaleSweep()),
                     {kChainPop, RandomPopulations(12, 7)},
                     {ChainFlows(), RandomFlows(12, 8)}};
}

/// The sweep of an analysed 20k-user, 2-shard snapshot (bench/perf_epi's),
/// built once per process; the legacy side reads each scale's census
/// populations and observed flows back from the serving tables.
SweepInputs SnapshotInputs() {
  static const SweepInputs* const inputs = [] {
    core::PipelineConfig config;
    config.corpus.num_users = 20000;
    config.corpus.seed = 20150413;
    config.num_shards = 2;
    auto snapshot = core::AnalysisSnapshot::Build(config);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto* built = new SweepInputs{snapshot->scenario_sweep(), {}, {}};
    for (size_t s = 0; s < snapshot->serving_tables().size(); ++s) {
      const core::ScaleServingTables& tables = snapshot->serving_tables()[s];
      std::vector<double>& populations = built->populations.emplace_back();
      for (const census::Area& area : snapshot->specs()[s].areas) {
        populations.push_back(area.population);
      }
      mobility::OdMatrix& flows =
          built->flows.emplace_back(*mobility::OdMatrix::Create(tables.num_areas));
      for (size_t i = 0; i < tables.num_areas; ++i) {
        for (size_t j = 0; j < tables.num_areas; ++j) {
          flows.SetFlow(i, j, tables.observed[i * tables.num_areas + j]);
        }
      }
    }
    return built;
  }();
  return *inputs;
}

/// bench/perf_epi's grid over the snapshot: 3 scales x 12 betas x 6
/// reductions x 5 seed areas = 1080 scenarios of 400 steps.
SweepGrid SnapshotGrid() {
  SweepGrid grid;
  for (int b = 0; b < 12; ++b) grid.betas.push_back(0.25 + 0.04 * b);
  for (int m = 0; m < 6; ++m) grid.mobility_reductions.push_back(0.1 * m);
  grid.seed_areas = {0, 1, 2, 3, 4};
  grid.seed_count = 100.0;
  grid.steps = 400;
  return grid;
}

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.betas = {0.35, 0.8};
  grid.mobility_reductions = {0.0, 0.3, 1.0};
  grid.seed_areas = {0, 2};
  grid.seed_count = 50.0;
  grid.steps = 200;
  return grid;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectResultsBitEqual(const std::vector<ScenarioResult>& a,
                           const std::vector<ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.scale, b[i].point.scale);
    EXPECT_TRUE(BitEqual(a[i].point.beta, b[i].point.beta));
    EXPECT_TRUE(
        BitEqual(a[i].point.mobility_reduction, b[i].point.mobility_reduction));
    EXPECT_EQ(a[i].point.seed_area, b[i].point.seed_area);
    EXPECT_TRUE(BitEqual(a[i].final_totals.t, b[i].final_totals.t));
    EXPECT_TRUE(BitEqual(a[i].final_totals.s, b[i].final_totals.s));
    EXPECT_TRUE(BitEqual(a[i].final_totals.e, b[i].final_totals.e));
    EXPECT_TRUE(BitEqual(a[i].final_totals.i, b[i].final_totals.i));
    EXPECT_TRUE(BitEqual(a[i].final_totals.r, b[i].final_totals.r));
    EXPECT_TRUE(BitEqual(a[i].peak_infectious, b[i].peak_infectious));
    EXPECT_TRUE(BitEqual(a[i].peak_day, b[i].peak_day));
    EXPECT_TRUE(BitEqual(a[i].attack_rate, b[i].attack_rate));
    ASSERT_EQ(a[i].arrival_day.size(), b[i].arrival_day.size());
    for (size_t j = 0; j < a[i].arrival_day.size(); ++j) {
      EXPECT_TRUE(BitEqual(a[i].arrival_day[j], b[i].arrival_day[j]));
    }
  }
}

TEST(ScenarioSweepCreateTest, RejectsInvalidInputs) {
  EXPECT_FALSE(ScenarioSweep::Create({}).ok());

  std::vector<SweepScaleInput> no_areas;
  no_areas.push_back(SweepScaleInput{"empty", {}, *mobility::OdMatrix::Create(1)});
  EXPECT_FALSE(ScenarioSweep::Create(std::move(no_areas)).ok());

  std::vector<SweepScaleInput> mismatched;
  mismatched.push_back(
      SweepScaleInput{"mismatch", {1000.0, 1000.0}, *mobility::OdMatrix::Create(3)});
  EXPECT_FALSE(ScenarioSweep::Create(std::move(mismatched)).ok());

  std::vector<SweepScaleInput> bad_pop;
  bad_pop.push_back(
      SweepScaleInput{"badpop", {1000.0, 0.0, 1000.0}, ChainFlows()});
  EXPECT_FALSE(ScenarioSweep::Create(std::move(bad_pop)).ok());

  auto negative = mobility::OdMatrix::Create(3);
  negative->SetFlow(0, 1, 10.0);
  negative->SetFlow(0, 2, -4.0);
  std::vector<SweepScaleInput> bad_flow;
  bad_flow.push_back(SweepScaleInput{"badflow", kChainPop, *negative});
  EXPECT_FALSE(ScenarioSweep::Create(std::move(bad_flow)).ok());
}

TEST(ScenarioSweepExpandTest, ValidatesGridAxes) {
  const ScenarioSweep sweep = TwoScaleSweep();
  SweepGrid good = SmallGrid();
  EXPECT_TRUE(sweep.ExpandGrid(good).ok());

  SweepGrid grid = good;
  grid.betas.clear();
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());

  grid = good;
  grid.mobility_reductions = {1.5};
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());

  grid = good;
  grid.betas = {-0.1};
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());

  grid = good;
  grid.scales = {5};
  EXPECT_TRUE(sweep.ExpandGrid(grid).status().IsOutOfRange());

  grid = good;
  grid.seed_areas = {11};  // valid for random12, out of range for chain
  EXPECT_TRUE(sweep.ExpandGrid(grid).status().IsOutOfRange());

  grid = good;
  grid.seed_count = kChainPop[2] + 1.0;  // exceeds the smallest seed area
  grid.seed_areas = {2};
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());

  grid = good;
  grid.base.dt = 0.0;
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());

  grid = good;
  grid.base.mobility_rate = 1.5;
  EXPECT_FALSE(sweep.ExpandGrid(grid).ok());
}

TEST(ScenarioSweepExpandTest, ExpansionOrderIsScalesBetasReductionsSeeds) {
  const ScenarioSweep sweep = TwoScaleSweep();
  SweepGrid grid = SmallGrid();
  auto points = sweep.ExpandGrid(grid);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 2u * 2u * 3u * 2u);
  // Seed areas innermost, then reductions, then betas, scales outermost.
  EXPECT_EQ((*points)[0].scale, 0u);
  EXPECT_EQ((*points)[0].seed_area, 0u);
  EXPECT_EQ((*points)[1].seed_area, 2u);
  EXPECT_TRUE(BitEqual((*points)[0].mobility_reduction, 0.0));
  EXPECT_TRUE(BitEqual((*points)[2].mobility_reduction, 0.3));
  EXPECT_TRUE(BitEqual((*points)[0].beta, 0.35));
  EXPECT_TRUE(BitEqual((*points)[6].beta, 0.8));
  EXPECT_EQ((*points)[12].scale, 1u);
}

/// Every scenario of the SoA batched stepper must be bitwise-equal to
/// running the legacy single-scenario MetapopulationSeir with the
/// scenario's parameters.
void ExpectSoaMatchesLegacy(const SweepInputs& inputs, const SweepGrid& grid) {
  auto results = inputs.sweep->Run(grid, nullptr);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const std::vector<std::vector<double>>& populations = inputs.populations;
  const std::vector<mobility::OdMatrix>& flows = inputs.flows;

  for (const ScenarioResult& result : *results) {
    SeirParams params = grid.base;
    params.beta = result.point.beta;
    params.mobility_rate =
        grid.base.mobility_rate * (1.0 - result.point.mobility_reduction);
    auto legacy = MetapopulationSeir::Create(populations[result.point.scale],
                                             flows[result.point.scale], params);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ASSERT_TRUE(legacy->SeedInfection(result.point.seed_area, grid.seed_count).ok());
    const std::vector<SeirTotals> trajectory = legacy->Run(grid.steps);

    const SeirTotals& final_totals = trajectory.back();
    EXPECT_TRUE(BitEqual(result.final_totals.t, final_totals.t));
    EXPECT_TRUE(BitEqual(result.final_totals.s, final_totals.s));
    EXPECT_TRUE(BitEqual(result.final_totals.e, final_totals.e));
    EXPECT_TRUE(BitEqual(result.final_totals.i, final_totals.i));
    EXPECT_TRUE(BitEqual(result.final_totals.r, final_totals.r));

    double peak = trajectory.front().i;
    double peak_day = trajectory.front().t;
    for (const SeirTotals& totals : trajectory) {
      if (totals.i > peak) {
        peak = totals.i;
        peak_day = totals.t;
      }
    }
    EXPECT_TRUE(BitEqual(result.peak_infectious, peak));
    EXPECT_TRUE(BitEqual(result.peak_day, peak_day));

    double total_population = 0.0;
    for (double p : populations[result.point.scale]) total_population += p;
    EXPECT_TRUE(BitEqual(result.attack_rate, final_totals.r / total_population));

    ASSERT_EQ(result.arrival_day.size(), populations[result.point.scale].size());
    for (size_t a = 0; a < result.arrival_day.size(); ++a) {
      EXPECT_TRUE(BitEqual(result.arrival_day[a],
                           legacy->ArrivalTime(a, kSweepArrivalThreshold)))
          << "area " << a;
    }
  }
}

TEST(ScenarioSweepTest, SoaStepperMatchesLegacyModelBitwise) {
  {
    SCOPED_TRACE("two-scale sweep");
    ExpectSoaMatchesLegacy(TwoScaleInputs(), SmallGrid());
  }
  SCOPED_TRACE("20k-user snapshot sweep");
  const SweepGrid grid = SnapshotGrid();
  auto points = SnapshotInputs().sweep->ExpandGrid(grid);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points->size(), 1080u);
  ExpectSoaMatchesLegacy(SnapshotInputs(), grid);
}

/// A pool size, and whether the sweep is the two-scale one or the 20k-user
/// snapshot's.
struct ThreadCase {
  size_t threads;
  bool snapshot;
};

// ctest names each case by its thread count; the instantiation prefix
// tells the inputs apart.
void PrintTo(const ThreadCase& c, std::ostream* os) { *os << c.threads; }

class ScenarioSweepThreadTest : public ::testing::TestWithParam<ThreadCase> {};

TEST_P(ScenarioSweepThreadTest, RunIsBitwiseInvariantAcrossThreadCounts) {
  const SweepInputs inputs = GetParam().snapshot ? SnapshotInputs() : TwoScaleInputs();
  SweepGrid grid = SmallGrid();
  grid.betas = {0.2, 0.35, 0.8};  // 36 scenarios: several batches per scale
  grid.steps = 120;
  if (GetParam().snapshot) grid = SnapshotGrid();
  auto serial = inputs.sweep->Run(grid, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(GetParam().threads);
  auto pooled = inputs.sweep->Run(grid, &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectResultsBitEqual(*serial, *pooled);
}

TEST_P(ScenarioSweepThreadTest, RunStochasticIsBitwiseInvariant) {
  const SweepInputs inputs = GetParam().snapshot ? SnapshotInputs() : TwoScaleInputs();
  SweepGrid grid = SmallGrid();
  grid.steps = 80;
  size_t trials = 5;
  uint64_t seed = 99;
  if (GetParam().snapshot) {  // bench/perf_epi's stochastic grid
    grid.scales = {0};
    grid.betas = {0.4, 0.6};
    grid.mobility_reductions = {0.0, 0.3};
    grid.seed_areas = {0};
    grid.seed_count = 20.0;
    grid.steps = 200;
    trials = 20;
    seed = 7;
  }
  auto serial = inputs.sweep->RunStochastic(grid, trials, /*outbreak_threshold=*/500,
                                            seed, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(GetParam().threads);
  auto pooled = inputs.sweep->RunStochastic(grid, trials, 500, seed, &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(serial->size(), pooled->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_TRUE(BitEqual((*serial)[i].outbreak_probability,
                         (*pooled)[i].outbreak_probability));
    EXPECT_TRUE(
        BitEqual((*serial)[i].mean_attack_rate, (*pooled)[i].mean_attack_rate));
    EXPECT_TRUE(
        BitEqual((*serial)[i].extinction_rate, (*pooled)[i].extinction_rate));
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ScenarioSweepThreadTest,
                         ::testing::Values(ThreadCase{1, false}, ThreadCase{2, false},
                                           ThreadCase{3, false}, ThreadCase{5, false}));
INSTANTIATE_TEST_SUITE_P(Snapshot20k, ScenarioSweepThreadTest,
                         ::testing::Values(ThreadCase{1, true}, ThreadCase{4, true}));

TEST(ScenarioSweepTest, CancellationAbandonsWithDeadlineExceeded) {
  const ScenarioSweep sweep = TwoScaleSweep();
  const SweepGrid grid = SmallGrid();
  ThreadPool pool(2);
  auto cancelled = sweep.Run(grid, &pool, [] { return true; });
  EXPECT_TRUE(cancelled.status().IsDeadlineExceeded());
  auto stochastic =
      sweep.RunStochastic(grid, 3, 500, 1, &pool, [] { return true; });
  EXPECT_TRUE(stochastic.status().IsDeadlineExceeded());
}

TEST(ScenarioSweepTest, StochasticSeedChangesDraws) {
  const ScenarioSweep sweep = TwoScaleSweep();
  SweepGrid grid = SmallGrid();
  grid.steps = 80;
  auto a = sweep.RunStochastic(grid, 5, 500, 99, nullptr);
  auto b = sweep.RunStochastic(grid, 5, 500, 100, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_difference = false;
  for (size_t i = 0; i < a->size(); ++i) {
    if (!BitEqual((*a)[i].mean_attack_rate, (*b)[i].mean_attack_rate)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

/// A random CSR graph's area count and the lanes per area.
struct KernelCase {
  size_t areas;
  size_t lanes;
};

// ctest names each case by its lane count; the instantiation prefix tells
// the graph sizes apart.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.lanes; }

/// Differential harness for the coupling kernel: random CSR graphs and lane
/// counts, scalar reference vs dispatched entry vs the raw AVX2 kernel.
class SeirKernelDifferentialTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SeirKernelDifferentialTest, DispatchedKernelMatchesScalarBitwise) {
  const size_t lanes = GetParam().lanes;
  random::Xoshiro256 rng(1234 + lanes);
  const size_t n = GetParam().areas;

  // Random CSR: ~60% dense rows, every sixth row empty.
  std::vector<uint32_t> row_ptr = {0};
  std::vector<uint32_t> col;
  for (size_t i = 0; i < n; ++i) {
    if (i % 6 != 5) {
      for (size_t j = 0; j < n; ++j) {
        if (j != i && rng.Next() % 5 < 3) col.push_back(static_cast<uint32_t>(j));
      }
    }
    row_ptr.push_back(static_cast<uint32_t>(col.size()));
  }
  const size_t nnz = col.size();
  std::vector<double> vals(nnz * lanes);
  for (double& v : vals) v = rng.NextUniform(0.0, 0.02);
  std::vector<double> state(n * lanes);
  for (double& s : state) s = rng.NextUniform(0.0, 250000.0);
  const double dt = 0.25;

  std::vector<double> reference(n * lanes, 0.0);
  AccumulateCouplingScalar(row_ptr.data(), col.data(), vals.data(), n, lanes, dt,
                           state.data(), reference.data());

  std::vector<double> dispatched(n * lanes, 0.0);
  AccumulateCoupling(row_ptr.data(), col.data(), vals.data(), n, lanes, dt,
                     state.data(), dispatched.data());
  for (size_t x = 0; x < n * lanes; ++x) {
    EXPECT_TRUE(BitEqual(reference[x], dispatched[x])) << "index " << x;
  }

  if (seir_internal::CouplingKernelFn simd = seir_internal::SimdCouplingKernel()) {
    std::vector<double> vectored(n * lanes, 0.0);
    simd(row_ptr.data(), col.data(), vals.data(), n, lanes, dt, state.data(),
         vectored.data());
    for (size_t x = 0; x < n * lanes; ++x) {
      EXPECT_TRUE(BitEqual(reference[x], vectored[x])) << "index " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, SeirKernelDifferentialTest,
                         ::testing::Values(KernelCase{17, 1}, KernelCase{17, 3},
                                           KernelCase{17, 4}, KernelCase{17, 8},
                                           KernelCase{17, 9}));
// bench/perf_epi's kernel shape: 256 areas at the sweep's batch width.
INSTANTIATE_TEST_SUITE_P(SweepShape, SeirKernelDifferentialTest,
                         ::testing::Values(KernelCase{256, kSweepLanes}));

}  // namespace
}  // namespace twimob::epi
