// QueryService: every answer must equal the corresponding lookup on the
// snapshot's immutable analysis results, a served point must name the area
// the snapshot's own assigner gives it (the area its tweet's trip was
// counted in), the batched point path must be bit-identical to the
// unbatched one, and invalid requests must be typed errors, never crashes.

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_snapshot.h"
#include "geo/geodesic.h"
#include "random/rng.h"
#include "serve/query_service.h"

namespace twimob::serve {

/// Holds one admission slot of a QueryService for its lifetime, exactly as
/// an in-flight query does, so a test can fill the admission limit without
/// racing threads.
class QueryServiceTestPeer {
 public:
  explicit QueryServiceTestPeer(const QueryService& service) : slot_(service) {}
  bool admitted() const { return slot_.admitted(); }

 private:
  QueryService::AdmissionSlot slot_;
};

namespace {

bool BitEq(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// One analysed snapshot shared by every test (building it dominates the
/// suite's runtime, so do it once).
class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig config;
    config.corpus.num_users = 4000;
    config.num_shards = 2;
    auto built = core::AnalysisSnapshot::Build(config);
    ASSERT_TRUE(built.ok()) << built.status().message();
    snapshot_ = new std::shared_ptr<const core::AnalysisSnapshot>(
        std::make_shared<const core::AnalysisSnapshot>(std::move(*built)));
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
  }

  static const core::AnalysisSnapshot& snapshot() { return **snapshot_; }
  static std::shared_ptr<const core::AnalysisSnapshot> shared() {
    return *snapshot_;
  }

  static std::shared_ptr<const core::AnalysisSnapshot>* snapshot_;
};

std::shared_ptr<const core::AnalysisSnapshot>* QueryServiceTest::snapshot_ =
    nullptr;

TEST_F(QueryServiceTest, PopulationMatchesEstimator) {
  const QueryService service(shared());
  const geo::LatLon sydney{-33.8688, 151.2093};
  for (const double radius : {2000.0, 25000.0, 50000.0}) {
    auto answer = service.Population(sydney, radius);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->unique_users,
              snapshot().estimator().CountUniqueUsers(sydney, radius));
    EXPECT_EQ(answer->tweets,
              snapshot().estimator().CountTweets(sydney, radius));
  }
  EXPECT_FALSE(service.Population(sydney, 0.0).ok());
  EXPECT_FALSE(service.Population(sydney, -5.0).ok());
  // An invalid centre is rejected before the radius walk, never answered
  // with zeros.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(service.Population(geo::LatLon{nan, 151.2093}, 25000.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.Population(geo::LatLon{-333.9, 151.2093}, 25000.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      service.PointEstimate(0, geo::LatLon{nan, nan}).status().IsInvalidArgument());
}

TEST_F(QueryServiceTest, PointEstimateReturnsAreaAndServedPopulations) {
  const QueryService service(shared());
  for (size_t scale = 0; scale < snapshot().specs().size(); ++scale) {
    const auto& spec = snapshot().specs()[scale];
    const auto& estimates = snapshot().result().population[scale].areas;
    for (size_t a = 0; a < spec.areas.size(); ++a) {
      auto answer = service.PointEstimate(scale, spec.areas[a].center);
      ASSERT_TRUE(answer.ok());
      ASSERT_EQ(answer->area, static_cast<int32_t>(a)) << spec.areas[a].name;
      EXPECT_EQ(answer->distance_m, 0.0);
      const size_t idx = static_cast<size_t>(answer->area);
      EXPECT_EQ(answer->census_population, estimates[idx].census_population);
      EXPECT_EQ(answer->rescaled_estimate, estimates[idx].rescaled_estimate);
    }
  }
  // A point in the open ocean maps to no area at any scale.
  for (size_t scale = 0; scale < snapshot().specs().size(); ++scale) {
    auto answer = service.PointEstimate(scale, geo::LatLon{-20.0, 90.0});
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->area, PointAnswer::kNoArea);
    EXPECT_EQ(answer->distance_m, std::numeric_limits<double>::infinity());
    EXPECT_EQ(answer->census_population, 0.0);
  }
  EXPECT_FALSE(service.PointEstimate(99, geo::LatLon{0, 0}).ok());
}

TEST_F(QueryServiceTest, BatchedPointsAreBitIdenticalToUnbatched) {
  const QueryService service(shared());
  random::Xoshiro256 rng(99);
  std::vector<double> lats;
  std::vector<double> lons;
  for (int i = 0; i < 500; ++i) {
    lats.push_back(rng.NextUniform(-44.0, -10.0));
    lons.push_back(rng.NextUniform(113.0, 154.0));
  }
  for (size_t scale = 0; scale < snapshot().specs().size(); ++scale) {
    auto batch =
        service.PointEstimateBatch(scale, lats.data(), lons.data(), lats.size());
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), lats.size());
    for (size_t i = 0; i < lats.size(); ++i) {
      auto one = service.PointEstimate(scale, geo::LatLon{lats[i], lons[i]});
      ASSERT_TRUE(one.ok());
      ASSERT_EQ((*batch)[i].area, one->area) << "scale=" << scale << " i=" << i;
      ASSERT_TRUE(BitEq((*batch)[i].distance_m, one->distance_m));
      ASSERT_TRUE(BitEq((*batch)[i].rescaled_estimate, one->rescaled_estimate));
    }
  }
  EXPECT_FALSE(service.PointEstimateBatch(99, lats.data(), lons.data(), 1).ok());
}

/// The served point paths at one paper scale (the parameter indexes
/// specs()), on the shared snapshot.
class PointBatchScaleTest : public QueryServiceTest,
                            public ::testing::WithParamInterface<size_t> {
 protected:
  /// `n` query points for `spec`: every fifth jittered around a centre,
  /// every fifth exactly ε from one (the assignment's boundary), the rest
  /// uniform over the continent's box.
  static void QueryPoints(const core::ScaleSpec& spec, uint64_t seed, size_t n,
                          std::vector<double>* lats, std::vector<double>* lons) {
    random::Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const geo::LatLon& c = spec.areas[i % spec.areas.size()].center;
      geo::LatLon p{rng.NextUniform(-44.0, -10.0), rng.NextUniform(113.0, 154.0)};
      if (i % 5 == 0) {
        p = geo::LatLon{c.lat + rng.NextUniform(-0.01, 0.01),
                        c.lon + rng.NextUniform(-0.01, 0.01)};
      } else if (i % 5 == 1) {
        p = geo::DestinationPoint(c, rng.NextUniform(0.0, 360.0), spec.radius_m);
      }
      lats->push_back(p.lat);
      lons->push_back(p.lon);
    }
  }

  /// The nearest centre within ε by a plain scan, lowest index on ties.
  static std::optional<size_t> BruteAssign(const core::ScaleSpec& spec,
                                           const geo::LatLon& pos) {
    double best = std::numeric_limits<double>::infinity();
    std::optional<size_t> best_idx;
    for (size_t i = 0; i < spec.areas.size(); ++i) {
      const double d = geo::HaversineMeters(pos, spec.areas[i].center);
      if (d <= spec.radius_m && d < best) {
        best = d;
        best_idx = i;
      }
    }
    return best_idx;
  }
};

/// The batch runs in 256-point deadline blocks; at sizes on both sides of a
/// block edge it still answers every point as PointEstimate does.
TEST_P(PointBatchScaleTest, BatchMatchesScalarBitForBit) {
  const size_t scale = GetParam();
  const core::ScaleSpec& spec = snapshot().specs()[scale];
  const QueryService service(shared());
  QueryOptions generous;
  generous.deadline = Deadline::After(60.0);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256}, size_t{257},
                         size_t{1000}}) {
    std::vector<double> lats;
    std::vector<double> lons;
    QueryPoints(spec, 777 + scale, n, &lats, &lons);
    auto batch = service.PointEstimateBatch(scale, lats.data(), lons.data(), n, generous);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), n);
    for (size_t i = 0; i < n; ++i) {
      auto one = service.PointEstimate(scale, geo::LatLon{lats[i], lons[i]});
      ASSERT_TRUE(one.ok());
      const PointAnswer& got = (*batch)[i];
      ASSERT_EQ(got.area, one->area) << "n=" << n << " i=" << i;
      ASSERT_TRUE(BitEq(got.distance_m, one->distance_m)) << "n=" << n << " i=" << i;
      ASSERT_TRUE(BitEq(got.census_population, one->census_population));
      ASSERT_TRUE(BitEq(got.rescaled_estimate, one->rescaled_estimate));
    }
  }
}

TEST_P(PointBatchScaleTest, CentresAssignToThemselves) {
  const size_t scale = GetParam();
  const core::ScaleSpec& spec = snapshot().specs()[scale];
  const QueryService service(shared());
  std::vector<double> lats;
  std::vector<double> lons;
  for (const census::Area& area : spec.areas) {
    lats.push_back(area.center.lat);
    lons.push_back(area.center.lon);
  }
  auto batch = service.PointEstimateBatch(scale, lats.data(), lons.data(), lats.size());
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < spec.areas.size(); ++i) {
    auto one = service.PointEstimate(scale, spec.areas[i].center);
    ASSERT_TRUE(one.ok());
    for (const PointAnswer& got : {*one, (*batch)[i]}) {
      EXPECT_EQ(got.area, static_cast<int32_t>(i)) << spec.areas[i].name;
      EXPECT_EQ(got.distance_m, 0.0) << spec.areas[i].name;
    }
  }
}

/// A served point names the area the snapshot's assigner for its scale —
/// the one the trips were counted with — gives it, which is the nearest
/// centre within ε by a plain scan, and carries the distance bits of
/// HaversineMeters(pos, centre). Points exactly ε from a centre included.
TEST_P(PointBatchScaleTest, AgreesWithMobilityAssignerOnRandomPoints) {
  const size_t scale = GetParam();
  const core::ScaleSpec& spec = snapshot().specs()[scale];
  const mobility::AreaAssigner& assigner = snapshot().scales()->assigners[scale];
  const QueryService service(shared());
  constexpr size_t kPoints = 3000;
  std::vector<double> lats;
  std::vector<double> lons;
  QueryPoints(spec, 4242 + scale, kPoints, &lats, &lons);
  auto batch = service.PointEstimateBatch(scale, lats.data(), lons.data(), kPoints);
  ASSERT_TRUE(batch.ok()) << batch.status();
  size_t assigned = 0;
  for (size_t i = 0; i < kPoints; ++i) {
    const geo::LatLon pos{lats[i], lons[i]};
    const std::optional<size_t> want = assigner.Assign(pos);
    ASSERT_EQ(want, BruteAssign(spec, pos)) << "i=" << i;
    auto one = service.PointEstimate(scale, pos);
    ASSERT_TRUE(one.ok());
    for (const PointAnswer& got : {*one, (*batch)[i]}) {
      if (want.has_value()) {
        ASSERT_EQ(got.area, static_cast<int32_t>(*want)) << "i=" << i;
        ASSERT_TRUE(BitEq(got.distance_m,
                          geo::HaversineMeters(pos, spec.areas[*want].center)))
            << "i=" << i;
      } else {
        ASSERT_EQ(got.area, PointAnswer::kNoArea) << "i=" << i;
        ASSERT_EQ(got.distance_m, std::numeric_limits<double>::infinity());
      }
    }
    if (want.has_value()) ++assigned;
  }
  // Both outcomes were exercised.
  EXPECT_GT(assigned, 0u);
  EXPECT_LT(assigned, kPoints);
}

INSTANTIATE_TEST_SUITE_P(PaperScales, PointBatchScaleTest,
                         ::testing::Values(size_t{0}, size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return core::PaperScales()[info.param].name;
                         });

/// Point-batch request validation, on the shared snapshot.
class PointBatchTest : public QueryServiceTest {};

/// An invalid position is InvalidArgument on both point paths: the batch
/// checks every position before it assigns any, names the first bad index
/// and returns no partial answer.
TEST_F(PointBatchTest, NanLatitudeIsHandledIdentically) {
  const QueryService service(shared());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const geo::LatLon c = snapshot().specs()[0].areas[0].center;
  const std::vector<geo::LatLon> bad = {
      {nan, c.lon}, {c.lat, nan}, {95.0, c.lon}, {c.lat, 200.0}};
  for (const geo::LatLon& p : bad) {
    EXPECT_TRUE(service.PointEstimate(0, p).status().IsInvalidArgument())
        << p.ToString();
    // A valid point first, then the bad one, then another bad one.
    const double lats[] = {c.lat, p.lat, nan};
    const double lons[] = {c.lon, p.lon, c.lon};
    const auto batch = service.PointEstimateBatch(0, lats, lons, 3);
    ASSERT_TRUE(batch.status().IsInvalidArgument()) << p.ToString();
    EXPECT_NE(batch.status().message().find("at index 1"), std::string::npos)
        << batch.status();
  }
  EXPECT_EQ(service.stats().point_queries, 0u);
  // The same valid point alone is served.
  const auto good = service.PointEstimateBatch(0, &c.lat, &c.lon, 1);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ((*good)[0].area, 0);
}

TEST_F(QueryServiceTest, OdFlowMatchesObservations) {
  const QueryService service(shared());
  const auto& mobility = snapshot().result().mobility;
  ASSERT_EQ(mobility.size(), snapshot().serving_tables().size());
  for (size_t scale = 0; scale < mobility.size(); ++scale) {
    const size_t n = snapshot().serving_tables()[scale].num_areas;
    // Every observed pair answers its flow.
    for (const auto& obs : mobility[scale].observations) {
      auto answer = service.OdFlow(scale, obs.src, obs.dst);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer->observed, obs.flow);
    }
    // Diagonal pairs were never observations (flows are off-diagonal): 0.
    auto diag = service.OdFlow(scale, 0, 0);
    ASSERT_TRUE(diag.ok());
    EXPECT_EQ(diag->observed, 0.0);
    EXPECT_FALSE(service.OdFlow(scale, n, 0).ok());
    EXPECT_FALSE(service.OdFlow(scale, 0, n).ok());
  }
  EXPECT_FALSE(service.OdFlow(99, 0, 0).ok());
}

TEST_F(QueryServiceTest, PredictMatchesFittedModelEstimates) {
  const QueryService service(shared());
  const auto& mobility = snapshot().result().mobility;
  for (size_t scale = 0; scale < mobility.size(); ++scale) {
    const auto& models = mobility[scale].models;
    ASSERT_EQ(models.size(), 3u);
    for (size_t m = 0; m < models.size(); ++m) {
      for (size_t i = 0; i < mobility[scale].observations.size(); ++i) {
        const auto& obs = mobility[scale].observations[i];
        auto answer = service.Predict(scale, m, obs.src, obs.dst);
        ASSERT_TRUE(answer.ok());
        ASSERT_TRUE(BitEq(answer->estimated, models[m].estimated[i]))
            << "scale=" << scale << " model=" << m << " pair=" << i;
      }
    }
    EXPECT_FALSE(service.Predict(scale, 3, 0, 1).ok());
  }
  EXPECT_FALSE(service.Predict(99, 0, 0, 1).ok());
}

TEST_F(QueryServiceTest, StatsCountEveryQuery) {
  const QueryService service(shared());
  ASSERT_TRUE(service.Population(geo::LatLon{-33.9, 151.2}, 2000.0).ok());
  ASSERT_TRUE(service.PointEstimate(0, geo::LatLon{-33.9, 151.2}).ok());
  const double lats[] = {-33.9, -37.8};
  const double lons[] = {151.2, 144.9};
  ASSERT_TRUE(service.PointEstimateBatch(0, lats, lons, 2).ok());
  ASSERT_TRUE(service.OdFlow(0, 0, 1).ok());
  ASSERT_TRUE(service.Predict(0, 0, 0, 1).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.population_queries, 1u);
  EXPECT_EQ(stats.point_queries, 3u);  // 1 single + 2 batched
  EXPECT_EQ(stats.od_queries, 1u);
  EXPECT_EQ(stats.predict_queries, 1u);
}

TEST_F(QueryServiceTest, ExpiredDeadlineIsTypedAndNeverPartial) {
  const QueryService service(shared());
  QueryOptions expired;
  expired.deadline = Deadline::AlreadyExpired();
  const double lats[] = {-33.9, -37.8};
  const double lons[] = {151.2, 144.9};

  const auto population =
      service.Population(geo::LatLon{-33.9, 151.2}, 2000.0, expired);
  EXPECT_TRUE(population.status().IsDeadlineExceeded());
  const auto point = service.PointEstimate(0, geo::LatLon{-33.9, 151.2}, expired);
  EXPECT_TRUE(point.status().IsDeadlineExceeded());
  const auto batch = service.PointEstimateBatch(0, lats, lons, 2, expired);
  EXPECT_TRUE(batch.status().IsDeadlineExceeded());
  const auto od = service.OdFlow(0, 0, 1, expired);
  EXPECT_TRUE(od.status().IsDeadlineExceeded());
  const auto predict = service.Predict(0, 0, 0, 1, expired);
  EXPECT_TRUE(predict.status().IsDeadlineExceeded());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 5u);
  // A deadline miss returns no answer at all — the per-kind served
  // counters never saw these requests.
  EXPECT_EQ(stats.population_queries, 0u);
  EXPECT_EQ(stats.point_queries, 0u);
  EXPECT_EQ(stats.od_queries, 0u);
  EXPECT_EQ(stats.predict_queries, 0u);
}

TEST_F(QueryServiceTest, BoundedDeadlineAnswersAreBitIdenticalWhenNotShed) {
  // A deadline that does not fire must not perturb a single bit: the
  // block-granular batch path chunks in whole kernel batches, so its
  // assignments equal the unbounded single-shot call's exactly.
  const QueryService service(shared());
  random::Xoshiro256 rng(321);
  constexpr size_t kPoints = 600;  // several deadline blocks
  std::vector<double> lats;
  std::vector<double> lons;
  for (size_t i = 0; i < kPoints; ++i) {
    lats.push_back(rng.NextUniform(-44.0, -10.0));
    lons.push_back(rng.NextUniform(113.0, 154.0));
  }
  QueryOptions generous;
  generous.deadline = Deadline::After(60.0);

  const auto unbounded =
      service.PointEstimateBatch(1, lats.data(), lons.data(), kPoints);
  const auto bounded =
      service.PointEstimateBatch(1, lats.data(), lons.data(), kPoints, generous);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(bounded.ok());
  ASSERT_EQ(unbounded->size(), bounded->size());
  for (size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ((*unbounded)[i].area, (*bounded)[i].area) << "i=" << i;
    EXPECT_TRUE(BitEq((*unbounded)[i].distance_m, (*bounded)[i].distance_m));
    EXPECT_TRUE(
        BitEq((*unbounded)[i].rescaled_estimate, (*bounded)[i].rescaled_estimate));
  }

  const auto pop = service.Population(geo::LatLon{-33.9, 151.2}, 25000.0);
  const auto pop_bounded =
      service.Population(geo::LatLon{-33.9, 151.2}, 25000.0, generous);
  ASSERT_TRUE(pop.ok());
  ASSERT_TRUE(pop_bounded.ok());
  EXPECT_EQ(pop->unique_users, pop_bounded->unique_users);
  EXPECT_EQ(pop->tweets, pop_bounded->tweets);
}

TEST_F(QueryServiceTest, AdmissionLimitShedsWithTypedStatusAndExactAccounting) {
  // max_inflight=1 under four hammering threads: every request either
  // serves or sheds kUnavailable, the counters account for each one
  // exactly, and the service stays usable afterwards. Whether any request
  // is shed here depends on scheduling; the next test sheds one for sure.
  ServiceLimits limits;
  limits.max_inflight = 1;
  const QueryService service(shared(), limits);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &served, &shed, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto answer = service.Population(
            geo::LatLon{-33.9 + 0.001 * t, 151.2}, 2000.0 + i);
        if (answer.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_TRUE(answer.status().IsUnavailable())
              << answer.status().ToString();
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(served.load() + shed.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.population_queries, served.load());
  EXPECT_EQ(stats.shed_queries, shed.load());

  // Shedding is per-request: the quiesced service admits again.
  EXPECT_TRUE(service.Population(geo::LatLon{-33.9, 151.2}, 2000.0).ok());
}

TEST_F(QueryServiceTest, AdmissionLimitShedsWhileTheOnlySlotIsHeld) {
  // The shedding path itself, without depending on threads colliding: the
  // test holds the one admission slot, so the query it issues is shed.
  ServiceLimits limits;
  limits.max_inflight = 1;
  const QueryService service(shared(), limits);
  const geo::LatLon centre{-33.9, 151.2};
  {
    const QueryServiceTestPeer held(service);
    ASSERT_TRUE(held.admitted());
    const auto shed = service.Population(centre, 2000.0);
    EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
    EXPECT_EQ(service.stats().shed_queries, 1u);
    EXPECT_EQ(service.stats().population_queries, 0u);
  }
  // The slot is released: the next query is admitted and served.
  const auto served = service.Population(centre, 2000.0);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_queries, 1u);
  EXPECT_EQ(stats.population_queries, 1u);
}

TEST(QueryServiceNoMobilityTest, FlowQueriesFailCleanlyWithoutMobility) {
  core::PipelineConfig config;
  config.corpus.num_users = 1500;
  config.run_mobility = false;
  auto built = core::AnalysisSnapshot::Build(config);
  ASSERT_TRUE(built.ok());
  const QueryService service(
      std::make_shared<const core::AnalysisSnapshot>(std::move(*built)));
  EXPECT_FALSE(service.OdFlow(0, 0, 1).ok());
  EXPECT_FALSE(service.Predict(0, 0, 0, 1).ok());
  // Population and point queries still serve.
  EXPECT_TRUE(service.Population(geo::LatLon{-33.9, 151.2}, 2000.0).ok());
  EXPECT_TRUE(service.PointEstimate(0, geo::LatLon{-33.9, 151.2}).ok());
}

}  // namespace
}  // namespace twimob::serve
