#include "core/predictor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/population_estimator.h"
#include "core/stage_engine.h"
#include "synth/tweet_generator.h"

namespace twimob::core {
namespace {

// One shared national mobility analysis for the predictor tests.
class PredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig corpus;
    corpus.num_users = 30000;
    corpus.seed = 909;
    auto gen = synth::TweetGenerator::Create(corpus);
    ASSERT_TRUE(gen.ok());
    auto table = gen->Generate();
    ASSERT_TRUE(table.ok());
    table->CompactByUserTime();
    const tweetdb::TweetDataset dataset =
        tweetdb::TweetDataset::FromTable(std::move(*table));
    ThreadPool pool(2);
    auto estimator = PopulationEstimator::Build(dataset, &pool);
    ASSERT_TRUE(estimator.ok());
    spec_ = new ScaleSpec(MakeScaleSpec(census::Scale::kNational));
    auto mobility = AnalyzeScaleMobility(dataset, *spec_, *estimator, pool);
    ASSERT_TRUE(mobility.ok()) << mobility.status();
    mobility_ = new ScaleMobilityResult(std::move(*mobility));
  }
  static void TearDownTestSuite() {
    delete spec_;
    delete mobility_;
    spec_ = nullptr;
    mobility_ = nullptr;
  }

  static ScaleSpec* spec_;
  static ScaleMobilityResult* mobility_;
};

ScaleSpec* PredictorTest::spec_ = nullptr;
ScaleMobilityResult* PredictorTest::mobility_ = nullptr;

TEST_F(PredictorTest, CreateValidates) {
  EXPECT_TRUE(DiseaseSpreadPredictor::Create(*spec_, *mobility_).ok());
  ScaleSpec empty;
  EXPECT_FALSE(DiseaseSpreadPredictor::Create(empty, *mobility_).ok());
  ScaleMobilityResult no_models = *mobility_;
  no_models.models.clear();
  EXPECT_FALSE(DiseaseSpreadPredictor::Create(*spec_, no_models).ok());
}

TEST_F(PredictorTest, UnknownSeedAreaIsNotFound) {
  auto predictor = DiseaseSpreadPredictor::Create(*spec_, *mobility_);
  ASSERT_TRUE(predictor.ok());
  EXPECT_TRUE(predictor->Predict("Atlantis", PredictorConfig{})
                  .status()
                  .IsNotFound());
}

TEST_F(PredictorTest, PredictionCoversHorizonAndAllAreas) {
  auto predictor = DiseaseSpreadPredictor::Create(*spec_, *mobility_);
  ASSERT_TRUE(predictor.ok());
  PredictorConfig config;
  config.horizon_days = 200;
  auto prediction = predictor->Predict("sydney", config);
  ASSERT_TRUE(prediction.ok()) << prediction.status();
  EXPECT_EQ(prediction->seed_area, "Sydney");
  EXPECT_EQ(prediction->areas.size(), 20u);
  EXPECT_EQ(prediction->daily_totals.size(), 201u);
  // The seed city is reached immediately.
  EXPECT_GE(prediction->areas[0].arrival_day, 0.0);
  // Epidemic with R0 > 1 must eventually burn a substantial share.
  double total_attack = 0.0;
  for (const auto& a : prediction->areas) total_attack += a.attack_rate;
  EXPECT_GT(total_attack / 20.0, 0.2);
}

TEST_F(PredictorTest, GravityFlowsTrackExtractedFlows) {
  auto predictor = DiseaseSpreadPredictor::Create(*spec_, *mobility_);
  ASSERT_TRUE(predictor.ok());

  PredictorConfig config;
  config.horizon_days = 300;
  auto by_source = [&](FlowSource source) {
    config.source = source;
    auto p = predictor->Predict("Sydney", config);
    EXPECT_TRUE(p.ok()) << FlowSourceName(source);
    return *std::move(p);
  };
  const SpreadPrediction extracted = by_source(FlowSource::kExtracted);
  const SpreadPrediction gravity = by_source(FlowSource::kGravity2Param);
  const SpreadPrediction radiation = by_source(FlowSource::kRadiation);

  auto mean_arrival_gap = [&extracted](const SpreadPrediction& other) {
    double sum = 0.0;
    int n = 0;
    for (size_t a = 0; a < extracted.areas.size(); ++a) {
      if (extracted.areas[a].arrival_day >= 0.0 &&
          other.areas[a].arrival_day >= 0.0) {
        sum += std::fabs(extracted.areas[a].arrival_day -
                         other.areas[a].arrival_day);
        ++n;
      }
    }
    return n > 0 ? sum / n : 1e9;
  };
  // The paper's conclusion transfers to the epidemic application: gravity
  // flows reproduce the Twitter-flow epidemic better than radiation flows.
  EXPECT_LT(mean_arrival_gap(gravity), mean_arrival_gap(radiation));
}

TEST_F(PredictorTest, OutbreakProbabilityRequestedAndSensible) {
  auto predictor = DiseaseSpreadPredictor::Create(*spec_, *mobility_);
  ASSERT_TRUE(predictor.ok());
  PredictorConfig config;
  config.horizon_days = 150;
  config.outbreak_trials = 20;
  config.seed_infections = 20.0;
  auto prediction = predictor->Predict("Sydney", config);
  ASSERT_TRUE(prediction.ok()) << prediction.status();
  EXPECT_GE(prediction->outbreak_probability, 0.0);
  EXPECT_LE(prediction->outbreak_probability, 1.0);
  // 20 seeds with R0 = 3.5: an outbreak is near-certain.
  EXPECT_GT(prediction->outbreak_probability, 0.8);
}

TEST_F(PredictorTest, FlowSourceNames) {
  EXPECT_EQ(FlowSourceName(FlowSource::kExtracted), "Twitter (extracted)");
  EXPECT_EQ(FlowSourceName(FlowSource::kGravity2Param), "Gravity 2Param");
  EXPECT_EQ(FlowSourceName(FlowSource::kRadiation), "Radiation");
}

}  // namespace
}  // namespace twimob::core
