#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/csv_codec.h"

#include <gtest/gtest.h>

namespace twimob::core {
namespace {

// The pipeline is end-to-end; run it once at a reduced-but-meaningful corpus
// size and share the result across tests.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineConfig config;
    config.corpus.num_users = 40000;
    config.corpus.seed = 7;
    auto run = AnalysisSnapshot::Build(config);
    ASSERT_TRUE(run.ok()) << run.status();
    result_ = new PipelineResult(run->result());
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static const PipelineResult& result() { return *result_; }

 private:
  static PipelineResult* result_;
};

PipelineResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, GenerationReportFilled) {
  EXPECT_EQ(result().generation.num_users, 40000u);
  EXPECT_GT(result().generation.num_tweets, 200000u);
  EXPECT_GT(result().generation.mean_tweets_per_user, 5.0);
}

TEST_F(PipelineTest, ThreePopulationScalesWithTwentyAreasEach) {
  ASSERT_EQ(result().population.size(), 3u);
  EXPECT_EQ(result().population[0].scale_name, "National");
  EXPECT_EQ(result().population[2].scale_name, "Metropolitan");
  for (const auto& scale : result().population) {
    EXPECT_EQ(scale.areas.size(), 20u);
    EXPECT_GT(scale.rescale_factor, 0.0);
    EXPECT_GT(scale.median_users, 0.0);
  }
}

TEST_F(PipelineTest, PopulationCorrelationStrongAtCityScales) {
  // Figure 3: National and State align well; Metropolitan scatters.
  EXPECT_GT(result().population[0].correlation.r, 0.8);
  EXPECT_GT(result().population[1].correlation.r, 0.8);
  EXPECT_LT(result().population[0].correlation.p_value, 1e-4);
}

TEST_F(PipelineTest, PooledCorrelationMatchesPaperShape) {
  // Paper: pooled r = 0.816 over 60 samples with a vanishing p-value.
  EXPECT_EQ(result().pooled_population_correlation.n, 60u);
  EXPECT_GT(result().pooled_population_correlation.r, 0.75);
  EXPECT_LT(result().pooled_population_correlation.p_value, 1e-10);
}

TEST_F(PipelineTest, MobilityHasThreeScalesWithThreeModels) {
  ASSERT_EQ(result().mobility.size(), 3u);
  for (const auto& scale : result().mobility) {
    ASSERT_EQ(scale.models.size(), 3u);
    EXPECT_EQ(scale.models[0].model_name, "Gravity 4Param");
    EXPECT_EQ(scale.models[1].model_name, "Gravity 2Param");
    EXPECT_EQ(scale.models[2].model_name, "Radiation");
    EXPECT_GT(scale.observations.size(), 20u);
    EXPECT_GT(scale.extraction.inter_area_trips, 100u);
    for (const auto& model : scale.models) {
      EXPECT_EQ(model.estimated.size(), scale.observations.size());
      EXPECT_GE(model.metrics.pearson_r, -1.0);
      EXPECT_LE(model.metrics.pearson_r, 1.0);
      EXPECT_GE(model.metrics.hit_rate, 0.0);
      EXPECT_LE(model.metrics.hit_rate, 1.0);
    }
  }
}

TEST_F(PipelineTest, GravityBeatsRadiationEverywhere) {
  // The paper's headline: for Australia the Gravity models dominate the
  // Radiation model at every scale (Table II).
  for (const auto& scale : result().mobility) {
    const double best_gravity_r = std::max(scale.models[0].metrics.pearson_r,
                                           scale.models[1].metrics.pearson_r);
    EXPECT_GT(best_gravity_r, scale.models[2].metrics.pearson_r)
        << scale.scale_name;
  }
}

TEST_F(PipelineTest, GravityDistanceExponentIsPositive) {
  for (const auto& scale : result().mobility) {
    EXPECT_GT(scale.models[0].metrics.pearson_r, 0.3) << scale.scale_name;
    EXPECT_GT(scale.models[1].gamma, 0.3) << scale.scale_name;
  }
}

TEST(PipelineConfigTest, MetroRadiusOverridePropagates) {
  PipelineConfig config;
  config.corpus.num_users = 3000;
  config.corpus.seed = 11;
  config.metro_radius_override_m = 500.0;
  config.run_mobility = false;
  auto run = AnalysisSnapshot::Build(config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->result().population[2].radius_m, 500.0);
  EXPECT_TRUE(run->result().mobility.empty());
}

TEST(PipelineConfigTest, DeterministicAcrossRuns) {
  PipelineConfig config;
  config.corpus.num_users = 4000;
  config.corpus.seed = 321;
  config.run_mobility = false;
  auto run_a = AnalysisSnapshot::Build(config);
  auto run_b = AnalysisSnapshot::Build(config);
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());
  const PipelineResult& a = run_a->result();
  const PipelineResult& b = run_b->result();
  EXPECT_DOUBLE_EQ(a.pooled_population_correlation.r,
                   b.pooled_population_correlation.r);
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(a.population[s].areas.size(), b.population[s].areas.size());
    for (size_t i = 0; i < a.population[s].areas.size(); ++i) {
      EXPECT_EQ(a.population[s].areas[i].unique_users,
                b.population[s].areas[i].unique_users);
    }
  }
}

TEST(PipelineConfigTest, AnalyzeCompactsWhenNeeded) {
  synth::CorpusConfig corpus;
  corpus.num_users = 2000;
  corpus.seed = 13;
  auto gen = synth::TweetGenerator::Create(corpus);
  ASSERT_TRUE(gen.ok());
  auto table = gen->Generate();
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->sorted_by_user_time());

  PipelineConfig config;
  config.corpus = corpus;
  config.run_mobility = false;
  auto snapshot = AnalysisSnapshot::Analyze(
      tweetdb::TweetDataset::FromTable(std::move(*table)), config);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // The compact stage sorted the one-shard dataset the snapshot served.
  std::vector<tweetdb::Tweet> rows;
  snapshot->ForEachRow([&rows](const tweetdb::Tweet& t) { rows.push_back(t); });
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(), tweetdb::UserTimeLess));
  EXPECT_EQ(snapshot->result().population.size(), 3u);
}

TEST(PipelineShardingTest, PerShardTraceRowsOnlyWhenPartitioned) {
  PipelineConfig config;
  config.corpus.num_users = 2000;
  config.corpus.seed = 17;
  config.run_mobility = false;

  auto single = AnalysisSnapshot::Build(config);
  ASSERT_TRUE(single.ok());
  for (const StageRecord& r : single->result().trace.stages()) {
    EXPECT_EQ(r.name.find("/shard"), std::string::npos) << r.name;
  }

  config.num_shards = 4;
  auto sharded = AnalysisSnapshot::Build(config);
  ASSERT_TRUE(sharded.ok());
  size_t compact_subs = 0, index_subs = 0;
  for (const StageRecord& r : sharded->result().trace.stages()) {
    if (r.name.rfind("compact/shard", 0) == 0) {
      ++compact_subs;
      // Whether this shard paid for a re-sort: its side list and a 0/1
      // rewrite flag, set whenever any row was out of order.
      EXPECT_LE(r.Counter("rows_out_of_order"), r.Counter("rows"));
      const int64_t rewritten = r.Counter("rewritten");
      EXPECT_TRUE(rewritten == 0 || rewritten == 1) << r.name;
      if (r.Counter("rows_out_of_order") > 0) {
        EXPECT_EQ(rewritten, 1) << r.name;
      }
    }
    if (r.name.rfind("index/shard", 0) == 0) ++index_subs;
  }
  EXPECT_GT(compact_subs, 1u);
  EXPECT_EQ(compact_subs, index_subs);
}

TEST(PipelineShardingTest, WrittenDatasetOpensWithoutAResort) {
  // WriteDatasetFiles stores shards in compaction order, so analysing the
  // reopened files finds every shard in order and rewrites none.
  PipelineConfig config;
  config.corpus.num_users = 2000;
  config.corpus.seed = 18;
  config.run_mobility = false;
  auto generator = synth::TweetGenerator::Create(config.corpus);
  ASSERT_TRUE(generator.ok());
  auto generated = generator->GenerateDataset(tweetdb::PartitionSpec::ForWindow(
      config.corpus.window_start, config.corpus.window_end, 4));
  ASSERT_TRUE(generated.ok());
  const std::string path = testing::TempDir() + "/twimob_pipeline_sorted_write.twdb";
  std::remove(path.c_str());
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(*generated, path).ok());
  auto reopened = tweetdb::ReadDatasetFiles(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_GT(reopened->num_shards(), 1u);
  const size_t num_shards = reopened->num_shards();

  auto snapshot = AnalysisSnapshot::Analyze(std::move(*reopened), config);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  size_t compact_subs = 0;
  for (const StageRecord& r : snapshot->result().trace.stages()) {
    if (r.name.rfind("compact/shard", 0) != 0) continue;
    ++compact_subs;
    EXPECT_EQ(r.Counter("rows_out_of_order"), 0) << r.name;
    EXPECT_EQ(r.Counter("rewritten"), 0) << r.name;
  }
  EXPECT_EQ(compact_subs, num_shards);
}

TEST(PipelineIntegrationTest, CsvRoundTripPreservesAnalysis) {
  // End-to-end through the interchange format: generate → CSV → ingest →
  // analyse must agree with analysing the generated table directly
  // (coordinates round to 6 decimals in CSV — below the store's own
  // fixed-point resolution, so results are bit-identical).
  synth::CorpusConfig corpus;
  corpus.num_users = 3000;
  corpus.seed = 555;
  auto gen = synth::TweetGenerator::Create(corpus);
  ASSERT_TRUE(gen.ok());
  auto direct = gen->Generate();
  ASSERT_TRUE(direct.ok());

  const std::string path = testing::TempDir() + "/twimob_pipeline_roundtrip.csv";
  ASSERT_TRUE(tweetdb::WriteCsv(*direct, path).ok());
  auto ingested = tweetdb::ReadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ingested.ok());
  ASSERT_EQ(ingested->num_rows(), direct->num_rows());

  PipelineConfig config;
  config.run_mobility = false;
  auto a = AnalysisSnapshot::Analyze(
      tweetdb::TweetDataset::FromTable(std::move(*direct)), config);
  auto b = AnalysisSnapshot::Analyze(
      tweetdb::TweetDataset::FromTable(std::move(*ingested)), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t s = 0; s < 3; ++s) {
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(a->result().population[s].areas[i].unique_users,
                b->result().population[s].areas[i].unique_users)
          << s << "/" << i;
    }
  }
  EXPECT_DOUBLE_EQ(a->result().pooled_population_correlation.r,
                   b->result().pooled_population_correlation.r);
}

}  // namespace
}  // namespace twimob::core
