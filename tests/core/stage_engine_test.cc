#include "core/stage_engine.h"

#include <gtest/gtest.h>

#include "core/analysis_snapshot.h"
#include "core/report.h"

namespace twimob::core {
namespace {

PipelineConfig SmallConfig() {
  PipelineConfig config;
  config.corpus.num_users = 4000;
  config.corpus.seed = 11;
  return config;
}

class StageEngineTest : public ::testing::Test {
 protected:
  // One shared full run for the trace-shape assertions.
  static const PipelineResult& SharedResult() {
    static const PipelineResult result = [] {
      auto run = AnalysisSnapshot::Build(SmallConfig());
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      return run->result();
    }();
    return result;
  }
};

TEST_F(StageEngineTest, TraceListsStagesInExecutionOrder) {
  const PipelineTrace& trace = SharedResult().trace;
  std::vector<std::string> top_level;
  for (const StageRecord& r : trace.stages()) {
    if (r.name.find('/') == std::string::npos) top_level.push_back(r.name);
  }
  const std::vector<std::string> expected = {
      "synthesize", "compact",   "index",           "population",
      "trips@all",  "fit@National", "fit@State", "fit@Metropolitan"};
  EXPECT_EQ(top_level, expected);
}

TEST_F(StageEngineTest, FitStagesCarryPerModelSubRecords) {
  const PipelineTrace& trace = SharedResult().trace;
  for (const char* scale : {"National", "State", "Metropolitan"}) {
    for (const char* model :
         {"Gravity 4Param", "Gravity 2Param", "Radiation"}) {
      const std::string name = std::string("fit@") + scale + "/" + model;
      const StageRecord* sub = trace.Find(name);
      ASSERT_NE(sub, nullptr) << name;
      EXPECT_GT(sub->Counter("pairs"), 0) << name;
    }
  }
}

TEST_F(StageEngineTest, TraceCountersAndScanArePopulated) {
  const PipelineResult& result = SharedResult();
  const PipelineTrace& trace = result.trace;

  const StageRecord* synth = trace.Find("synthesize");
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(synth->Counter("users"), 4000);
  EXPECT_EQ(synth->Counter("tweets"),
            static_cast<int64_t>(result.generation.num_tweets));

  const StageRecord* index = trace.Find("index");
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->has_scan);
  EXPECT_EQ(index->scan.rows_scanned, result.generation.num_tweets);
  EXPECT_GT(index->scan.blocks_total, 0u);
  EXPECT_EQ(index->Counter("indexed_tweets"),
            static_cast<int64_t>(result.generation.num_tweets));

  // One walk feeds every scale: the stage scans the rows once, and each
  // scale's sub-record says what that scale did.
  const StageRecord* walk = trace.Find("trips@all");
  ASSERT_NE(walk, nullptr);
  ASSERT_TRUE(walk->has_scan);
  EXPECT_EQ(walk->scan.rows_scanned, result.generation.num_tweets);
  EXPECT_EQ(walk->Counter("scales"), 3);
  const char* kScales[] = {"National", "State", "Metropolitan"};
  for (size_t s = 0; s < 3; ++s) {
    const StageRecord* trips = trace.Find(std::string("trips@all/") + kScales[s]);
    ASSERT_NE(trips, nullptr) << kScales[s];
    EXPECT_EQ(trips->Counter("rows"),
              static_cast<int64_t>(result.generation.num_tweets));
    EXPECT_EQ(trips->Counter("trips"),
              static_cast<int64_t>(result.mobility[s].extraction.inter_area_trips));
    EXPECT_EQ(trips->Counter("pairs"),
              static_cast<int64_t>(result.mobility[s].observations.size()));
    EXPECT_GT(trips->Counter("verdict_bytes"), 0) << kScales[s];
    EXPECT_LE(trips->Counter("verdict_bytes"),
              static_cast<int64_t>(mobility::kMaxAssignerGridBytes));
    EXPECT_GT(trips->Counter("area_leaves"), 0) << kScales[s];
    EXPECT_GT(trips->Counter("empty_leaves"), 0) << kScales[s];
    // A counter a stage never set reads as zero.
    EXPECT_EQ(trips->Counter("no_such_counter"), 0);
  }
}

TEST_F(StageEngineTest, RenderTraceTableShowsEveryStage) {
  const std::string rendered = RenderTraceTable(SharedResult().trace);
  for (const char* name : {"synthesize", "compact", "index", "population",
                           "trips@all", "trips@all/Metropolitan",
                           "fit@Metropolitan/Radiation"}) {
    EXPECT_NE(rendered.find(name), std::string::npos) << name;
  }
}

TEST_F(StageEngineTest, MetroOverrideAppliesToMetropolitanOnly) {
  PipelineConfig config = SmallConfig();
  config.metro_radius_override_m = 500.0;
  config.run_mobility = false;
  auto snapshot = AnalysisSnapshot::Build(config);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->result().population.size(), 3u);
  // The override must land on the metropolitan scale — found by its enum,
  // not by position — and leave the other radii alone.
  EXPECT_DOUBLE_EQ(snapshot->result().population[0].radius_m, 50000.0);
  EXPECT_DOUBLE_EQ(snapshot->result().population[1].radius_m, 25000.0);
  EXPECT_DOUBLE_EQ(snapshot->result().population[2].radius_m, 500.0);
  EXPECT_EQ(snapshot->result().population[2].scale_name, "Metropolitan");
}

TEST_F(StageEngineTest, ContextTraceAccumulatesAcrossRuns) {
  PipelineConfig config = SmallConfig();
  config.run_mobility = false;
  AnalysisContext ctx(1);
  ASSERT_TRUE(AnalysisSnapshot::Build(config, &ctx).ok());
  const size_t after_first = ctx.trace().size();
  EXPECT_EQ(after_first, 4u);  // synthesize, compact, index, population
  ASSERT_TRUE(AnalysisSnapshot::Build(config, &ctx).ok());
  EXPECT_EQ(ctx.trace().size(), 2 * after_first);
}

class FailingStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "boom";
    return kName;
  }
  Status Run(AnalysisContext&, PipelineState&, StageRecord& record) override {
    record.AddCounter("attempts", 1);
    return Status::Internal("stage exploded");
  }
};

class NeverReachedStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "never";
    return kName;
  }
  Status Run(AnalysisContext&, PipelineState&, StageRecord&) override {
    ADD_FAILURE() << "engine must stop at the first failing stage";
    return Status::OK();
  }
};

class NoopStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "noop";
    return kName;
  }
  Status Run(AnalysisContext&, PipelineState&, StageRecord&) override {
    return Status::OK();
  }
};

tweetdb::RecoveryReport OneShardReport(uint64_t rows_recovered,
                                       uint64_t blocks_dropped) {
  tweetdb::RecoveryReport report;
  report.policy = tweetdb::RecoveryPolicy::kSalvage;
  report.generation = 3;
  tweetdb::ShardRecovery shard;
  shard.key = 0;
  shard.rows_expected = 100;
  shard.rows_recovered = rows_recovered;
  shard.blocks_total = 4;
  shard.blocks_dropped = blocks_dropped;
  shard.checksum_failures = blocks_dropped;
  report.shards.push_back(shard);
  return report;
}

TEST(StageEngineRunTest, DegradedRecoveryMarksEveryStageRecord) {
  AnalysisContext ctx(1);
  PipelineState state{PipelineConfig{}};
  state.recovery = OneShardReport(/*rows_recovered=*/90, /*blocks_dropped=*/1);
  state.recovery_seconds = 0.25;
  StageList stages;
  stages.push_back(std::make_unique<NoopStage>());
  ASSERT_TRUE(StageEngine::Run(ctx, stages, state).ok());

  ASSERT_EQ(ctx.trace().size(), 2u);
  const StageRecord& recover = ctx.trace().stages()[0];
  EXPECT_EQ(recover.name, "recover");
  EXPECT_TRUE(recover.degraded);
  EXPECT_DOUBLE_EQ(recover.wall_seconds, 0.25);
  EXPECT_EQ(recover.Counter("rows_expected"), 100);
  EXPECT_EQ(recover.Counter("rows_recovered"), 90);
  EXPECT_EQ(recover.Counter("blocks_dropped"), 1);
  EXPECT_EQ(recover.Counter("checksum_failures"), 1);
  // Every downstream stage of the run carries the degraded mark.
  EXPECT_EQ(ctx.trace().stages()[1].name, "noop");
  EXPECT_TRUE(ctx.trace().stages()[1].degraded);
  ASSERT_NE(state.result.trace.Find("recover"), nullptr);
  EXPECT_TRUE(state.result.trace.Find("recover")->degraded);
  ASSERT_NE(state.result.trace.Find("noop"), nullptr);
  EXPECT_TRUE(state.result.trace.Find("noop")->degraded);
}

TEST(StageEngineRunTest, CleanRecoveryLeavesStageRecordsUnmarked) {
  AnalysisContext ctx(1);
  PipelineState state{PipelineConfig{}};
  state.recovery = OneShardReport(/*rows_recovered=*/100, /*blocks_dropped=*/0);
  StageList stages;
  stages.push_back(std::make_unique<NoopStage>());
  ASSERT_TRUE(StageEngine::Run(ctx, stages, state).ok());

  ASSERT_EQ(ctx.trace().size(), 2u);
  EXPECT_EQ(ctx.trace().stages()[0].name, "recover");
  EXPECT_FALSE(ctx.trace().stages()[0].degraded);
  EXPECT_FALSE(ctx.trace().stages()[1].degraded);
}

TEST(StageEngineRunTest, StopsAtFirstFailureAndKeepsItsRecord) {
  AnalysisContext ctx(1);
  PipelineState state{PipelineConfig{}};
  StageList stages;
  stages.push_back(std::make_unique<FailingStage>());
  stages.push_back(std::make_unique<NeverReachedStage>());
  Status status = StageEngine::Run(ctx, stages, state);
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(ctx.trace().size(), 1u);
  EXPECT_EQ(ctx.trace().stages()[0].name, "boom");
  EXPECT_EQ(ctx.trace().stages()[0].Counter("attempts"), 1);
  ASSERT_NE(state.result.trace.Find("boom"), nullptr);
}

TEST(PipelineTraceTest, FindCounterAndTotals) {
  PipelineTrace trace;
  StageRecord& a = trace.AddStage("alpha");
  a.wall_seconds = 0.25;
  a.AddCounter("rows", 7);
  StageRecord b;
  b.name = "beta";
  b.wall_seconds = 0.75;
  trace.Append(b);

  ASSERT_NE(trace.Find("alpha"), nullptr);
  EXPECT_EQ(trace.Find("alpha")->Counter("rows"), 7);
  EXPECT_EQ(trace.Find("alpha")->Counter("missing"), 0);
  EXPECT_EQ(trace.Find("gamma"), nullptr);
  EXPECT_DOUBLE_EQ(trace.TotalWallSeconds(), 1.0);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

}  // namespace
}  // namespace twimob::core
