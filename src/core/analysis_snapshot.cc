#include "core/analysis_snapshot.h"

#include <algorithm>
#include <utility>

#include "core/stage_engine.h"

namespace twimob::core {

namespace {

/// Spreads one scale's sparse observation list (and each model's parallel
/// `estimated` vector) into dense row-major matrices. Pairs the extraction
/// never observed stay 0 — exactly what the paper's flow definition gives
/// them.
ScaleServingTables BuildScaleTables(const ScaleSpec& spec,
                                    const ScaleMobilityResult& scale) {
  ScaleServingTables tables;
  tables.scale_name = scale.scale_name;
  tables.num_areas = spec.areas.size();
  const size_t n = tables.num_areas;
  tables.observed.assign(n * n, 0.0);
  for (const mobility::FlowObservation& obs : scale.observations) {
    tables.observed[obs.src * n + obs.dst] = obs.flow;
  }
  tables.model_names.reserve(scale.models.size());
  tables.model_estimates.reserve(scale.models.size());
  for (const ModelSummary& model : scale.models) {
    std::vector<double> dense(n * n, 0.0);
    const size_t pairs =
        std::min(scale.observations.size(), model.estimated.size());
    for (size_t i = 0; i < pairs; ++i) {
      const mobility::FlowObservation& obs = scale.observations[i];
      dense[obs.src * n + obs.dst] = model.estimated[i];
    }
    tables.model_names.push_back(model.model_name);
    tables.model_estimates.push_back(std::move(dense));
  }
  return tables;
}

/// Lowers the sealed serving tables into the what-if sweep engine: one
/// input per scale, census populations + observed extracted flows. Returns
/// null when there is nothing to sweep (no mobility analysis) or a scale
/// is un-sweepable (ScenarioSweep::Create rejects it) — WhatIfService then
/// answers kFailedPrecondition instead of serving a broken engine.
std::shared_ptr<const epi::ScenarioSweep> BuildScenarioSweep(
    const std::vector<ScaleSpec>& specs,
    const std::vector<ScaleServingTables>& tables) {
  if (tables.empty()) return nullptr;
  std::vector<epi::SweepScaleInput> inputs;
  inputs.reserve(tables.size());
  for (size_t s = 0; s < tables.size(); ++s) {
    const size_t n = tables[s].num_areas;
    std::vector<double> populations;
    populations.reserve(n);
    for (const census::Area& area : specs[s].areas) {
      populations.push_back(area.population);
    }
    auto flows = mobility::OdMatrix::Create(n);
    if (!flows.ok()) return nullptr;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        flows->SetFlow(i, j, tables[s].observed[i * n + j]);
      }
    }
    inputs.push_back(epi::SweepScaleInput{tables[s].scale_name,
                                          std::move(populations),
                                          std::move(*flows)});
  }
  auto sweep = epi::ScenarioSweep::Create(std::move(inputs));
  if (!sweep.ok()) return nullptr;
  return std::make_shared<const epi::ScenarioSweep>(std::move(*sweep));
}

/// What a full run leaves behind for later snapshots: its per-scale
/// context (specs, and each scale's assigner and distances), and its rows
/// as the first run (the compacted dataset, its index, and the population
/// stage's per-area user lists and tweet counts).
void SealFullRun(PipelineState& state) {
  auto scales = std::make_shared<AnalysisScales>();
  scales->specs = std::move(state.specs);
  for (ScaleWork& work : state.scale_work) {
    if (!work.assigner.has_value()) break;
    scales->assigners.push_back(std::move(*work.assigner));
    scales->distances.push_back(std::move(work.distances));
  }
  auto run = std::make_shared<AnalysisRun>();
  run->rows = std::move(state.dataset);
  run->estimator = std::move(state.estimator);
  run->new_users = std::move(state.area_users);
  for (const PopulationEstimateResult& scale : state.result.population) {
    std::vector<size_t>& tweets = run->tweets.emplace_back();
    for (const AreaPopulationEstimate& area : scale.areas) {
      tweets.push_back(area.tweet_count);
    }
  }
  state.scales = std::move(scales);
  state.runs = {std::move(run)};
}

}  // namespace

AnalysisSnapshot AnalysisSnapshot::Seal(PipelineState&& state,
                                        SnapshotSource source) {
  AnalysisSnapshot snapshot;
  if (state.runs.empty()) SealFullRun(state);
  snapshot.scales_ = std::move(state.scales);
  snapshot.runs_ = std::move(state.runs);
  std::vector<const PopulationEstimator*> layers;
  for (const auto& run : snapshot.runs_) layers.push_back(&*run->estimator);
  snapshot.estimator_ = PopulationEstimator::Layered(layers);
  snapshot.source_ = std::move(source);
  for (ScaleWork& work : state.scale_work) {
    if (work.od.has_value()) snapshot.trips_.push_back(std::move(*work.od));
  }
  snapshot.result_ = std::move(state.result);
  const std::vector<ScaleSpec>& specs = snapshot.scales_->specs;
  const size_t scales = std::min(specs.size(), snapshot.result_.mobility.size());
  snapshot.serving_tables_.reserve(scales);
  for (size_t s = 0; s < scales; ++s) {
    snapshot.serving_tables_.push_back(
        BuildScaleTables(specs[s], snapshot.result_.mobility[s]));
  }
  snapshot.scenario_sweep_ = BuildScenarioSweep(specs, snapshot.serving_tables_);
  return snapshot;
}

Result<AnalysisSnapshot> AnalysisSnapshot::Build(const PipelineConfig& config,
                                                 AnalysisContext* ctx) {
  if (ctx == nullptr) {
    AnalysisContext local;
    return Build(config, &local);
  }
  PipelineState state(config);
  const StageList stages = StageEngine::FullPipeline(config);
  TWIMOB_RETURN_IF_ERROR(StageEngine::Run(*ctx, stages, state));
  return Seal(std::move(state), SnapshotSource{});
}

Result<AnalysisSnapshot> AnalysisSnapshot::Analyze(tweetdb::TweetDataset dataset,
                                                   const PipelineConfig& config,
                                                   SnapshotSource source,
                                                   AnalysisContext* ctx) {
  if (ctx == nullptr) {
    AnalysisContext local;
    return Analyze(std::move(dataset), config, std::move(source), &local);
  }
  PipelineState state(config);
  state.dataset = std::move(dataset);
  state.recovery = source.recovery;
  state.recovery_seconds = source.recovery_seconds;
  const StageList stages = StageEngine::AnalysisStages(config);
  TWIMOB_RETURN_IF_ERROR(StageEngine::Run(*ctx, stages, state));
  return Seal(std::move(state), std::move(source));
}

Result<AnalysisSnapshot> AnalysisSnapshot::Derive(const AnalysisSnapshot& installed,
                                                  tweetdb::TweetDataset delta_rows,
                                                  const PipelineConfig& config,
                                                  SnapshotSource source,
                                                  AnalysisContext* ctx) {
  if (ctx == nullptr) {
    AnalysisContext local;
    return Derive(installed, std::move(delta_rows), config, std::move(source),
                  &local);
  }
  PipelineState state(config);
  state.dataset = std::move(delta_rows);
  state.installed = &installed;
  const bool rebase = source.generation != installed.generation();
  if (source.recovery.has_value()) {
    // A rebase reads none of the compacted generation's shards: their rows
    // are the ones it carries.
    if (rebase) {
      for (const tweetdb::ShardRecovery& shard : source.recovery->shards) {
        state.merged_rows += shard.rows_recovered;
      }
    }
    // The trace accounts for the files this run read: the new deltas.
    tweetdb::RecoveryReport read = *source.recovery;
    read.shards.clear();
    std::erase_if(read.deltas, [&installed](const tweetdb::ShardRecovery& d) {
      return static_cast<uint64_t>(d.key) < installed.ingest_seq();
    });
    state.recovery = std::move(read);
  }
  state.recovery_seconds = source.recovery_seconds;
  const StageList stages = StageEngine::DeltaStages(config, rebase);
  TWIMOB_RETURN_IF_ERROR(StageEngine::Run(*ctx, stages, state));
  return Seal(std::move(state), std::move(source));
}

}  // namespace twimob::core
