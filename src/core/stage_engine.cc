#include "core/stage_engine.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <utility>

#include "common/time_util.h"
#include "core/analysis_snapshot.h"
#include "geo/geodesic.h"

namespace twimob::core {

namespace {

/// Fills state.specs on first use with ResolveScaleSpecs(state.config), and
/// state.assigners with each scale's assigner (its verdicts refined on
/// `pool`).
void EnsureSpecs(PipelineState& state, ThreadPool& pool) {
  if (!state.specs.empty()) return;
  state.specs = ResolveScaleSpecs(state.config);
  state.assigners.reserve(state.specs.size());
  for (const ScaleSpec& spec : state.specs) {
    state.assigners.emplace_back(spec.areas, spec.radius_m, &pool);
  }
}

Result<ModelSummary> SummarizeGravity(
    const std::vector<mobility::FlowObservation>& obs,
    mobility::GravityVariant variant, const std::vector<double>& observed) {
  auto model = mobility::GravityModel::Fit(obs, variant);
  if (!model.ok()) return model.status();
  ModelSummary s;
  s.model_name = mobility::GravityVariantName(variant);
  s.log10_c = model->log10_c();
  s.alpha = model->alpha();
  s.beta = model->beta();
  s.gamma = model->gamma();
  s.estimated = model->PredictAll(obs);
  auto metrics = mobility::EvaluateModel(s.estimated, observed);
  if (!metrics.ok()) return metrics.status();
  s.metrics = *metrics;
  return s;
}

Result<ModelSummary> SummarizeRadiation(
    const std::vector<mobility::FlowObservation>& obs,
    const std::vector<census::Area>& areas, const std::vector<double>& masses,
    const std::vector<double>& observed) {
  auto model = mobility::RadiationModel::Fit(obs, areas, masses);
  if (!model.ok()) return model.status();
  ModelSummary s;
  s.model_name = "Radiation";
  s.log10_c = model->log10_c();
  s.estimated = model->PredictAll(obs);
  auto metrics = mobility::EvaluateModel(s.estimated, observed);
  if (!metrics.ok()) return metrics.status();
  s.metrics = *metrics;
  return s;
}

class SynthesizeStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "synthesize";
    return kName;
  }

  Status Run(AnalysisContext&, PipelineState& state, StageRecord& record) override {
    auto generator = synth::TweetGenerator::Create(state.config.corpus);
    if (!generator.ok()) return generator.status();
    // Streaming ingest: user batches are routed into the time shards as
    // they are generated; the full corpus is never materialised outside
    // the dataset.
    const size_t shards = std::max<size_t>(1, state.config.num_shards);
    const tweetdb::PartitionSpec partition =
        shards > 1 ? tweetdb::PartitionSpec::ForWindow(
                         state.config.corpus.window_start,
                         state.config.corpus.window_end, shards)
                   : tweetdb::PartitionSpec::Single();
    synth::GenerationReport report;
    auto dataset = generator->GenerateDataset(partition, &report);
    if (!dataset.ok()) return dataset.status();
    state.dataset = std::move(*dataset);
    state.result.generation = report;
    record.AddCounter("users", static_cast<int64_t>(report.num_users));
    record.AddCounter("tweets", static_cast<int64_t>(report.num_tweets));
    if (state.dataset.num_shards() > 1) {
      record.AddCounter("shards",
                        static_cast<int64_t>(state.dataset.num_shards()));
    }
    return Status::OK();
  }
};

class CompactStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "compact";
    return kName;
  }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    tweetdb::TweetDataset& dataset = state.dataset;
    const bool already_sorted = dataset.sorted_by_user_time();
    std::vector<tweetdb::TweetDataset::ShardCompaction> per_shard;
    if (!already_sorted) dataset.CompactShards(&ctx.pool(), &per_shard);
    record.AddCounter("rows", static_cast<int64_t>(dataset.num_rows()));
    record.AddCounter("blocks", static_cast<int64_t>(dataset.num_blocks()));
    record.AddCounter("already_sorted", already_sorted ? 1 : 0);
    // Per-shard compaction rows, only when actually partitioned — the
    // single-shard trace keeps its historical shape.
    if (dataset.num_shards() > 1) {
      record.AddCounter("shards", static_cast<int64_t>(dataset.num_shards()));
      for (size_t s = 0; s < dataset.num_shards(); ++s) {
        StageRecord sub;
        sub.name = name() + "/shard" + std::to_string(dataset.shard_key(s));
        const tweetdb::TweetDataset::ShardCompaction done =
            s < per_shard.size() ? per_shard[s]
                                 : tweetdb::TweetDataset::ShardCompaction{};
        sub.wall_seconds = done.seconds;
        sub.AddCounter("rows", static_cast<int64_t>(dataset.shard(s).num_rows()));
        sub.AddCounter("blocks",
                       static_cast<int64_t>(dataset.shard(s).num_blocks()));
        // Whether this open paid for a re-sort: the out-of-order side list
        // and whether the shard's blocks were rebuilt.
        sub.AddCounter("rows_out_of_order",
                       static_cast<int64_t>(done.report.rows_out_of_order));
        sub.AddCounter("rewritten", done.report.rewritten ? 1 : 0);
        ctx.trace().Append(sub);
        state.result.trace.Append(std::move(sub));
      }
    }
    return Status::OK();
  }
};

class IndexStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "index";
    return kName;
  }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    tweetdb::ScanStatistics scan;
    auto estimator =
        PopulationEstimator::Build(state.dataset, &ctx.pool(), &scan);
    if (!estimator.ok()) return estimator.status();
    state.estimator = std::move(*estimator);
    record.SetScan(scan);
    record.AddCounter("indexed_tweets",
                      static_cast<int64_t>(state.estimator->num_indexed_tweets()));
    // Per-shard scan rows, only when actually partitioned.
    if (state.dataset.num_shards() > 1) {
      for (size_t s = 0; s < state.dataset.num_shards(); ++s) {
        const tweetdb::TweetTable& shard = state.dataset.shard(s);
        StageRecord sub;
        sub.name =
            name() + "/shard" + std::to_string(state.dataset.shard_key(s));
        tweetdb::ScanStatistics shard_scan;
        shard_scan.blocks_total = shard.num_blocks();
        shard_scan.rows_scanned = shard.num_rows();
        shard_scan.rows_matched = shard.num_rows();
        sub.SetScan(shard_scan);
        sub.AddCounter("rows", static_cast<int64_t>(shard.num_rows()));
        ctx.trace().Append(sub);
        state.result.trace.Append(std::move(sub));
      }
    }
    return Status::OK();
  }
};

class PopulationStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "population";
    return kName;
  }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    if (!state.estimator.has_value()) {
      return Status::FailedPrecondition(
          "population stage requires the index stage to run first");
    }
    EnsureSpecs(state, ctx.pool());
    // One loop over every (scale, area) pair. The walks keep each area's
    // users: the base the delta path unites new rows' users with.
    auto pops = state.estimator->EstimateScales(state.specs, &ctx.pool(),
                                                &state.area_users);
    if (!pops.ok()) return pops.status();
    size_t samples = 0;
    for (PopulationEstimateResult& pop : *pops) {
      samples += pop.areas.size();
      state.result.population.push_back(std::move(pop));
    }
    auto pooled = PooledPopulationCorrelation(state.result.population);
    if (!pooled.ok()) return pooled.status();
    state.result.pooled_population_correlation = *pooled;
    record.AddCounter("scales", static_cast<int64_t>(state.specs.size()));
    record.AddCounter("samples", static_cast<int64_t>(samples));
    return Status::OK();
  }
};

/// Every scale's trips from one walk over the rows (ExtractScaleTrips). The
/// record carries the walk's scan; one sub-record per scale carries what
/// that scale did — its rows, trips and observation pairs — and what its
/// assigner's verdicts hold (bytes, leaves, build time).
class TripsStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "trips@all";
    return kName;
  }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    EnsureSpecs(state, ctx.pool());
    if (state.result.population.size() < state.specs.size()) {
      return Status::FailedPrecondition(
          "trips stage requires the population stage to run first");
    }
    std::vector<ScaleMobilityResult> scales;
    std::vector<ScaleWork> works;
    TWIMOB_RETURN_IF_ERROR(ExtractScaleTrips(
        state.dataset, state.specs, state.assigners,
        std::span<const PopulationEstimateResult>(state.result.population)
            .first(state.specs.size()),
        ctx.pool(), &scales, &works));

    // The extraction is itself a full storage scan, fed every row.
    tweetdb::ScanStatistics scan;
    scan.blocks_total = state.dataset.num_blocks();
    scan.rows_scanned = state.dataset.num_rows();
    scan.rows_matched = state.dataset.num_rows();
    record.SetScan(scan);
    record.AddCounter("rows", static_cast<int64_t>(state.dataset.num_rows()));
    record.AddCounter("scales", static_cast<int64_t>(scales.size()));
    for (size_t s = 0; s < scales.size(); ++s) {
      const mobility::AssignerVerdictStats& verdicts = state.assigners[s].verdict_stats();
      StageRecord sub;
      sub.name = name() + "/" + state.specs[s].name;
      sub.degraded = record.degraded;
      sub.AddCounter("rows", static_cast<int64_t>(scales[s].extraction.tweets_seen));
      sub.AddCounter("trips", static_cast<int64_t>(scales[s].extraction.inter_area_trips));
      sub.AddCounter("pairs", static_cast<int64_t>(scales[s].observations.size()));
      sub.AddCounter("verdict_bytes", static_cast<int64_t>(verdicts.bytes));
      sub.AddCounter("area_leaves", static_cast<int64_t>(verdicts.area_leaves));
      sub.AddCounter("empty_leaves", static_cast<int64_t>(verdicts.empty_leaves));
      sub.AddCounter("test_leaves", static_cast<int64_t>(verdicts.test_leaves));
      sub.AddCounter("verdict_build_us", verdicts.build_us);
      ctx.trace().Append(sub);
      state.result.trace.Append(std::move(sub));
      state.result.mobility.push_back(std::move(scales[s]));
      state.scale_work.push_back(std::move(works[s]));
    }
    return Status::OK();
  }
};

class FitStage : public Stage {
 public:
  explicit FitStage(size_t scale_pos)
      : scale_pos_(scale_pos),
        name_("fit@" + census::ScaleName(census::kAllScales[scale_pos])) {}

  const std::string& name() const override { return name_; }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    if (scale_pos_ >= state.result.mobility.size() ||
        scale_pos_ >= state.scale_work.size()) {
      return Status::FailedPrecondition(
          "fit stage requires the trips stage to run first");
    }
    EnsureSpecs(state, ctx.pool());
    ScaleMobilityResult& scale_result = state.result.mobility[scale_pos_];
    const ScaleWork& work = state.scale_work[scale_pos_];

    double per_model_seconds[3] = {0.0, 0.0, 0.0};
    auto models = FitPaperModels(scale_result.observations,
                                 state.specs[scale_pos_].areas, work.masses,
                                 work.observed, ctx.pool(), per_model_seconds);
    if (!models.ok()) return models.status();

    for (size_t m = 0; m < models->size(); ++m) {
      StageRecord sub;
      sub.name = name_ + "/" + (*models)[m].model_name;
      sub.wall_seconds = per_model_seconds[m];
      sub.AddCounter("pairs",
                     static_cast<int64_t>(scale_result.observations.size()));
      ctx.trace().Append(sub);
      state.result.trace.Append(std::move(sub));
    }
    record.AddCounter("models", static_cast<int64_t>(models->size()));
    record.AddCounter("pairs",
                      static_cast<int64_t>(scale_result.observations.size()));
    scale_result.models = std::move(*models);
    return Status::OK();
  }

 private:
  size_t scale_pos_;
  std::string name_;
};

/// The rebase run's first stage (see StageEngine::DeltaStages). The catalog
/// has checked the compacted generation's provenance, so there is nothing
/// to read or recompute: the installed runs and results carry over as they
/// are, and the `delta` stage that follows derives from them. The record
/// says what was carried.
class RebaseStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "rebase";
    return kName;
  }

  Status Run(AnalysisContext&, PipelineState& state, StageRecord& record) override {
    if (state.installed == nullptr || state.installed->runs().empty()) {
      return Status::FailedPrecondition(
          "rebase stage requires an installed snapshot to carry");
    }
    record.AddCounter("carried_rows", static_cast<int64_t>(state.installed->num_rows()));
    record.AddCounter("runs", static_cast<int64_t>(state.installed->runs().size()));
    record.AddCounter("merged_rows", static_cast<int64_t>(state.merged_rows));
    return Status::OK();
  }
};

/// The delta run's one analysis stage (see StageEngine::DeltaStages). Every
/// aggregate it updates is an integer — user-set sizes, tweet counts, unit
/// trip flows — so its counts equal a full run's exactly, and the
/// floating-point tail (AssemblePopulationEstimate, BuildObservations and
/// the fit stages) then runs on identical inputs.
class DeltaStage : public Stage {
 public:
  const std::string& name() const override {
    static const std::string kName = "delta";
    return kName;
  }

  Status Run(AnalysisContext& ctx, PipelineState& state,
             StageRecord& record) override {
    if (state.installed == nullptr || state.installed->runs().empty()) {
      return Status::FailedPrecondition(
          "delta stage requires an installed snapshot to derive from");
    }
    const AnalysisSnapshot& installed = *state.installed;
    const AnalysisScales& scales = *installed.scales();
    state.specs = scales.specs;

    const size_t delta_rows = state.dataset.num_rows();
    std::vector<uint64_t> touched;
    state.dataset.ForEachRow(
        [&touched](const tweetdb::Tweet& t) { touched.push_back(t.user_id); });
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    // The new rows, sealed as the newest run: compacted, indexed, and each
    // area's users kept unless an older run already holds them.
    std::vector<std::shared_ptr<const AnalysisRun>> runs = installed.runs();
    if (delta_rows > 0) {
      auto run = std::make_shared<AnalysisRun>();
      run->rows = std::move(state.dataset);
      run->rows.CompactShards(&ctx.pool());
      auto estimator = PopulationEstimator::Build(run->rows, &ctx.pool());
      if (!estimator.ok()) return estimator.status();
      run->estimator = std::move(*estimator);
      run->batches = 1;
      CountNewUsers(ctx, state.specs, runs, *run);
      runs.push_back(std::move(run));
    }

    TWIMOB_RETURN_IF_ERROR(EstimatePopulation(runs, state));
    if (!installed.trips().empty()) {
      TWIMOB_RETURN_IF_ERROR(ReplayTrips(ctx, installed, runs, touched, state));
    }
    TWIMOB_RETURN_IF_ERROR(MergeRunsBySize(ctx, state.specs, &runs));

    size_t overlay_rows = 0;
    for (size_t r = 1; r < runs.size(); ++r) overlay_rows += runs[r]->rows.num_rows();
    record.AddCounter("rows", static_cast<int64_t>(delta_rows));
    record.AddCounter("touched_users", static_cast<int64_t>(touched.size()));
    record.AddCounter("overlay_rows", static_cast<int64_t>(overlay_rows));
    record.AddCounter("runs", static_cast<int64_t>(runs.size()));
    state.scales = installed.scales();
    state.runs = std::move(runs);
    return Status::OK();
  }

 private:
  /// Fills `run`'s per-area lists from one walk of its own index per area:
  /// its tweets within ε, and its users within ε that no run of `older`
  /// holds (the older runs' lists are disjoint and together hold every
  /// user they saw, so one binary search per list decides).
  static void CountNewUsers(AnalysisContext& ctx, const std::vector<ScaleSpec>& specs,
                            const std::vector<std::shared_ptr<const AnalysisRun>>& older,
                            AnalysisRun& run) {
    std::vector<std::pair<size_t, size_t>> areas;  // (scale, area)
    run.new_users.resize(specs.size());
    run.tweets.resize(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      run.new_users[s].resize(specs[s].areas.size());
      run.tweets[s].assign(specs[s].areas.size(), 0);
      for (size_t i = 0; i < specs[s].areas.size(); ++i) areas.emplace_back(s, i);
    }
    ctx.pool().ParallelFor(areas.size(), [&](size_t k) {
      const size_t s = areas[k].first;
      const size_t i = areas[k].second;
      std::vector<uint64_t>& users = run.new_users[s][i];
      run.tweets[s][i] = run.estimator->CollectUsers(specs[s].areas[i].center,
                                                     specs[s].radius_m, &users);
      std::erase_if(users, [&older, s, i](uint64_t user) {
        return std::any_of(older.begin(), older.end(), [&](const auto& o) {
          const std::vector<uint64_t>& held = o->new_users[s][i];
          return std::binary_search(held.begin(), held.end(), user);
        });
      });
    });
  }

  /// Every area's distinct users are the sum of the runs' disjoint list
  /// sizes, and its tweets the sum of theirs.
  static Status EstimatePopulation(const std::vector<std::shared_ptr<const AnalysisRun>>& runs,
                                   PipelineState& state) {
    for (size_t s = 0; s < state.specs.size(); ++s) {
      const size_t n = state.specs[s].areas.size();
      std::vector<size_t> users(n, 0);
      std::vector<size_t> tweets(n, 0);
      for (const auto& run : runs) {
        for (size_t i = 0; i < n; ++i) {
          users[i] += run->new_users[s][i].size();
          tweets[i] += run->tweets[s][i];
        }
      }
      auto pop = AssemblePopulationEstimate(state.specs[s], users, tweets);
      if (!pop.ok()) return pop.status();
      state.result.population.push_back(std::move(*pop));
    }
    auto pooled = PooledPopulationCorrelation(state.result.population);
    if (!pooled.ok()) return pooled.status();
    state.result.pooled_population_correlation = *pooled;
    return Status::OK();
  }

  /// Only the users of the new rows have different trips: each one's old
  /// rows (the installed runs) are replayed through the trip machine and
  /// subtracted, their new rows (`runs`: the installed runs and the new
  /// one) replayed and added. Flows are integral doubles and counters
  /// integers, so the update is exact in any order.
  static Status ReplayTrips(AnalysisContext& ctx, const AnalysisSnapshot& installed,
                            const std::vector<std::shared_ptr<const AnalysisRun>>& runs,
                            const std::vector<uint64_t>& touched, PipelineState& state) {
    const AnalysisScales& scales = *installed.scales();
    const size_t num_scales = scales.specs.size();
    if (installed.trips().size() != num_scales ||
        installed.result().mobility.size() != num_scales) {
      return Status::FailedPrecondition(
          "delta stage: installed snapshot has no trips to update");
    }

    const auto layers = [](const std::vector<std::shared_ptr<const AnalysisRun>>& of) {
      std::vector<const tweetdb::TweetDataset*> out;
      for (const auto& run : of) out.push_back(&run->rows);
      return out;
    };
    const std::vector<const tweetdb::TweetDataset*> old_layers = layers(installed.runs());
    const std::vector<const tweetdb::TweetDataset*> new_layers = layers(runs);
    std::vector<tweetdb::Tweet> old_rows;
    std::vector<tweetdb::Tweet> new_rows;
    for (const uint64_t user : touched) {
      mobility::GatherUserRows(user, old_layers, &old_rows);
      mobility::GatherUserRows(user, new_layers, &new_rows);
    }

    // Each row list feeds once through every scale's trip machine: the
    // old rows on one task, the new rows on another.
    std::vector<mobility::OdMatrix> removed;
    std::vector<mobility::OdMatrix> added;
    for (size_t s = 0; s < num_scales; ++s) {
      const size_t n = state.specs[s].areas.size();
      removed.push_back(*mobility::OdMatrix::Create(n));  // cannot fail: the installed
      added.push_back(*mobility::OdMatrix::Create(n));    // snapshot has n > 0 areas
    }
    const mobility::TripOptions options;
    std::vector<mobility::TripAccumulator> old_trips;
    std::vector<mobility::TripAccumulator> new_trips;
    old_trips.reserve(num_scales);
    new_trips.reserve(num_scales);
    for (size_t s = 0; s < num_scales; ++s) {
      old_trips.emplace_back(scales.assigners[s], options, &removed[s]);
      new_trips.emplace_back(scales.assigners[s], options, &added[s]);
    }
    ctx.pool().ParallelFor(2, [&](size_t side) {
      const std::vector<tweetdb::Tweet>& rows = side == 0 ? old_rows : new_rows;
      std::vector<mobility::TripAccumulator>& accs = side == 0 ? old_trips : new_trips;
      for (const tweetdb::Tweet& t : rows) {
        for (mobility::TripAccumulator& acc : accs) acc.Process(t.user_id, t.timestamp, t.pos);
      }
    });

    state.result.mobility.resize(num_scales);
    state.scale_work.resize(num_scales);
    for (size_t s = 0; s < num_scales; ++s) {
      const ScaleSpec& spec = state.specs[s];
      const size_t n = spec.areas.size();
      ScaleWork& work = state.scale_work[s];
      work.od = installed.trips()[s];
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          work.od->SetFlow(i, j,
                           work.od->Flow(i, j) - removed[s].Flow(i, j) + added[s].Flow(i, j));
        }
      }
      ScaleMobilityResult& scale = state.result.mobility[s];
      scale.scale_name = spec.name;
      scale.radius_m = spec.radius_m;
      scale.extraction = installed.result().mobility[s].extraction;
      scale.extraction -= old_trips[s].stats();
      scale.extraction += new_trips[s].stats();

      // The masses are the new population's unique users, as the trips
      // stage takes them from the population stage.
      for (const AreaPopulationEstimate& area : state.result.population[s].areas) {
        work.masses.push_back(static_cast<double>(area.unique_users));
      }
      scale.observations =
          mobility::BuildObservations(*work.od, work.masses, scales.distances[s]);
      for (const mobility::FlowObservation& o : scale.observations) {
        work.observed.push_back(o.flow);
      }
    }
    return Status::OK();
  }

  /// The logarithmic method's merge rule, fixed: while the newest run holds
  /// more than half as many rows as the run before it — or, below the
  /// oldest run, more than half as many batches — the two merge into one.
  /// Run sizes then at least halve from each run to the next in rows, and
  /// below the oldest in batches too, so N batches leave at most
  /// floor(log2 N) + 2 runs, and each row is re-merged O(log N) times.
  static Status MergeRunsBySize(AnalysisContext& ctx, const std::vector<ScaleSpec>& specs,
                                std::vector<std::shared_ptr<const AnalysisRun>>* runs) {
    while (runs->size() >= 2) {
      const AnalysisRun& newer = *runs->back();
      const AnalysisRun& older = *(*runs)[runs->size() - 2];
      const bool by_rows = 2 * newer.rows.num_rows() > older.rows.num_rows();
      const bool by_batches = runs->size() > 2 && 2 * newer.batches > older.batches;
      if (!by_rows && !by_batches) break;
      auto merged = MergeRuns(ctx, specs, older, newer);
      if (!merged.ok()) return merged.status();
      runs->pop_back();
      runs->back() = std::move(*merged);
    }
    return Status::OK();
  }

  /// One run holding `older`'s rows and `newer`'s: the shards merged
  /// linearly (both are compacted, TweetTable::Merge), the index rebuilt
  /// over the merged rows, and the per-area lists united (disjoint by
  /// construction, so a plain merge).
  static Result<std::shared_ptr<const AnalysisRun>> MergeRuns(
      AnalysisContext& ctx, const std::vector<ScaleSpec>& specs, const AnalysisRun& older,
      const AnalysisRun& newer) {
    const tweetdb::TweetDataset& a = older.rows;
    const tweetdb::TweetDataset& b = newer.rows;
    std::vector<int64_t> keys;
    for (size_t i = 0; i < a.num_shards(); ++i) keys.push_back(a.shard_key(i));
    for (size_t i = 0; i < b.num_shards(); ++i) keys.push_back(b.shard_key(i));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const auto find_shard = [](const tweetdb::TweetDataset& d,
                               int64_t key) -> const tweetdb::TweetTable* {
      for (size_t i = 0; i < d.num_shards(); ++i) {
        if (d.shard_key(i) == key) return &d.shard(i);
      }
      return nullptr;
    };
    std::vector<tweetdb::TweetTable> tables(keys.size());
    ctx.pool().ParallelFor(keys.size(), [&](size_t k) {
      std::vector<tweetdb::TweetTable> parts;
      for (const tweetdb::TweetTable* shard : {find_shard(a, keys[k]), find_shard(b, keys[k])}) {
        if (shard == nullptr) continue;
        tweetdb::TweetTable& copy = parts.emplace_back(shard->block_capacity());
        for (size_t blk = 0; blk < shard->num_blocks(); ++blk) {
          copy.AdoptSealedBlock(shard->block(blk));
        }
      }
      tables[k] = tweetdb::TweetTable::Merge(std::move(parts), a.block_capacity());
    });

    auto run = std::make_shared<AnalysisRun>();
    run->rows = tweetdb::TweetDataset(a.partition(), a.block_capacity());
    for (size_t k = 0; k < keys.size(); ++k) {
      TWIMOB_RETURN_IF_ERROR(run->rows.AdoptShard(keys[k], std::move(tables[k])));
    }
    auto estimator = PopulationEstimator::Build(run->rows, &ctx.pool());
    if (!estimator.ok()) return estimator.status();
    run->estimator = std::move(*estimator);
    run->batches = older.batches + newer.batches;
    run->new_users.resize(specs.size());
    run->tweets.resize(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      const size_t n = specs[s].areas.size();
      run->new_users[s].resize(n);
      run->tweets[s].resize(n);
      for (size_t i = 0; i < n; ++i) {
        const std::vector<uint64_t>& x = older.new_users[s][i];
        const std::vector<uint64_t>& y = newer.new_users[s][i];
        std::merge(x.begin(), x.end(), y.begin(), y.end(),
                   std::back_inserter(run->new_users[s][i]));
        run->tweets[s][i] = older.tweets[s][i] + newer.tweets[s][i];
      }
    }
    return std::shared_ptr<const AnalysisRun>(std::move(run));
  }
};

}  // namespace

StageList StageEngine::FullPipeline(const PipelineConfig& config) {
  StageList stages;
  stages.push_back(std::make_unique<SynthesizeStage>());
  for (auto& stage : AnalysisStages(config)) stages.push_back(std::move(stage));
  return stages;
}

StageList StageEngine::AnalysisStages(const PipelineConfig& config) {
  StageList stages;
  stages.push_back(std::make_unique<CompactStage>());
  stages.push_back(std::make_unique<IndexStage>());
  stages.push_back(std::make_unique<PopulationStage>());
  if (config.run_mobility) {
    stages.push_back(std::make_unique<TripsStage>());
    for (size_t s = 0; s < std::size(census::kAllScales); ++s) {
      stages.push_back(std::make_unique<FitStage>(s));
    }
  }
  return stages;
}

StageList StageEngine::DeltaStages(const PipelineConfig& config, bool rebase) {
  StageList stages;
  if (rebase) stages.push_back(std::make_unique<RebaseStage>());
  stages.push_back(std::make_unique<DeltaStage>());
  if (config.run_mobility) {
    for (size_t s = 0; s < std::size(census::kAllScales); ++s) {
      stages.push_back(std::make_unique<FitStage>(s));
    }
  }
  return stages;
}

Status StageEngine::Run(AnalysisContext& ctx, const StageList& stages,
                        PipelineState& state) {
  // A run over a recovered dataset starts with the recovery's own record;
  // when the recovery was degraded (salvaged data), every stage of the run
  // is flagged as having analysed partial data.
  bool degraded_run = false;
  if (state.recovery.has_value()) {
    StageRecord recover =
        MakeRecoveryRecord(*state.recovery, state.recovery_seconds);
    degraded_run = recover.degraded;
    ctx.trace().Append(recover);
    state.result.trace.Append(std::move(recover));
  }
  Status status = Status::OK();
  for (const std::unique_ptr<Stage>& stage : stages) {
    StageRecord record;
    record.name = stage->name();
    record.degraded = degraded_run;
    const double t0 = MonotonicSeconds();
    status = stage->Run(ctx, state, record);
    record.wall_seconds = MonotonicSeconds() - t0;
    ctx.trace().Append(record);
    state.result.trace.Append(std::move(record));
    if (!status.ok()) break;
  }
  return status;
}

std::vector<ScaleSpec> ResolveScaleSpecs(const PipelineConfig& config) {
  // The override is looked up by census::Scale::kMetropolitan — never by
  // position — so reordering or adding scales cannot silently override the
  // wrong radius.
  std::vector<ScaleSpec> specs = PaperScales();
  if (config.metro_radius_override_m > 0.0) {
    for (ScaleSpec& spec : specs) {
      if (spec.scale == census::Scale::kMetropolitan) {
        spec = MakeScaleSpec(census::Scale::kMetropolitan,
                             config.metro_radius_override_m);
      }
    }
  }
  return specs;
}

std::vector<double> PairwiseDistances(const std::vector<census::Area>& areas,
                                      ThreadPool& pool) {
  const size_t n = areas.size();
  std::vector<double> d(n * n, 0.0);
  // Each task owns row i's upper triangle; the serial mirror pass below
  // keeps every (i, j) computed exactly once, as in the serial evaluation.
  pool.ParallelFor(n, [&areas, &d, n](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      d[i * n + j] = geo::HaversineMeters(areas[i].center, areas[j].center);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) d[j * n + i] = d[i * n + j];
  }
  return d;
}

Result<std::vector<ModelSummary>> FitPaperModels(
    const std::vector<mobility::FlowObservation>& observations,
    const std::vector<census::Area>& areas, const std::vector<double>& masses,
    const std::vector<double>& observed, ThreadPool& pool,
    double* per_model_seconds) {
  // The three fits are independent; run them concurrently into fixed
  // slots, then check in paper column order.
  Result<ModelSummary> slots[3] = {
      Status::Internal("not fitted"), Status::Internal("not fitted"),
      Status::Internal("not fitted")};
  double seconds[3] = {0.0, 0.0, 0.0};
  pool.ParallelFor(3, [&](size_t m) {
    const double t0 = MonotonicSeconds();
    switch (m) {
      case 0:
        slots[0] = SummarizeGravity(observations,
                                    mobility::GravityVariant::kFourParam,
                                    observed);
        break;
      case 1:
        slots[1] = SummarizeGravity(observations,
                                    mobility::GravityVariant::kTwoParam,
                                    observed);
        break;
      default:
        slots[2] = SummarizeRadiation(observations, areas, masses, observed);
        break;
    }
    seconds[m] = MonotonicSeconds() - t0;
  });

  std::vector<ModelSummary> models;
  models.reserve(3);
  for (size_t m = 0; m < 3; ++m) {
    if (!slots[m].ok()) return slots[m].status();
    models.push_back(std::move(*slots[m]));
    if (per_model_seconds != nullptr) per_model_seconds[m] = seconds[m];
  }
  return models;
}

Status ExtractScaleTrips(const tweetdb::TweetDataset& dataset,
                         std::span<const ScaleSpec> specs,
                         std::span<const mobility::AreaAssigner> assigners,
                         std::span<const PopulationEstimateResult> populations,
                         ThreadPool& pool, std::vector<ScaleMobilityResult>* scales,
                         std::vector<ScaleWork>* works) {
  if (assigners.size() != specs.size() || populations.size() != specs.size()) {
    return Status::InvalidArgument(
        "ExtractScaleTrips: specs, assigners and populations must be parallel");
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    if (populations[s].areas.size() != specs[s].areas.size()) {
      return Status::InvalidArgument(
          "ExtractScaleTrips: population estimate must parallel spec.areas");
    }
  }
  std::vector<mobility::ExtractionStats> extraction;
  auto ods = mobility::ExtractTrips(dataset, assigners, pool, &extraction);
  if (!ods.ok()) return ods.status();

  scales->clear();
  works->clear();
  for (size_t s = 0; s < specs.size(); ++s) {
    ScaleMobilityResult& scale = scales->emplace_back();
    ScaleWork& work = works->emplace_back();
    scale.scale_name = specs[s].name;
    scale.radius_m = specs[s].radius_m;
    scale.extraction = extraction[s];
    work.masses.reserve(populations[s].areas.size());
    for (const AreaPopulationEstimate& area : populations[s].areas) {
      work.masses.push_back(static_cast<double>(area.unique_users));
    }
    work.distances = PairwiseDistances(specs[s].areas, pool);
    scale.observations =
        mobility::BuildObservations((*ods)[s], work.masses, work.distances);
    work.observed.reserve(scale.observations.size());
    for (const mobility::FlowObservation& o : scale.observations) {
      work.observed.push_back(o.flow);
    }
    work.od = std::move((*ods)[s]);
  }
  return Status::OK();
}

Result<ScaleMobilityResult> AnalyzeScaleMobility(
    const tweetdb::TweetDataset& dataset, const ScaleSpec& spec,
    const PopulationEstimator& estimator, ThreadPool& pool) {
  auto population = estimator.Estimate(spec, &pool);
  if (!population.ok()) return population.status();
  const mobility::AreaAssigner assigner(spec.areas, spec.radius_m);
  std::vector<ScaleMobilityResult> results;
  std::vector<ScaleWork> works;
  TWIMOB_RETURN_IF_ERROR(ExtractScaleTrips(
      dataset, std::span<const ScaleSpec>(&spec, 1),
      std::span<const mobility::AreaAssigner>(&assigner, 1),
      std::span<const PopulationEstimateResult>(&*population, 1), pool, &results, &works));
  ScaleMobilityResult& result = results[0];
  auto models = FitPaperModels(result.observations, spec.areas, works[0].masses,
                               works[0].observed, pool);
  if (!models.ok()) return models.status();
  result.models = std::move(*models);
  return std::move(result);
}

}  // namespace twimob::core
