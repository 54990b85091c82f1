#include "core/delta_accumulator.h"

#include <algorithm>
#include <utility>

#include "core/stage_engine.h"
#include "geo/geodesic.h"
#include "geo/latlon.h"
#include "mobility/gravity_model.h"

namespace twimob::core {

namespace {

/// Adds (`sign` +1) or subtracts (`sign` -1) one user's counter
/// contributions. Subtraction never underflows: the aggregate always
/// contains exactly the contribution being removed.
void ApplyStats(const mobility::ExtractionStats& d, int sign,
                mobility::ExtractionStats* agg) {
  const auto apply = [sign](size_t& into, size_t v) {
    into = sign > 0 ? into + v : into - v;
  };
  apply(agg->tweets_seen, d.tweets_seen);
  apply(agg->tweets_in_some_area, d.tweets_in_some_area);
  apply(agg->consecutive_pairs, d.consecutive_pairs);
  apply(agg->inter_area_trips, d.inter_area_trips);
  apply(agg->intra_area_pairs, d.intra_area_pairs);
  apply(agg->gap_filtered_pairs, d.gap_filtered_pairs);
}

/// The storage round-trip of a coordinate pair: what a block stores and
/// every analysis reads back. Ingesting quantised positions keeps the
/// incremental state bitwise-comparable to a rebuild from disk.
geo::LatLon QuantizePos(const geo::LatLon& pos) {
  return geo::LatLon{geo::FixedToDegrees(geo::DegreesToFixed(pos.lat)),
                     geo::FixedToDegrees(geo::DegreesToFixed(pos.lon))};
}

}  // namespace

Result<DeltaAccumulator> DeltaAccumulator::Create(const PipelineConfig& config) {
  DeltaAccumulator acc;
  acc.specs_ = ResolveScaleSpecs(config);
  if (acc.specs_.empty()) {
    return Status::InvalidArgument("DeltaAccumulator: no scales to analyse");
  }
  acc.scales_.reserve(acc.specs_.size());
  for (const ScaleSpec& spec : acc.specs_) {
    if (spec.areas.empty()) {
      return Status::InvalidArgument("DeltaAccumulator: scale \"" + spec.name +
                                     "\" has no areas");
    }
    if (!(spec.radius_m > 0.0)) {
      return Status::InvalidArgument("DeltaAccumulator: scale \"" + spec.name +
                                     "\" needs a positive radius");
    }
    ScaleState state(spec);
    auto od = mobility::OdMatrix::Create(spec.areas.size());
    if (!od.ok()) return od.status();
    state.od = std::move(*od);
    acc.scales_.push_back(std::move(state));
  }
  return acc;
}

void DeltaAccumulator::ReplayUserTrips(size_t s,
                                       const std::vector<tweetdb::Tweet>& rows,
                                       int sign) {
  // One user's slice of TripAccumulator's state machine (trip_extractor.cc)
  // under the default TripOptions: pairs form between every two consecutive
  // rows, and both-assigned pairs either flow (distinct areas) or count as
  // intra-area. The global machine resets at user boundaries, so summing
  // per-user replays reproduces its totals exactly.
  ScaleState& st = scales_[s];
  mobility::ExtractionStats local;
  std::optional<size_t> prev_area;
  bool have_prev = false;
  for (const tweetdb::Tweet& t : rows) {
    ++local.tweets_seen;
    const std::optional<size_t> area = st.assigner.Assign(t.pos);
    if (area.has_value()) ++local.tweets_in_some_area;
    if (have_prev) {
      ++local.consecutive_pairs;
      if (prev_area.has_value() && area.has_value()) {
        if (*prev_area != *area) {
          st.od->AddFlow(*prev_area, *area, sign > 0 ? 1.0 : -1.0);
          ++local.inter_area_trips;
        } else {
          ++local.intra_area_pairs;
        }
      }
    }
    prev_area = area;
    have_prev = true;
  }
  ApplyStats(local, sign, &st.stats);
}

Status DeltaAccumulator::Ingest(const std::vector<tweetdb::Tweet>& batch) {
  if (batch.empty()) return Status::OK();

  // Validate and quantise up front so a mid-batch failure never leaves the
  // aggregates half-updated.
  std::vector<tweetdb::Tweet> rows;
  rows.reserve(batch.size());
  for (const tweetdb::Tweet& t : batch) {
    if (!t.IsValid()) {
      return Status::InvalidArgument("invalid tweet: " + t.ToString());
    }
    tweetdb::Tweet q = t;
    q.pos = QuantizePos(t.pos);
    rows.push_back(q);
  }

  // Population state is per-row (inclusive ε over every area — the
  // population-count predicate the sealed grid index implements).
  for (const tweetdb::Tweet& t : rows) {
    for (size_t s = 0; s < specs_.size(); ++s) {
      const ScaleSpec& spec = specs_[s];
      ScaleState& st = scales_[s];
      for (size_t i = 0; i < spec.areas.size(); ++i) {
        if (geo::HaversineMeters(spec.areas[i].center, t.pos) <=
            spec.radius_m) {
          ++st.area_tweets[i];
          st.area_users[i].insert(t.user_id);
        }
      }
    }
  }

  // Trip state is per-user: subtract each touched user's old contribution,
  // merge the new rows into their ordered sequence, add the new one.
  std::unordered_map<uint64_t, std::vector<tweetdb::Tweet>> by_user;
  for (const tweetdb::Tweet& t : rows) by_user[t.user_id].push_back(t);
  for (auto& [user, new_rows] : by_user) {
    std::vector<tweetdb::Tweet>& seq = user_rows_[user];
    if (!seq.empty()) {
      for (size_t s = 0; s < scales_.size(); ++s) ReplayUserTrips(s, seq, -1);
    }
    seq.insert(seq.end(), new_rows.begin(), new_rows.end());
    std::sort(seq.begin(), seq.end(), tweetdb::UserTimeLess);
    for (size_t s = 0; s < scales_.size(); ++s) ReplayUserTrips(s, seq, +1);
  }

  num_rows_ += rows.size();
  return Status::OK();
}

Result<IncrementalAnalysis> DeltaAccumulator::Refresh(AnalysisContext* ctx) {
  if (ctx == nullptr) {
    AnalysisContext local;
    return Refresh(&local);
  }

  IncrementalAnalysis out;
  out.population.reserve(specs_.size());
  out.mobility.reserve(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    const ScaleSpec& spec = specs_[s];
    ScaleState& st = scales_[s];
    const size_t n = spec.areas.size();

    std::vector<size_t> unique_users(n, 0);
    for (size_t i = 0; i < n; ++i) unique_users[i] = st.area_users[i].size();
    auto pop = AssemblePopulationEstimate(spec, unique_users, st.area_tweets);
    if (!pop.ok()) return pop.status();
    out.population.push_back(std::move(*pop));

    // Masses are the per-area unique-user counts — exactly what the staged
    // trips stage takes from the population stage's estimate.
    std::vector<double> masses(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      masses[i] = static_cast<double>(unique_users[i]);
    }
    if (st.distances.empty()) {
      st.distances = PairwiseDistances(spec.areas, ctx->pool());
    }

    ScaleMobilityResult scale_result;
    scale_result.scale_name = spec.name;
    scale_result.radius_m = spec.radius_m;
    scale_result.extraction = st.stats;
    scale_result.observations =
        mobility::BuildObservations(*st.od, masses, st.distances);
    std::vector<double> observed;
    observed.reserve(scale_result.observations.size());
    for (const mobility::FlowObservation& o : scale_result.observations) {
      observed.push_back(o.flow);
    }
    auto models = FitPaperModels(scale_result.observations, spec.areas, masses,
                                 observed, ctx->pool());
    if (!models.ok()) return models.status();
    scale_result.models = std::move(*models);
    out.mobility.push_back(std::move(scale_result));
  }

  auto pooled = PooledPopulationCorrelation(out.population);
  if (!pooled.ok()) return pooled.status();
  out.pooled_population_correlation = *pooled;
  return out;
}

}  // namespace twimob::core
