#ifndef TWIMOB_TESTS_SERVE_SNAPSHOT_DUMP_H_
#define TWIMOB_TESTS_SERVE_SNAPSHOT_DUMP_H_

// Text dumps of everything a served snapshot answers with, doubles in exact
// hex notation, one record per line: two snapshots agree bit for bit iff
// their dumps are equal, and a disagreement shows up as a line diff. The
// delta-refresh tests compare a derived snapshot with a from-scratch open
// of the same commit through these, and the paper oracle suite compares
// the pipeline with the brute-force reference.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/analysis_snapshot.h"
#include "geo/latlon.h"
#include "serve/query_service.h"

namespace twimob::serve {

/// A population query: centre and radius.
struct Probe {
  geo::LatLon center;
  double radius_m = 0.0;
};

inline std::string DumpCorrelation(const stats::CorrelationResult& c) {
  return StrFormat("r=%a t=%a p=%a n=%zu\n", c.r, c.t_stat, c.p_value, c.n);
}

inline std::string DumpStats(const mobility::ExtractionStats& s) {
  return StrFormat("seen=%zu in_area=%zu pairs=%zu trips=%zu intra=%zu gap=%zu\n",
                   s.tweets_seen, s.tweets_in_some_area, s.consecutive_pairs,
                   s.inter_area_trips, s.intra_area_pairs, s.gap_filtered_pairs);
}

/// One scale's extraction counters, observations and fitted models.
inline std::string DumpScale(const core::ScaleMobilityResult& scale) {
  std::string out = StrFormat("%s eps=%a ", scale.scale_name.c_str(), scale.radius_m) +
                    DumpStats(scale.extraction);
  for (const mobility::FlowObservation& o : scale.observations) {
    out += StrFormat("  %zu->%zu m=%a n=%a d=%a flow=%a\n", o.src, o.dst, o.m, o.n,
                     o.d_meters, o.flow);
  }
  for (const core::ModelSummary& m : scale.models) {
    out += StrFormat("  %s c=%a a=%a b=%a g=%a r=%a hit=%a rmsle=%a log_r=%a n=%zu\n",
                     m.model_name.c_str(), m.log10_c, m.alpha, m.beta, m.gamma,
                     m.metrics.pearson_r, m.metrics.hit_rate, m.metrics.rmsle,
                     m.metrics.log_pearson_r, m.metrics.n);
    for (const double e : m.estimated) out += StrFormat("    %a\n", e);
  }
  return out;
}

/// Population, the pooled correlation and every scale's mobility: all a
/// pipeline result holds but its trace and generation report.
inline std::string DumpResult(const core::PipelineResult& result) {
  std::string out;
  for (const core::PopulationEstimateResult& p : result.population) {
    out += StrFormat("%s eps=%a C=%a median=%a ", p.scale_name.c_str(), p.radius_m,
                     p.rescale_factor, p.median_users) +
           DumpCorrelation(p.correlation);
    for (const core::AreaPopulationEstimate& a : p.areas) {
      out += StrFormat("  %u %s users=%zu tweets=%zu census=%a estimate=%a\n", a.area_id,
                       a.name.c_str(), a.unique_users, a.tweet_count, a.census_population,
                       a.rescaled_estimate);
    }
  }
  out += "pooled " + DumpCorrelation(result.pooled_population_correlation);
  for (const core::ScaleMobilityResult& scale : result.mobility) out += DumpScale(scale);
  return out;
}

inline std::string DumpServingTables(const std::vector<core::ScaleServingTables>& tables) {
  std::string out;
  for (const core::ScaleServingTables& t : tables) {
    out += StrFormat("%s n=%zu\n  observed", t.scale_name.c_str(), t.num_areas);
    for (const double v : t.observed) out += StrFormat(" %a", v);
    out += "\n";
    for (size_t m = 0; m < t.model_estimates.size(); ++m) {
      out += "  " + t.model_names[m];
      for (const double v : t.model_estimates[m]) out += StrFormat(" %a", v);
      out += "\n";
    }
  }
  return out;
}

inline std::string DumpRecovery(const std::optional<tweetdb::RecoveryReport>& report) {
  if (!report.has_value()) return "no recovery\n";
  std::string out = StrFormat("policy=%d generation=%llu next_seq=%llu\n",
                              static_cast<int>(report->policy),
                              static_cast<unsigned long long>(report->generation),
                              static_cast<unsigned long long>(report->next_delta_seq));
  const auto file = [&out](const char* kind, const tweetdb::ShardRecovery& r) {
    out += StrFormat(
        "  %s %lld dropped=%d truncated=%d expected=%llu recovered=%llu blocks=%llu "
        "blocks_dropped=%llu crc=%llu %s\n",
        kind, static_cast<long long>(r.key), r.dropped ? 1 : 0, r.truncated ? 1 : 0,
        static_cast<unsigned long long>(r.rows_expected),
        static_cast<unsigned long long>(r.rows_recovered),
        static_cast<unsigned long long>(r.blocks_total),
        static_cast<unsigned long long>(r.blocks_dropped),
        static_cast<unsigned long long>(r.checksum_failures), r.status.ToString().c_str());
  };
  for (const tweetdb::ShardRecovery& r : report->shards) file("shard", r);
  for (const tweetdb::ShardRecovery& r : report->deltas) file("delta", r);
  return out;
}

/// QueryService::Population at every probe.
inline std::string DumpQueries(const std::shared_ptr<const core::AnalysisSnapshot>& snapshot,
                               const std::vector<Probe>& probes) {
  const QueryService service(snapshot);
  std::string out;
  for (const Probe& p : probes) {
    auto answer = service.Population(p.center, p.radius_m);
    out += answer.ok() ? StrFormat("(%a, %a) r=%a users=%zu tweets=%zu\n", p.center.lat,
                                   p.center.lon, p.radius_m, answer->unique_users,
                                   answer->tweets)
                       : "error " + answer.status().ToString() + "\n";
  }
  return out;
}

/// Everything above, plus the commit version and the row count.
inline std::string DumpSnapshot(const std::shared_ptr<const core::AnalysisSnapshot>& snapshot,
                                const std::vector<Probe>& probes) {
  return StrFormat("generation=%llu seq=%llu rows=%zu\n",
                   static_cast<unsigned long long>(snapshot->generation()),
                   static_cast<unsigned long long>(snapshot->ingest_seq()),
                   snapshot->num_rows()) +
         DumpResult(snapshot->result()) + DumpServingTables(snapshot->serving_tables()) +
         DumpRecovery(snapshot->recovery()) + DumpQueries(snapshot, probes);
}

/// True when the snapshot's trace shows the delta path ran — a `delta`
/// stage and no `compact` stage — and, with `rebased`, that it ran after a
/// rebase onto a compacted generation (a `rebase` stage); without, that
/// no rebase ran.
inline bool RanDeltaPath(const core::AnalysisSnapshot& snapshot, bool rebased = false) {
  const core::PipelineTrace& trace = snapshot.result().trace;
  return trace.Find("delta") != nullptr && trace.Find("compact") == nullptr &&
         (trace.Find("rebase") != nullptr) == rebased;
}

}  // namespace twimob::serve

#endif  // TWIMOB_TESTS_SERVE_SNAPSHOT_DUMP_H_
