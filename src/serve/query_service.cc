#include "serve/query_service.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/time_util.h"
#include "geo/geodesic.h"

namespace twimob::serve {

namespace {

/// Points per block between deadline checks in PointEstimateBatch.
constexpr size_t kDeadlineBlockPoints = 256;

}  // namespace

Deadline Deadline::After(double seconds) {
  return Deadline(MonotonicSeconds() + seconds);
}

bool Deadline::HasExpired() const {
  if (unbounded()) return false;
  return MonotonicSeconds() >= deadline_s_;
}

QueryService::AdmissionSlot::AdmissionSlot(const QueryService& service)
    : service_(service), admitted_(true) {
  if (service_.limits_.max_inflight == 0) return;  // unlimited
  const uint64_t n =
      service_.inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n > service_.limits_.max_inflight) {
    service_.inflight_.fetch_sub(1, std::memory_order_acq_rel);
    service_.shed_queries_.fetch_add(1, std::memory_order_relaxed);
    admitted_ = false;
    return;
  }
  counted_ = true;
}

QueryService::AdmissionSlot::~AdmissionSlot() {
  if (counted_) service_.inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

QueryService::QueryService(
    std::shared_ptr<const core::AnalysisSnapshot> snapshot, ServiceLimits limits)
    : fixed_(std::move(snapshot)), limits_(limits) {}

QueryService::QueryService(const SnapshotCatalog* catalog, ServiceLimits limits)
    : catalog_(catalog), limits_(limits) {}

std::shared_ptr<const core::AnalysisSnapshot> QueryService::Acquire() const {
  if (fixed_ != nullptr) return fixed_;
  return catalog_->Current();
}

Status QueryService::ShedStatus() const {
  return Status::Unavailable(
      "query shed: service admission limit reached; retry with backoff");
}

Status QueryService::DeadlinePassed(const char* what) const {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  return Status::DeadlineExceeded(std::string(what) +
                                  " query: deadline expired before completion");
}

Result<PopulationAnswer> QueryService::Population(
    const geo::LatLon& center, double radius_m,
    const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  if (!(radius_m > 0.0)) {
    return Status::InvalidArgument("population query: radius must be > 0");
  }
  if (!center.IsValid()) {
    return Status::InvalidArgument("population query: invalid centre " +
                                   center.ToString());
  }
  // Checked once, before the one fused radius walk: the walk either runs to
  // completion and the answer carries both counts, or it never starts.
  if (options.deadline.HasExpired()) return DeadlinePassed("population");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  const geo::RadiusCounts counts =
      snapshot->estimator().CountTweetsAndUsers(center, radius_m);
  PopulationAnswer answer;
  answer.unique_users = counts.distinct_ids;
  answer.tweets = counts.points;
  population_queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

PointAnswer QueryService::AnswerPoint(const core::AnalysisSnapshot& snapshot,
                                      size_t scale, const geo::LatLon& pos) {
  PointAnswer answer;
  const std::optional<size_t> area = snapshot.scales()->assigners[scale].Assign(pos);
  if (!area.has_value()) return answer;
  answer.area = static_cast<int32_t>(*area);
  // The distance Assign compared with ε, bit for bit: its haversine repeats
  // HaversineMeters' operations in order, point first.
  answer.distance_m =
      geo::HaversineMeters(pos, snapshot.specs()[scale].areas[*area].center);
  const core::AreaPopulationEstimate& estimate =
      snapshot.result().population[scale].areas[*area];
  answer.census_population = estimate.census_population;
  answer.rescaled_estimate = estimate.rescaled_estimate;
  return answer;
}

Result<PointAnswer> QueryService::PointEstimate(size_t scale,
                                                const geo::LatLon& pos,
                                                const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  if (!pos.IsValid()) {
    return Status::InvalidArgument("point query: invalid position " +
                                   pos.ToString());
  }
  if (options.deadline.HasExpired()) return DeadlinePassed("point");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  if (scale >= snapshot->specs().size()) {
    return Status::InvalidArgument("point query: no such scale");
  }
  const PointAnswer answer = AnswerPoint(*snapshot, scale, pos);
  point_queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

Result<std::vector<PointAnswer>> QueryService::PointEstimateBatch(
    size_t scale, const double* lats, const double* lons, size_t n,
    const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  for (size_t i = 0; i < n; ++i) {
    const geo::LatLon pos{lats[i], lons[i]};
    if (!pos.IsValid()) {
      return Status::InvalidArgument("point batch query: invalid position " +
                                     pos.ToString() + " at index " +
                                     std::to_string(i));
    }
  }
  if (options.deadline.HasExpired()) return DeadlinePassed("point batch");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  if (scale >= snapshot->specs().size()) {
    return Status::InvalidArgument("point batch query: no such scale");
  }
  std::vector<PointAnswer> answers(n);
  for (size_t off = 0; off < n; off += kDeadlineBlockPoints) {
    if (options.deadline.HasExpired()) return DeadlinePassed("point batch");
    const size_t end = std::min(n, off + kDeadlineBlockPoints);
    for (size_t i = off; i < end; ++i) {
      answers[i] = AnswerPoint(*snapshot, scale, geo::LatLon{lats[i], lons[i]});
    }
  }
  point_queries_.fetch_add(n, std::memory_order_relaxed);
  return answers;
}

Result<OdFlowAnswer> QueryService::OdFlow(size_t scale, size_t src, size_t dst,
                                          const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  if (options.deadline.HasExpired()) return DeadlinePassed("OD-flow");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  const auto& tables = snapshot->serving_tables();
  if (tables.empty()) {
    return Status::FailedPrecondition(
        "OD-flow query: snapshot was built without mobility analysis");
  }
  if (scale >= tables.size()) {
    return Status::InvalidArgument("OD-flow query: no such scale");
  }
  const core::ScaleServingTables& t = tables[scale];
  if (src >= t.num_areas || dst >= t.num_areas) {
    return Status::InvalidArgument("OD-flow query: area index out of range");
  }
  OdFlowAnswer answer;
  answer.observed = t.observed[src * t.num_areas + dst];
  od_queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

Result<PredictAnswer> QueryService::Predict(size_t scale, size_t model,
                                            size_t src, size_t dst,
                                            const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  if (options.deadline.HasExpired()) return DeadlinePassed("predict");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  const auto& tables = snapshot->serving_tables();
  if (tables.empty()) {
    return Status::FailedPrecondition(
        "predict query: snapshot was built without mobility analysis");
  }
  if (scale >= tables.size()) {
    return Status::InvalidArgument("predict query: no such scale");
  }
  const core::ScaleServingTables& t = tables[scale];
  if (model >= t.model_estimates.size()) {
    return Status::InvalidArgument("predict query: no such model");
  }
  if (src >= t.num_areas || dst >= t.num_areas) {
    return Status::InvalidArgument("predict query: area index out of range");
  }
  PredictAnswer answer;
  answer.estimated = t.model_estimates[model][src * t.num_areas + dst];
  predict_queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.population_queries = population_queries_.load(std::memory_order_relaxed);
  s.point_queries = point_queries_.load(std::memory_order_relaxed);
  s.od_queries = od_queries_.load(std::memory_order_relaxed);
  s.predict_queries = predict_queries_.load(std::memory_order_relaxed);
  s.shed_queries = shed_queries_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace twimob::serve
