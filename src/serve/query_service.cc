#include "serve/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/time_util.h"

namespace twimob::serve {

namespace {

/// Points per block between deadline checks in PointEstimateBatch. Blocks
/// are whole SIMD-kernel batches, so blocked answers stay bit-identical to
/// single-shot ones (per-point independence; see PointBatchAssigner).
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

void QueryService::FillPointAnswer(const core::AnalysisSnapshot& snapshot,
                                   size_t scale,
                                   const PointAssignment& assignment,
                                   PointAnswer* answer) {
  answer->area = assignment.area;
  answer->distance_m = assignment.distance_m;
  if (assignment.area == PointAssignment::kNoArea) return;
  const auto& population = snapshot.result().population;
  if (scale >= population.size()) return;
  const auto& areas = population[scale].areas;
  const size_t idx = static_cast<size_t>(assignment.area);
  if (idx >= areas.size()) return;
  answer->census_population = areas[idx].census_population;
  answer->rescaled_estimate = areas[idx].rescaled_estimate;
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
  const core::ScaleSpec& spec = snapshot->specs()[scale];
  // ~20 centres per scale, so building the assigner per request is a
  // handful of trig evaluations — cheap enough to keep the path stateless
  // (and therefore lock-free under concurrent Refresh()).
  const PointBatchAssigner assigner(spec.areas, spec.radius_m);
  PointAnswer answer;
  FillPointAnswer(*snapshot, scale, assigner.AssignScalar(pos), &answer);
  point_queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

Result<std::vector<PointAnswer>> QueryService::PointEstimateBatch(
    size_t scale, const double* lats, const double* lons, size_t n,
    const QueryOptions& options) const {
  const AdmissionSlot slot(*this);
  if (!slot.admitted()) return ShedStatus();
  if (options.deadline.HasExpired()) return DeadlinePassed("point batch");
  const std::shared_ptr<const core::AnalysisSnapshot> snapshot = Acquire();
  if (scale >= snapshot->specs().size()) {
    return Status::InvalidArgument("point batch query: no such scale");
  }
  const core::ScaleSpec& spec = snapshot->specs()[scale];
  const PointBatchAssigner assigner(spec.areas, spec.radius_m);
  std::vector<PointAssignment> assignments(n);
  if (options.deadline.unbounded()) {
    assigner.AssignBatch(lats, lons, n, assignments.data());
  } else {
    // Block-granular deadline checks; each block is a whole kernel batch,
    // so the assignments equal the single-shot call's bit for bit.
    for (size_t off = 0; off < n; off += kDeadlineBlockPoints) {
      if (options.deadline.HasExpired()) return DeadlinePassed("point batch");
      const size_t len = std::min(kDeadlineBlockPoints, n - off);
      assigner.AssignBatch(lats + off, lons + off, len, assignments.data() + off);
    }
  }
  std::vector<PointAnswer> answers(n);
  for (size_t i = 0; i < n; ++i) {
    FillPointAnswer(*snapshot, scale, assignments[i], &answers[i]);
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
