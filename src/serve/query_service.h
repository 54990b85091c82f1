#ifndef TWIMOB_SERVE_QUERY_SERVICE_H_
#define TWIMOB_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/analysis_snapshot.h"
#include "geo/latlon.h"
#include "serve/snapshot_catalog.h"

namespace twimob::serve {

/// Answer to a population-within-radius query.
struct PopulationAnswer {
  size_t unique_users = 0;  ///< distinct users within ε — "Twitter population"
  size_t tweets = 0;        ///< tweets within ε
};

/// Answer to a point-estimate query: the area the point maps to at the
/// requested scale — the nearest centre within the scale's ε, exactly the
/// area the snapshot's trip extraction assigns a tweet there — plus that
/// area's served population numbers.
struct PointAnswer {
  static constexpr int32_t kNoArea = -1;

  /// Assigned area index, or kNoArea when no centre is within ε.
  int32_t area = kNoArea;
  /// Distance to the assigned centre, metres (+inf when unassigned).
  double distance_m = std::numeric_limits<double>::infinity();
  /// Census resident population of the area (0 when unassigned).
  double census_population = 0.0;
  /// Rescaled Twitter-population estimate of the area (0 when unassigned).
  double rescaled_estimate = 0.0;
};

/// Answer to an OD-flow query: the observed Twitter flow of one area pair.
struct OdFlowAnswer {
  double observed = 0.0;
};

/// Answer to a model-prediction query: one fitted model's estimated flow
/// for one area pair.
struct PredictAnswer {
  double estimated = 0.0;
};

/// Cumulative query counters (relaxed atomics; exact once queries quiesce).
struct ServiceStats {
  uint64_t population_queries = 0;
  uint64_t point_queries = 0;  ///< points assigned (batch counts each point)
  uint64_t od_queries = 0;
  uint64_t predict_queries = 0;
  uint64_t shed_queries = 0;       ///< rejected at admission (kUnavailable)
  uint64_t deadline_exceeded = 0;  ///< abandoned at a deadline check
};

/// A wall-clock budget for one query. Deadlines are checked only at safe
/// block boundaries — between the radius scans of a population query and
/// between fixed-size blocks of a point batch — never mid-computation, so
/// a query that completes returns exactly the answer an unbounded query
/// would (bit-identical), and an expired one returns
/// Status::DeadlineExceeded with no partial result.
class Deadline {
 public:
  /// No deadline (the default): HasExpired() is always false.
  Deadline() = default;

  /// Expires `seconds` from now (monotonic clock).
  static Deadline After(double seconds);

  /// Already expired — deterministic shedding for tests and chaos sweeps.
  static Deadline AlreadyExpired() {
    return Deadline(-std::numeric_limits<double>::infinity());
  }

  /// True when no deadline was set.
  bool unbounded() const {
    return deadline_s_ == std::numeric_limits<double>::infinity();
  }

  /// True once the budget is spent; always false when unbounded.
  bool HasExpired() const;

 private:
  explicit Deadline(double deadline_s) : deadline_s_(deadline_s) {}

  double deadline_s_ = std::numeric_limits<double>::infinity();
};

/// Per-request knobs, accepted by every query method.
struct QueryOptions {
  Deadline deadline;
};

/// Construction-time capacity limits of a QueryService.
struct ServiceLimits {
  /// Maximum concurrently admitted queries; 0 = unlimited. A query beyond
  /// the limit is shed with Status::Unavailable before it touches the
  /// snapshot — the caller should retry after backoff, exactly like a
  /// transient storage fault. Admission is two relaxed-order atomic ops;
  /// the query path stays lock-free.
  size_t max_inflight = 0;
};

/// Embedded concurrent query service over analysis snapshots.
///
/// Every query acquires a snapshot (for a catalog-backed service: one
/// lock-free atomic load; for a fixed-snapshot service: the pinned member),
/// answers entirely from that snapshot's immutable state, and drops the
/// reference. No query path takes a lock, and answers depend only on the
/// snapshot's analysed content — never on thread interleaving or on which
/// generation happened to serve — so results are byte-identical across
/// thread counts and across concurrent Refresh() swaps of
/// content-equivalent generations (serving_stress_test.cc proves both).
///
/// Point queries come in an unbatched form and a SoA-batched form; both
/// assign through the snapshot's per-scale mobility::AreaAssigner, so a
/// batch answers each point exactly as the unbatched form does.
///
/// Overload protection: a ServiceLimits admission cap sheds excess
/// concurrent queries with kUnavailable, and a per-request Deadline
/// abandons slow queries with kDeadlineExceeded at safe block boundaries
/// only — an answer the service does return is always bit-identical to
/// the unlimited, unbounded one. Both mechanisms are atomics-only; the
/// query path stays lock-free.
class QueryService {
 public:
  /// Serves one fixed snapshot (never refreshed). The snapshot must not be
  /// null.
  explicit QueryService(std::shared_ptr<const core::AnalysisSnapshot> snapshot,
                        ServiceLimits limits = {});

  /// Serves `catalog->Current()` per request; Refresh() on the catalog
  /// atomically changes which snapshot later queries see. The catalog must
  /// outlive the service.
  explicit QueryService(const SnapshotCatalog* catalog, ServiceLimits limits = {});

  /// Distinct users and tweets within `radius_m` of `center` (the paper's
  /// population primitive at caller-chosen ε). A non-positive radius or an
  /// invalid centre (non-finite or out-of-range lat/lon) is
  /// InvalidArgument before any scan. Both counts come from one fused
  /// radius walk and the deadline is checked only before it — an answer
  /// that comes back is never partial.
  Result<PopulationAnswer> Population(const geo::LatLon& center, double radius_m,
                                      const QueryOptions& options = {}) const;

  /// Maps one point to its area at scale `scale` (index into specs()) with
  /// the snapshot's assigner for that scale; `distance_m` is
  /// geo::HaversineMeters(pos, centre), the distance the assigner compared
  /// with ε. An invalid position is InvalidArgument.
  Result<PointAnswer> PointEstimate(size_t scale, const geo::LatLon& pos,
                                    const QueryOptions& options = {}) const;

  /// Batched point queries in SoA form, bit-identical to PointEstimate on
  /// each point. Every position is validated before any is assigned: an
  /// invalid one is InvalidArgument naming the first bad index, with no
  /// partial answer. The points are assigned in fixed-size blocks with a
  /// deadline check between them; each point's answer depends on that
  /// point alone, so the blocking never changes an answer.
  Result<std::vector<PointAnswer>> PointEstimateBatch(
      size_t scale, const double* lats, const double* lons, size_t n,
      const QueryOptions& options = {}) const;

  /// Observed Twitter flow from area `src` to `dst` at scale `scale`.
  Result<OdFlowAnswer> OdFlow(size_t scale, size_t src, size_t dst,
                              const QueryOptions& options = {}) const;

  /// Flow predicted by fitted model `model` (paper column order: 0 =
  /// Gravity 4P, 1 = Gravity 2P, 2 = Radiation) for (`src`, `dst`).
  Result<PredictAnswer> Predict(size_t scale, size_t model, size_t src,
                                size_t dst, const QueryOptions& options = {}) const;

  /// The snapshot a query issued now would answer from.
  std::shared_ptr<const core::AnalysisSnapshot> snapshot() const {
    return Acquire();
  }

  /// Cumulative counters across all threads.
  ServiceStats stats() const;

 private:
  /// Tests hold an AdmissionSlot through this peer to fill the admission
  /// limit deterministically.
  friend class QueryServiceTestPeer;

  /// RAII admission token: counts the query in-flight for its duration, or
  /// reports it shed when the service is over its limit. Atomics only — no
  /// locks on the query path.
  class AdmissionSlot {
   public:
    explicit AdmissionSlot(const QueryService& service);
    ~AdmissionSlot();
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;
    bool admitted() const { return admitted_; }

   private:
    const QueryService& service_;
    bool admitted_;
    bool counted_ = false;
  };

  std::shared_ptr<const core::AnalysisSnapshot> Acquire() const;

  /// The kUnavailable shed error (admission limit reached).
  Status ShedStatus() const;

  /// Records and returns the kDeadlineExceeded error for `what`.
  Status DeadlinePassed(const char* what) const;

  /// The answer for valid position `pos` at valid scale `scale`.
  static PointAnswer AnswerPoint(const core::AnalysisSnapshot& snapshot,
                                 size_t scale, const geo::LatLon& pos);

  std::shared_ptr<const core::AnalysisSnapshot> fixed_;
  const SnapshotCatalog* catalog_ = nullptr;
  const ServiceLimits limits_;

  mutable std::atomic<uint64_t> population_queries_{0};
  mutable std::atomic<uint64_t> point_queries_{0};
  mutable std::atomic<uint64_t> od_queries_{0};
  mutable std::atomic<uint64_t> predict_queries_{0};
  mutable std::atomic<uint64_t> shed_queries_{0};
  mutable std::atomic<uint64_t> deadline_exceeded_{0};
  mutable std::atomic<uint64_t> inflight_{0};
};

}  // namespace twimob::serve

#endif  // TWIMOB_SERVE_QUERY_SERVICE_H_
