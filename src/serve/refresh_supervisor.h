#ifndef TWIMOB_SERVE_REFRESH_SUPERVISOR_H_
#define TWIMOB_SERVE_REFRESH_SUPERVISOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "random/rng.h"
#include "serve/snapshot_catalog.h"
#include "tweetdb/storage_env.h"

namespace twimob::serve {

/// Circuit-breaker state of a supervised refresher.
///
///   closed    — refreshes run every step.
///   open      — too many consecutive failures; refreshes are skipped for
///               a cooldown (counted in steps, so sweeps stay
///               deterministic), then the breaker half-opens.
///   half-open — exactly one probe refresh runs: success closes the
///               breaker, failure re-opens it for another cooldown.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Freshness classification the supervisor exports:
///
///   fresh    — the last refresh attempt, if any, succeeded, the served
///              (generation, ingest_seq) matches the last observed manifest
///              head and the breaker is closed.
///   stale    — the breaker is closed but the last refresh attempt failed,
///              or the served commit is older than the observed head (a
///              refresh has not run yet).
///   degraded — the breaker is open or half-open: refresh is failing
///              persistently; the catalog keeps serving its snapshot.
enum class ServingState { kFresh, kStale, kDegraded };

/// Stable display names ("closed", "fresh", ...).
const char* BreakerStateName(BreakerState state);
const char* ServingStateName(ServingState state);

/// Supervision knobs. The backoff reuses the storage layer's WriteOptions
/// policy shape: base * 2^k, jittered to [0.5x, 1.5x), with the exponent
/// capped at max_retries so the wait stays bounded however long the
/// outage.
struct SupervisorOptions {
  /// Backoff after a failed refresh attempt (sync is ignored; max_retries
  /// caps the exponent; jitter_seed makes the waits deterministic).
  tweetdb::WriteOptions backoff;
  /// Consecutive refresh failures that trip the breaker open.
  int breaker_threshold = 3;
  /// Steps the breaker stays open before the half-open probe.
  int open_cooldown_steps = 4;
  /// Thread-mode pacing between steps (Start()/Stop() only; Step() callers
  /// pace themselves).
  double poll_interval_ms = 50.0;
};

/// Point-in-time health of the live refresh loop. Staleness is the served
/// commit version (generation, ingest_seq) vs the manifest head last
/// observed on disk.
struct HealthSnapshot {
  ServingState state = ServingState::kFresh;
  BreakerState breaker = BreakerState::kClosed;
  uint64_t served_generation = 0;
  uint64_t served_ingest_seq = 0;
  uint64_t head_generation = 0;
  uint64_t head_ingest_seq = 0;
  int consecutive_failures = 0;
  uint64_t steps = 0;             ///< supervision cycles run
  uint64_t refresh_attempts = 0;  ///< Refresh() calls (incl. probes)
  uint64_t swaps = 0;             ///< refreshes that installed a newer snapshot
  uint64_t failures = 0;          ///< refreshes that returned an error
  uint64_t skipped_steps = 0;     ///< steps skipped while the breaker cooled
  Status last_error;              ///< most recent refresh error (OK if none)

  bool fresh() const { return state == ServingState::kFresh; }

  /// One-line operator summary, e.g.
  /// "health: fresh (breaker closed, serving g4 seq 7 = head, 0 consecutive
  /// failures)".
  std::string ToString() const;
};

/// Supervises SnapshotCatalog::Refresh() so the live loop survives
/// sustained refresh faults: each Step() runs one supervision cycle —
/// attempt a refresh (unless the breaker is cooling), track consecutive
/// failures, trip/probe/close the circuit breaker, back off with the
/// bounded jittered WriteOptions policy, and publish a HealthSnapshot.
///
/// Two driving modes:
///   * Deterministic: call Step() yourself (the chaos harness does; with a
///     FaultInjectionEnv the backoff is recorded, not slept, so sweeps are
///     exact and fast).
///   * Background: Start() spawns a thread stepping every
///     poll_interval_ms until Stop() (the destructor stops it too).
///
/// The supervisor never touches the query path: queries keep hitting
/// SnapshotCatalog::Current() (one atomic load) whatever state the
/// breaker is in — "degraded" means refresh is failing, not serving.
/// health() takes a small mutex and is meant for operators/health
/// endpoints, not per-query use.
class RefreshSupervisor {
 public:
  /// The catalog must outlive the supervisor.
  explicit RefreshSupervisor(SnapshotCatalog* catalog,
                             SupervisorOptions options = {});
  ~RefreshSupervisor();

  RefreshSupervisor(const RefreshSupervisor&) = delete;
  RefreshSupervisor& operator=(const RefreshSupervisor&) = delete;

  /// Runs one supervision cycle. Returns OK when the cycle's refresh
  /// attempt succeeded (or was a no-op); otherwise the refresh error (or
  /// the standing error while an open breaker skips the attempt). Safe to
  /// call concurrently with queries and with the background thread
  /// (cycles serialise on an internal mutex).
  Status Step();

  /// Spawns the background stepping thread (idempotent).
  void Start();

  /// Stops and joins the background thread (idempotent; called by the
  /// destructor).
  void Stop();

  /// The current health (copy; cheap, but not query-path lock-free).
  HealthSnapshot health() const;

 private:
  /// Reads the served commit version, classifies freshness, and stores the
  /// published snapshot. Requires `step_mu_` held.
  void PublishLocked();

  /// Re-reads the manifest head into the last observed head, best effort
  /// (a failed read keeps the previous observation). Requires `step_mu_`
  /// held.
  void PeekHeadLocked();

  SnapshotCatalog* const catalog_;
  const SupervisorOptions options_;

  /// Serialises supervision cycles (manual Step() and the background
  /// thread); never touched by queries.
  mutable std::mutex step_mu_;
  random::Xoshiro256 jitter_;
  BreakerState breaker_ = BreakerState::kClosed;
  int cooldown_remaining_ = 0;
  int consecutive_failures_ = 0;
  uint64_t steps_ = 0;
  uint64_t refresh_attempts_ = 0;
  uint64_t swaps_ = 0;
  uint64_t failures_ = 0;
  uint64_t skipped_steps_ = 0;
  Status last_error_;
  uint64_t head_generation_ = 0;
  uint64_t head_ingest_seq_ = 0;

  /// Guards the published health copy (readable while a cycle runs).
  mutable std::mutex health_mu_;
  HealthSnapshot published_;

  /// Background thread state.
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread thread_;
  bool stopping_ = false;
};

}  // namespace twimob::serve

#endif  // TWIMOB_SERVE_REFRESH_SUPERVISOR_H_
