#include "serve/refresh_supervisor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/string_util.h"

namespace twimob::serve {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

const char* ServingStateName(ServingState state) {
  switch (state) {
    case ServingState::kFresh:
      return "fresh";
    case ServingState::kStale:
      return "stale";
    case ServingState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

std::string HealthSnapshot::ToString() const {
  std::string staleness;
  if (served_generation == head_generation && served_ingest_seq == head_ingest_seq) {
    staleness = "= head";
  } else {
    staleness = StrFormat("behind head g%llu seq %llu",
                          static_cast<unsigned long long>(head_generation),
                          static_cast<unsigned long long>(head_ingest_seq));
  }
  std::string out = StrFormat(
      "health: %s (breaker %s, serving g%llu seq %llu %s, %d consecutive "
      "failures)",
      ServingStateName(state), BreakerStateName(breaker),
      static_cast<unsigned long long>(served_generation),
      static_cast<unsigned long long>(served_ingest_seq), staleness.c_str(),
      consecutive_failures);
  if (!last_error.ok()) {
    out += " last error: ";
    out += last_error.ToString();
  }
  return out;
}

RefreshSupervisor::RefreshSupervisor(SnapshotCatalog* catalog,
                                     SupervisorOptions options)
    : catalog_(catalog),
      options_(options),
      jitter_(options.backoff.jitter_seed) {
  std::lock_guard<std::mutex> lock(step_mu_);
  // Opening the catalog proved the manifest readable, so the initial head
  // observation is the served commit version (fresh until told otherwise).
  head_generation_ = catalog_->current_generation();
  head_ingest_seq_ = catalog_->current_ingest_seq();
  PublishLocked();
}

RefreshSupervisor::~RefreshSupervisor() { Stop(); }

void RefreshSupervisor::PublishLocked() {
  HealthSnapshot h;
  h.breaker = breaker_;
  h.served_generation = catalog_->current_generation();
  h.served_ingest_seq = catalog_->current_ingest_seq();
  h.head_generation = head_generation_;
  h.head_ingest_seq = head_ingest_seq_;
  h.consecutive_failures = consecutive_failures_;
  h.steps = steps_;
  h.refresh_attempts = refresh_attempts_;
  h.swaps = swaps_;
  h.failures = failures_;
  h.skipped_steps = skipped_steps_;
  h.last_error = last_error_;
  if (breaker_ != BreakerState::kClosed) {
    h.state = ServingState::kDegraded;
  } else if (!last_error_.ok() || h.served_generation != h.head_generation ||
             h.served_ingest_seq != h.head_ingest_seq) {
    // A failed last attempt never reads fresh: it has not confirmed the
    // head, whatever was last observed.
    h.state = ServingState::kStale;
  } else {
    h.state = ServingState::kFresh;
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  published_ = std::move(h);
}

void RefreshSupervisor::PeekHeadLocked() {
  if (auto head = PeekManifest(catalog_->storage_env(), catalog_->path()); head.ok()) {
    head_generation_ = head->generation;
    head_ingest_seq_ = head->next_delta_seq;
  }
}

Status RefreshSupervisor::Step() {
  std::lock_guard<std::mutex> lock(step_mu_);
  ++steps_;

  if (breaker_ == BreakerState::kOpen) {
    if (cooldown_remaining_ > 0) {
      // Cooling: skip the refresh attempt entirely — the whole point of
      // the open breaker is not hammering a failing storage path. Keep the
      // head observation current (best effort) so staleness stays honest.
      --cooldown_remaining_;
      ++skipped_steps_;
      PeekHeadLocked();
      PublishLocked();
      return last_error_;
    }
    breaker_ = BreakerState::kHalfOpen;  // cooled: one probe runs below
  }

  ++refresh_attempts_;
  auto swapped = catalog_->Refresh();
  if (swapped.ok()) {
    if (*swapped) ++swaps_;
    consecutive_failures_ = 0;
    breaker_ = BreakerState::kClosed;
    last_error_ = Status::OK();
    // A successful refresh observed the manifest head and either swapped
    // to it or confirmed it is already installed.
    head_generation_ = catalog_->current_generation();
    head_ingest_seq_ = catalog_->current_ingest_seq();
    PublishLocked();
    return Status::OK();
  }

  ++failures_;
  ++consecutive_failures_;
  last_error_ = swapped.status();
  PeekHeadLocked();
  if (breaker_ == BreakerState::kHalfOpen) {
    breaker_ = BreakerState::kOpen;  // the probe failed: re-open
    cooldown_remaining_ = options_.open_cooldown_steps;
  } else if (consecutive_failures_ >= options_.breaker_threshold) {
    breaker_ = BreakerState::kOpen;
    cooldown_remaining_ = options_.open_cooldown_steps;
  }
  // Bounded jittered backoff, WriteOptions shape: base * 2^k in [0.5, 1.5)x
  // with the exponent capped by the retry budget (and at 2^20 absolutely).
  const int exponent =
      std::min({consecutive_failures_ - 1, options_.backoff.max_retries, 20});
  const double factor =
      static_cast<double>(uint64_t{1} << (exponent < 0 ? 0 : exponent));
  catalog_->storage_env().SleepForMs(options_.backoff.backoff_base_ms * factor *
                                     (0.5 + jitter_.NextDouble()));
  PublishLocked();
  return last_error_;
}

void RefreshSupervisor::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(thread_mu_);
    while (!stopping_) {
      lock.unlock();
      (void)Step();
      lock.lock();
      thread_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(options_.poll_interval_ms),
          [this] { return stopping_; });
    }
  });
}

void RefreshSupervisor::Stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stopping_ = true;
    worker = std::move(thread_);
  }
  thread_cv_.notify_all();
  worker.join();
}

HealthSnapshot RefreshSupervisor::health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return published_;
}

}  // namespace twimob::serve
