#include "serve/snapshot_catalog.h"

#include <optional>
#include <utility>

#include "common/time_util.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/generation_pins.h"

namespace twimob::serve {

Result<tweetdb::Manifest> PeekManifest(tweetdb::Env& env,
                                       const std::string& path) {
  auto bytes = tweetdb::ReadFileToString(env, path);
  if (!bytes.ok()) return bytes.status();
  return tweetdb::DecodeManifest(*bytes);
}

tweetdb::Env& SnapshotCatalog::env() const {
  return options_.env != nullptr ? *options_.env : *tweetdb::Env::Default();
}

Result<std::shared_ptr<const core::AnalysisSnapshot>>
SnapshotCatalog::LoadCommitted(uint64_t skip_if_generation,
                               uint64_t skip_if_seq) {
  Status last_error = Status::OK();
  // Started on the first attempt that has something to load: its pool
  // decodes the shard files and then runs the analysis.
  std::optional<core::AnalysisContext> ctx;
  const int attempts = options_.max_open_retries < 1 ? 1 : options_.max_open_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    auto manifest = PeekManifest(env(), path_);
    if (!manifest.ok()) return manifest.status();
    const uint64_t generation = manifest->generation;
    if (generation == skip_if_generation &&
        manifest->next_delta_seq == skip_if_seq) {
      return std::shared_ptr<const core::AnalysisSnapshot>();
    }

    // Pin before reading shard data: from here on, a writer that commits a
    // newer generation defers (never deletes) this generation's files.
    tweetdb::GenerationPin pin(path_, generation);
    if (!ctx.has_value()) ctx.emplace(options_.num_threads);
    const double t0 = MonotonicSeconds();
    tweetdb::RecoveryReport report;
    auto dataset = tweetdb::ReadDatasetFiles(path_, options_.policy, &report,
                                             &env(), &ctx->pool());
    const double recovery_seconds = MonotonicSeconds() - t0;
    if (!dataset.ok()) {
      // The writer may have committed — and GC'd the peeked generation —
      // between the peek and the pin; retry on the newer manifest.
      last_error = dataset.status();
      continue;
    }
    if (report.generation != generation) {
      // Same race, but the newer generation's files were already complete:
      // the read succeeded on a generation we did not pin. Retry so the pin
      // and the data always name the same generation.
      continue;
    }

    core::SnapshotSource source;
    source.generation = generation;
    // The cursor the read actually observed — deltas appended between the
    // peek and the read are folded in and reflected here, so the snapshot's
    // commit version never understates its content.
    source.ingest_seq = report.next_delta_seq;
    source.pin = std::move(pin);
    source.recovery = report;
    source.recovery_seconds = recovery_seconds;
    auto snapshot = core::AnalysisSnapshot::Analyze(
        std::move(*dataset), options_.analysis, std::move(source), &*ctx);
    if (!snapshot.ok()) return snapshot.status();
    return std::make_shared<const core::AnalysisSnapshot>(std::move(*snapshot));
  }
  if (!last_error.ok()) return last_error;
  return Status::Unavailable(
      "snapshot catalog: writer kept outpacing the pin-then-read loop at " +
      path_);
}

Result<std::unique_ptr<SnapshotCatalog>> SnapshotCatalog::Open(
    std::string path, CatalogOptions options) {
  std::unique_ptr<SnapshotCatalog> catalog(
      new SnapshotCatalog(std::move(path), options));
  auto snapshot =
      catalog->LoadCommitted(/*skip_if_generation=*/0, /*skip_if_seq=*/0);
  if (!snapshot.ok()) return snapshot.status();
  // Generations start at 1, so skip_if_generation=0 never matches and the
  // load always returns a snapshot here.
  catalog->current_.store(std::move(*snapshot), std::memory_order_release);
  return catalog;
}

Result<bool> SnapshotCatalog::Refresh() {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  const std::shared_ptr<const core::AnalysisSnapshot> installed =
      current_.load(std::memory_order_acquire);
  auto snapshot =
      LoadCommitted(installed->generation(), installed->ingest_seq());
  if (!snapshot.ok()) return snapshot.status();
  if (*snapshot == nullptr) return false;
  current_.store(std::move(*snapshot), std::memory_order_release);
  return true;
}

}  // namespace twimob::serve
