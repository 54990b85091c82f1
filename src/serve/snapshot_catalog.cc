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
SnapshotCatalog::LoadCommitted() {
  Status last_error = Status::OK();
  const int attempts = options_.max_open_retries < 1 ? 1 : options_.max_open_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    auto manifest = PeekManifest(env(), path_);
    if (!manifest.ok()) return manifest.status();
    const uint64_t generation = manifest->generation;

    // Pin before reading shard data: from here on, a writer that commits a
    // newer generation defers (never deletes) this generation's files.
    tweetdb::GenerationPin pin(path_, generation);
    ctx_->trace().Clear();
    const double t0 = MonotonicSeconds();
    tweetdb::RecoveryReport report;
    auto dataset = tweetdb::ReadDatasetFiles(path_, options_.policy, &report,
                                             &env(), &ctx_->pool());
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
        std::move(*dataset), options_.analysis, std::move(source), ctx_.get());
    if (!snapshot.ok()) return snapshot.status();
    return std::make_shared<const core::AnalysisSnapshot>(std::move(*snapshot));
  }
  if (!last_error.ok()) return last_error;
  return Status::Unavailable(
      "snapshot catalog: writer kept outpacing the pin-then-read loop at " +
      path_);
}

Result<std::shared_ptr<const core::AnalysisSnapshot>>
SnapshotCatalog::DeriveFromDeltas(const core::AnalysisSnapshot& installed,
                                  const tweetdb::Manifest& manifest) {
  using Null = std::shared_ptr<const core::AnalysisSnapshot>;
  const std::optional<tweetdb::RecoveryReport>& installed_report =
      installed.recovery();
  if (options_.policy != tweetdb::RecoveryPolicy::kStrict ||
      manifest.generation != installed.generation() ||
      manifest.next_delta_seq <= installed.ingest_seq() ||
      !installed_report.has_value() || installed_report->degraded()) {
    return Null();
  }
  // The deltas the installed snapshot folded in must still be listed as it
  // saw them, and every seq from its cursor on must be listed too.
  const uint64_t from_seq = installed.ingest_seq();
  size_t old_deltas = 0;
  size_t new_deltas = 0;
  for (const tweetdb::DeltaSummary& d : manifest.deltas) {
    if (d.seq < from_seq) {
      if (old_deltas >= installed_report->deltas.size() ||
          installed_report->deltas[old_deltas].key != static_cast<int64_t>(d.seq)) {
        return Null();
      }
      ++old_deltas;
    } else {
      ++new_deltas;
    }
  }
  if (old_deltas != installed_report->deltas.size() ||
      new_deltas != manifest.next_delta_seq - from_seq) {
    return Null();
  }

  // The installed snapshot pins this generation already; the new one holds
  // its own pin for its lifetime.
  tweetdb::GenerationPin pin(path_, manifest.generation);
  ctx_->trace().Clear();
  const double t0 = MonotonicSeconds();
  tweetdb::RecoveryReport report = *installed_report;
  report.next_delta_seq = manifest.next_delta_seq;
  auto deltas =
      tweetdb::ReadDeltaFiles(path_, manifest, from_seq, &report.deltas, &env());
  if (!deltas.ok()) return deltas.status();

  core::SnapshotSource source;
  source.generation = manifest.generation;
  source.ingest_seq = manifest.next_delta_seq;
  source.pin = std::move(pin);
  source.recovery = std::move(report);
  source.recovery_seconds = MonotonicSeconds() - t0;
  auto snapshot = core::AnalysisSnapshot::Derive(
      installed, std::move(*deltas), options_.analysis, std::move(source), ctx_.get());
  if (!snapshot.ok()) return snapshot.status();
  return std::make_shared<const core::AnalysisSnapshot>(std::move(*snapshot));
}

Result<std::unique_ptr<SnapshotCatalog>> SnapshotCatalog::Open(
    std::string path, CatalogOptions options) {
  std::unique_ptr<SnapshotCatalog> catalog(
      new SnapshotCatalog(std::move(path), options));
  auto snapshot = catalog->LoadCommitted();
  if (!snapshot.ok()) return snapshot.status();
  catalog->current_.store(std::move(*snapshot), std::memory_order_release);
  return catalog;
}

Result<bool> SnapshotCatalog::Refresh() {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  const std::shared_ptr<const core::AnalysisSnapshot> installed =
      current_.load(std::memory_order_acquire);
  auto manifest = PeekManifest(env(), path_);
  if (!manifest.ok()) return manifest.status();
  if (manifest->generation == installed->generation() &&
      manifest->next_delta_seq == installed->ingest_seq()) {
    return false;
  }
  auto snapshot = DeriveFromDeltas(*installed, *manifest);
  if (snapshot.ok() && *snapshot == nullptr) snapshot = LoadCommitted();
  if (!snapshot.ok()) return snapshot.status();
  current_.store(std::move(*snapshot), std::memory_order_release);
  return true;
}

}  // namespace twimob::serve
