#include "tweetdb/ingest.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/generation_pins.h"

namespace twimob::tweetdb {

namespace {

/// Zone-map summary of a sealed delta table: the union of its block stats
/// (the same union BuildManifest computes per shard).
void FillSummaryFromTable(const TweetTable& table, DeltaSummary* d) {
  d->num_rows = table.num_rows();
  bool first = true;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const BlockStats& stats = table.block_stats(b);
    if (stats.num_rows == 0) continue;
    if (first) {
      d->min_user = stats.min_user;
      d->max_user = stats.max_user;
      d->min_time = stats.min_time;
      d->max_time = stats.max_time;
      d->bbox = stats.bbox;
      first = false;
    } else {
      d->min_user = std::min(d->min_user, stats.min_user);
      d->max_user = std::max(d->max_user, stats.max_user);
      d->min_time = std::min(d->min_time, stats.min_time);
      d->max_time = std::max(d->max_time, stats.max_time);
      d->bbox.ExtendToInclude(geo::LatLon{stats.bbox.min_lat, stats.bbox.min_lon});
      d->bbox.ExtendToInclude(geo::LatLon{stats.bbox.max_lat, stats.bbox.max_lon});
    }
  }
}

/// Reads one committed "TWDB" blob and checks it against its manifest row
/// count — compaction inputs are always verified before they are merged.
Result<TweetTable> ReadCommittedTable(Env& env, const std::string& file_path,
                                      uint64_t expected_rows,
                                      const char* what) {
  TWIMOB_ASSIGN_OR_RETURN(const std::string bytes,
                          ReadFileToString(env, file_path));
  TWIMOB_ASSIGN_OR_RETURN(TweetTable table, DecodeTable(bytes));
  if (table.num_rows() != expected_rows) {
    return Status::IOError(StrFormat(
        "%s row count mismatch at %s: manifest says %llu, file has %zu", what,
        file_path.c_str(), static_cast<unsigned long long>(expected_rows),
        table.num_rows()));
  }
  return table;
}

}  // namespace

Env& IngestWriter::env() const {
  return env_ != nullptr ? *env_ : *Env::Default();
}

Result<std::unique_ptr<IngestWriter>> IngestWriter::Open(std::string path,
                                                         IngestOptions options,
                                                         Env* env) {
  std::unique_ptr<IngestWriter> writer(
      new IngestWriter(std::move(path), options, env));
  Env& e = writer->env();
  if (e.FileExists(writer->path_)) {
    TWIMOB_ASSIGN_OR_RETURN(const std::string bytes,
                            ReadFileToString(e, writer->path_));
    TWIMOB_ASSIGN_OR_RETURN(writer->manifest_, DecodeManifest(bytes));
  } else {
    // Initialise an empty generation-1 dataset; the atomic manifest write
    // is the commit point, so a crash here leaves no dataset at all.
    Manifest fresh;
    fresh.format_version = kBinaryFormatVersion;
    fresh.generation = 1;
    fresh.partition = options.partition;
    TWIMOB_RETURN_IF_ERROR(
        AtomicWriteFile(e, writer->path_, EncodeManifest(fresh), options.write));
    writer->manifest_ = std::move(fresh);
  }
  return writer;
}

Status IngestWriter::AppendBatch(const std::vector<Tweet>& batch) {
  if (batch.empty()) return Status::OK();
  TweetTable delta(options_.block_capacity);
  for (const Tweet& t : batch) {
    if (!t.IsValid()) {
      return Status::InvalidArgument("invalid tweet: " + t.ToString());
    }
    TWIMOB_RETURN_IF_ERROR(delta.Append(t));
  }
  delta.SealActive();
  // Deltas use the same compressed block codec as sealed shards;
  // compaction later merges their rows into the next generation's shards.
  const std::string encoded = EncodeTable(delta);

  // The commit sequence (delta file, then manifest) runs under the commit
  // mutex so appends serialise with each other and with a compaction's
  // commit phase — never with its merge.
  std::unique_lock<std::mutex> lock(mu_);
  DeltaSummary summary;
  summary.generation = manifest_.generation;
  summary.seq = manifest_.next_delta_seq;
  FillSummaryFromTable(delta, &summary);
  const std::string delta_path =
      DeltaFilePath(path_, summary.generation, summary.seq);
  // The delta file first: the installed manifest does not reference it
  // yet, so a crash after this write leaves only an orphan the retried
  // append atomically replaces (same seq — the cursor only advances at the
  // manifest commit below).
  if (Status s = AtomicWriteFile(env(), delta_path, encoded, options_.write);
      !s.ok()) {
    if (s.IsResourceExhausted()) EnterDegradedLocked(s, {delta_path});
    return s;
  }
  Manifest next = manifest_;
  next.format_version = kBinaryFormatVersion;
  next.deltas.push_back(summary);
  next.next_delta_seq = summary.seq + 1;
  if (Status s = AtomicWriteFile(env(), path_, EncodeManifest(next), options_.write);
      !s.ok()) {
    // The orphan delta is uncommitted — sweeping it frees its space.
    if (s.IsResourceExhausted()) EnterDegradedLocked(s, {delta_path});
    return s;
  }
  manifest_ = std::move(next);
  if (health_.degraded) {
    // The probe append landed: the disk has space again.
    health_.degraded = false;
    ++health_.probe_successes;
  }
  // Sweep files whose removal an earlier commit deferred and whose pins
  // have since been released — after the commit mutex is dropped: file
  // names are generation- and seq-qualified and never reused, so the
  // removals cannot race a later commit, and a slow unlink delays no one.
  std::vector<std::string> sweep = TakeUnpinnedDeferredFiles(path_);
  lock.unlock();
  for (const std::string& f : sweep) (void)env().RemoveFile(f);
  return Status::OK();
}

Result<bool> IngestWriter::Compact(ThreadPool* pool) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);

  // Snapshot the committed manifest; deltas appended after this point are
  // carried into the new manifest untouched (a later compaction merges
  // them).
  Manifest base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (health_.degraded) {
      // Parked: compaction would write a whole generation to a full disk.
      // Appends are the probe; once one lands, compaction resumes.
      return Status::ResourceExhausted(
          "ingest writer is degraded (disk full): compaction parked until an "
          "append probe succeeds; last error: " + health_.last_error.ToString());
    }
    base = manifest_;
  }
  if (base.deltas.empty()) return false;

  // Merge phase, outside the commit mutex: rebuild the dataset from the
  // snapshot's immutable files, route every delta row into its time shard,
  // and sort each shard by the (user, time, lat, lon) total order. The
  // output depends only on the committed row set, so the compacted shard
  // files are byte-identical at any thread count.
  TweetDataset merged(base.partition, options_.block_capacity);
  for (const ShardSummary& s : base.shards) {
    TWIMOB_ASSIGN_OR_RETURN(
        TweetTable table,
        ReadCommittedTable(env(), ShardFilePath(path_, base.generation, s.key),
                           s.num_rows, "shard"));
    TWIMOB_RETURN_IF_ERROR(merged.AdoptShard(s.key, std::move(table)));
  }
  for (const DeltaSummary& d : base.deltas) {
    TWIMOB_ASSIGN_OR_RETURN(
        TweetTable table,
        ReadCommittedTable(env(), DeltaFilePath(path_, d.generation, d.seq),
                           d.num_rows, "delta"));
    Status append = Status::OK();
    table.ForEachRow([&merged, &append](const Tweet& t) {
      if (append.ok()) append = merged.Append(t);
    });
    TWIMOB_RETURN_IF_ERROR(append);
  }
  merged.SealAll();
  merged.CompactShards(pool);

  // The next generation's shard files never alias the installed ones
  // (generation-qualified names), so they can be written outside the
  // commit mutex too; a crashed compaction's leftovers are atomically
  // replaced by the retry.
  const uint64_t new_generation = base.generation + 1;
  std::vector<std::string> written;
  written.reserve(merged.num_shards());
  for (size_t i = 0; i < merged.num_shards(); ++i) {
    merged.mutable_shard(i).SealActive();
    const std::string shard_path =
        ShardFilePath(path_, new_generation, merged.shard_key(i));
    if (Status s = AtomicWriteFile(env(), shard_path, EncodeTable(merged.shard(i)),
                                   options_.write);
        !s.ok()) {
      if (s.IsResourceExhausted()) {
        // The half-written next generation is uncommitted scratch — sweep
        // it so the emergency reclaim actually frees the merge's worth of
        // space, then park the writer.
        std::lock_guard<std::mutex> lock(mu_);
        EnterDegradedLocked(s, std::move(written));
      }
      return s;
    }
    written.push_back(shard_path);
  }

  // Commit phase: install the compacted manifest, carrying forward every
  // delta committed after the snapshot, then GC the files the new manifest
  // no longer references (pin-aware, like WriteDatasetFiles). The
  // manifest records where its shards came from: the snapshot's
  // generation and cursor (every seq below it is merged), which lets a
  // reader holding those rows rebase instead of re-reading them.
  std::unique_lock<std::mutex> lock(mu_);
  Manifest next = merged.BuildManifest();
  next.format_version = kBinaryFormatVersion;
  next.generation = new_generation;
  next.next_delta_seq = manifest_.next_delta_seq;
  next.compacted_from = base.generation;
  next.merged_below_seq = base.next_delta_seq;
  for (const DeltaSummary& d : manifest_.deltas) {
    if (d.seq >= next.merged_below_seq) next.deltas.push_back(d);
  }
  if (Status s = AtomicWriteFile(env(), path_, EncodeManifest(next), options_.write);
      !s.ok()) {
    // Nothing committed: the g+1 shard files are unreferenced scratch.
    if (s.IsResourceExhausted()) EnterDegradedLocked(s, std::move(written));
    return s;
  }

  std::vector<std::string> removable =
      ManifestFileSetDifference(path_, manifest_, next);
  if (IsGenerationPinned(path_, base.generation)) {
    DeferGenerationRemoval(path_, base.generation, std::move(removable));
    removable.clear();
  }
  manifest_ = std::move(next);
  for (std::string& f : TakeUnpinnedDeferredFiles(path_)) {
    removable.push_back(std::move(f));
  }
  // The removals run after the commit mutex is dropped, as in AppendBatch:
  // an append commits while the GC unlinks.
  lock.unlock();
  for (const std::string& f : removable) (void)env().RemoveFile(f);
  return true;
}

void IngestWriter::EnterDegradedLocked(const Status& cause,
                                       std::vector<std::string> partial_output) {
  health_.last_error = cause;
  if (!health_.degraded) {
    health_.degraded = true;
    ++health_.degraded_entries;
  }
  // Emergency sweep: the failed operation's own uncommitted files first,
  // then every superseded file whose pins have been released. Pinned
  // generations stay deferred (TakeUnpinnedDeferredFiles never returns
  // them), so snapshots opened from them keep their files on disk.
  for (const std::string& f : TakeUnpinnedDeferredFiles(path_)) {
    partial_output.push_back(f);
  }
  for (const std::string& f : partial_output) {
    if (!env().FileExists(f)) continue;
    if (env().RemoveFile(f).ok()) ++health_.swept_files;
  }
}

IngestHealth IngestWriter::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

bool IngestWriter::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_.degraded;
}

Manifest IngestWriter::manifest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_;
}

size_t IngestWriter::pending_deltas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.deltas.size();
}

}  // namespace twimob::tweetdb
