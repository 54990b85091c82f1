#include "tweetdb/ingest.h"

#include <algorithm>
#include <utility>

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
  // A healthy append unlinks nothing: superseded files are swept after
  // compaction and rewrite commits, off the freshness path.
  if (!health_.degraded) return Status::OK();
  // The probe append landed: the disk has space again. Like the emergency
  // sweep that parked the writer, the recovery reclaims every released
  // deferral — after the commit mutex is dropped (file names are never
  // reused, so the removals cannot race a later commit).
  health_.degraded = false;
  ++health_.probe_successes;
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
  if (base.deltas.empty()) {
    // Nothing to merge; still sweep the deferrals whose pins have been
    // released, so a caller can reclaim their disk.
    for (const std::string& f : TakeUnpinnedDeferredFiles(path_)) {
      (void)env().RemoveFile(f);
    }
    return false;
  }

  // Merge phase, outside the commit mutex. The snapshot's delta rows are
  // routed into their time shards first; only the shards that received
  // rows are then read, compacted by the (user, time, lat, lon) total order
  // (pool-parallel across shards) and rewritten. Each touched shard is its
  // committed rows followed by its delta rows in seq order — what a merge
  // of every shard holds for it — so the output depends only on the
  // committed row set and is byte-identical at any thread count. Reads are
  // serial; decodes run on the pool.
  TWIMOB_ASSIGN_OR_RETURN(
      const TweetDataset routed,
      ReadDeltaFiles(path_, base, /*from_seq=*/0, nullptr, &env(), pool));
  std::vector<ShardSummary> touched;
  for (size_t i = 0; i < routed.num_shards(); ++i) {
    const auto it = std::lower_bound(
        base.shards.begin(), base.shards.end(), routed.shard_key(i),
        [](const ShardSummary& s, int64_t key) { return s.key < key; });
    if (it != base.shards.end() && it->key == routed.shard_key(i)) {
      touched.push_back(*it);
    }
  }
  TweetDataset merged(base.partition, options_.block_capacity);
  TWIMOB_RETURN_IF_ERROR(ReadShardFiles(path_, touched, &merged, &env(), pool));
  Status append = Status::OK();
  routed.ForEachRow([&merged, &append](const Tweet& t) {
    if (append.ok()) append = merged.Append(t);
  });
  TWIMOB_RETURN_IF_ERROR(append);
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

  // The rewritten shards' records replace theirs; every untouched record,
  // and so its file, carries forward verbatim.
  Manifest next = merged.BuildManifest();
  for (ShardSummary& s : next.shards) s.generation = new_generation;
  for (const ShardSummary& s : base.shards) {
    if (std::none_of(next.shards.begin(), next.shards.end(),
                     [&s](const ShardSummary& t) { return t.key == s.key; })) {
      next.shards.push_back(s);
    }
  }
  std::sort(next.shards.begin(), next.shards.end(),
            [](const ShardSummary& a, const ShardSummary& b) { return a.key < b.key; });

  // Commit phase: install the compacted manifest, carrying forward every
  // delta committed after the snapshot, then GC the files the new manifest
  // no longer references (pin-aware, like WriteDatasetFiles) along with
  // every released earlier deferral. The manifest records where its
  // shards came from: the snapshot's generation and cursor (every seq below
  // it is merged), which lets a reader holding those rows rebase instead of
  // re-reading them.
  std::unique_lock<std::mutex> lock(mu_);
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
  const std::vector<std::string> removable =
      RetireSupersededFiles(path_, manifest_, next);
  manifest_ = std::move(next);
  // The removals run after the commit mutex is dropped: an append commits
  // while the GC unlinks.
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
