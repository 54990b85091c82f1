#include "tweetdb/dataset.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "common/time_util.h"

namespace twimob::tweetdb {

namespace {
// Deltas are accounted with the same per-file record as shards, so every
// aggregate folds both lists.
template <typename Fn>
uint64_t SumOver(const RecoveryReport& r, Fn&& fn) {
  uint64_t n = 0;
  for (const ShardRecovery& s : r.shards) n += fn(s);
  for (const ShardRecovery& s : r.deltas) n += fn(s);
  return n;
}
}  // namespace

uint64_t RecoveryReport::rows_expected() const {
  return SumOver(*this, [](const ShardRecovery& s) { return s.rows_expected; });
}

uint64_t RecoveryReport::rows_recovered() const {
  return SumOver(*this, [](const ShardRecovery& s) { return s.rows_recovered; });
}

uint64_t RecoveryReport::shards_dropped() const {
  return SumOver(*this,
                 [](const ShardRecovery& s) -> uint64_t { return s.dropped ? 1 : 0; });
}

uint64_t RecoveryReport::blocks_dropped() const {
  return SumOver(*this, [](const ShardRecovery& s) { return s.blocks_dropped; });
}

uint64_t RecoveryReport::checksum_failures() const {
  return SumOver(*this, [](const ShardRecovery& s) { return s.checksum_failures; });
}

bool RecoveryReport::degraded() const {
  const auto bad = [](const ShardRecovery& s) {
    return s.dropped || s.truncated || s.blocks_dropped > 0 ||
           s.checksum_failures > 0 || s.rows_recovered != s.rows_expected;
  };
  for (const ShardRecovery& s : shards) {
    if (bad(s)) return true;
  }
  for (const ShardRecovery& s : deltas) {
    if (bad(s)) return true;
  }
  return false;
}

std::string RecoveryReport::ToString() const {
  std::string out = StrFormat(
      "%s gen %llu: recovered %llu/%llu rows across %zu shards "
      "(%llu dropped shards, %llu dropped blocks, %llu checksum failures)",
      policy == RecoveryPolicy::kSalvage ? "salvage" : "strict",
      static_cast<unsigned long long>(generation),
      static_cast<unsigned long long>(rows_recovered()),
      static_cast<unsigned long long>(rows_expected()), shards.size(),
      static_cast<unsigned long long>(shards_dropped()),
      static_cast<unsigned long long>(blocks_dropped()),
      static_cast<unsigned long long>(checksum_failures()));
  if (!deltas.empty()) {
    out += StrFormat(" + %zu deltas", deltas.size());
  }
  return out;
}

int64_t PartitionSpec::KeyForTime(int64_t timestamp) const {
  if (width_seconds <= 0) return 0;
  const int64_t offset = timestamp - origin;
  // Floor division: shift negative offsets down so key k always covers
  // [origin + k*width, origin + (k+1)*width).
  int64_t key = offset / width_seconds;
  if (offset % width_seconds < 0) --key;
  return key;
}

PartitionSpec PartitionSpec::Single() { return PartitionSpec{}; }

PartitionSpec PartitionSpec::ForWindow(int64_t start, int64_t end,
                                       size_t num_shards) {
  PartitionSpec spec;
  spec.origin = start;
  if (num_shards <= 1 || end <= start) return spec;  // unpartitioned
  const int64_t span = end - start;
  // Ceiling width so the window never needs more than num_shards keys.
  spec.width_seconds =
      (span + static_cast<int64_t>(num_shards) - 1) /
      static_cast<int64_t>(num_shards);
  if (spec.width_seconds <= 0) spec.width_seconds = 1;
  return spec;
}

TweetDataset::TweetDataset(PartitionSpec partition, size_t block_capacity)
    : partition_(partition),
      block_capacity_(block_capacity == 0 ? kDefaultBlockCapacity
                                          : block_capacity) {}

TweetTable& TweetDataset::ShardForKey(int64_t key) {
  // Shards stay sorted by key; ingest hits few distinct keys, so the
  // binary search dominates only on cold inserts.
  auto it = std::lower_bound(
      shards_.begin(), shards_.end(), key,
      [](const Shard& s, int64_t k) { return s.key < k; });
  if (it != shards_.end() && it->key == key) return it->table;
  it = shards_.insert(it, Shard{key, TweetTable(block_capacity_)});
  return it->table;
}

Status TweetDataset::Append(const Tweet& tweet) {
  if (!tweet.IsValid()) {
    return Status::InvalidArgument("invalid tweet: " + tweet.ToString());
  }
  return ShardForKey(partition_.KeyForTime(tweet.timestamp)).Append(tweet);
}

Status TweetDataset::AppendBatch(const std::vector<Tweet>& batch) {
  for (const Tweet& t : batch) TWIMOB_RETURN_IF_ERROR(Append(t));
  return Status::OK();
}

size_t TweetDataset::num_rows() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.table.num_rows();
  return total;
}

size_t TweetDataset::num_blocks() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.table.num_blocks();
  return total;
}

void TweetDataset::SealAll() {
  for (Shard& s : shards_) s.table.SealActive();
}

bool TweetDataset::fully_sealed() const {
  for (const Shard& s : shards_) {
    if (!s.table.fully_sealed()) return false;
  }
  return true;
}

void TweetDataset::CompactShards(ThreadPool* pool,
                                 std::vector<ShardCompaction>* per_shard) {
  std::vector<ShardCompaction> done(shards_.size());
  auto compact_one = [this, &done](size_t i) {
    const double t0 = MonotonicSeconds();
    done[i].report = shards_[i].table.CompactByUserTime();
    done[i].seconds = MonotonicSeconds() - t0;
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards_.size(), compact_one);
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) compact_one(i);
  }
  if (per_shard != nullptr) *per_shard = std::move(done);
}

bool TweetDataset::sorted_by_user_time() const {
  for (const Shard& s : shards_) {
    if (!s.table.sorted_by_user_time()) return false;
  }
  return true;
}

size_t TweetDataset::CountDistinctUsers() const {
  std::unordered_set<uint64_t> users;
  ForEachRow([&users](const Tweet& t) { users.insert(t.user_id); });
  return users.size();
}

Manifest TweetDataset::BuildManifest() const {
  Manifest manifest;
  manifest.partition = partition_;
  manifest.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    ShardSummary summary;
    summary.key = s.key;
    summary.num_rows = s.table.num_rows();
    summary.num_blocks = s.table.num_blocks();
    bool first = true;
    for (size_t b = 0; b < s.table.num_blocks(); ++b) {
      const BlockStats& stats = s.table.block_stats(b);
      if (stats.num_rows == 0) continue;
      if (first) {
        summary.min_user = stats.min_user;
        summary.max_user = stats.max_user;
        summary.min_time = stats.min_time;
        summary.max_time = stats.max_time;
        summary.bbox = stats.bbox;
        first = false;
      } else {
        summary.min_user = std::min(summary.min_user, stats.min_user);
        summary.max_user = std::max(summary.max_user, stats.max_user);
        summary.min_time = std::min(summary.min_time, stats.min_time);
        summary.max_time = std::max(summary.max_time, stats.max_time);
        summary.bbox.ExtendToInclude(
            geo::LatLon{stats.bbox.min_lat, stats.bbox.min_lon});
        summary.bbox.ExtendToInclude(
            geo::LatLon{stats.bbox.max_lat, stats.bbox.max_lon});
      }
    }
    manifest.shards.push_back(summary);
  }
  return manifest;
}

TweetDataset TweetDataset::FromTable(TweetTable table, PartitionSpec partition) {
  TweetDataset dataset(partition, table.block_capacity());
  if (partition.width_seconds <= 0) {
    // Unpartitioned: adopt the table wholesale as shard 0 — same blocks,
    // same bytes, same sort flag.
    if (table.num_rows() > 0) {
      dataset.shards_.push_back(Shard{0, std::move(table)});
    }
    return dataset;
  }
  table.ForEachRow([&dataset](const Tweet& t) {
    // Rows in a stored table were validated on append; re-append succeeds.
    (void)dataset.Append(t);
  });
  dataset.SealAll();
  return dataset;
}

TweetTable TweetDataset::ReleaseTable() && {
  if (shards_.empty()) return TweetTable(block_capacity_);
  if (shards_.size() == 1) return std::move(shards_[0].table);
  std::vector<TweetTable> tables;
  tables.reserve(shards_.size());
  for (Shard& s : shards_) tables.push_back(std::move(s.table));
  shards_.clear();
  return TweetTable::Merge(std::move(tables), block_capacity_);
}

Status TweetDataset::AdoptShard(int64_t key, TweetTable table) {
  auto it = std::lower_bound(
      shards_.begin(), shards_.end(), key,
      [](const Shard& s, int64_t k) { return s.key < k; });
  if (it != shards_.end() && it->key == key) {
    return Status::InvalidArgument("duplicate shard key " + std::to_string(key));
  }
  shards_.insert(it, Shard{key, std::move(table)});
  return Status::OK();
}

}  // namespace twimob::tweetdb
