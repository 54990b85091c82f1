#include "tweetdb/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace twimob::tweetdb {

TweetTable::TweetTable(size_t block_capacity)
    : block_capacity_(block_capacity == 0 ? kDefaultBlockCapacity : block_capacity) {}

Status TweetTable::Append(const Tweet& tweet) {
  if (!tweet.IsValid()) {
    return Status::InvalidArgument("invalid tweet: " + tweet.ToString());
  }
  if (active_.num_rows() >= block_capacity_) SealActive();
  TWIMOB_RETURN_IF_ERROR(active_.Append(tweet, block_capacity_));
  ++num_rows_;
  sorted_ = false;
  return Status::OK();
}

void TweetTable::SealActive() {
  if (active_.empty()) return;
  StoredBlock sb;
  sb.stats = active_.ComputeStats();
  sb.block = std::move(active_);
  blocks_.push_back(std::move(sb));
  active_ = Block();
}

namespace {

/// One row's compaction key in storage form. FixedToDegrees is a division
/// by a positive constant, so fixed-point coordinates order exactly as the
/// degrees they decode to: KeyLess is UserTimeLess on the decoded rows. The
/// key covers every column, so rows with equal keys are identical.
struct RowKey {
  uint64_t user;
  int64_t time;
  int32_t lat;
  int32_t lon;
};

bool KeyLess(const RowKey& a, const RowKey& b) {
  if (a.user != b.user) return a.user < b.user;
  if (a.time != b.time) return a.time < b.time;
  if (a.lat != b.lat) return a.lat < b.lat;
  return a.lon < b.lon;
}

/// Column pointers of one block, for the compaction's row loops.
struct ColumnView {
  explicit ColumnView(const Block& b)
      : users(b.user_ids().data()),
        times(b.timestamps().data()),
        lats(b.lat_fixed().data()),
        lons(b.lon_fixed().data()),
        rows(b.num_rows()) {}

  RowKey Key(size_t i) const { return RowKey{users[i], times[i], lats[i], lons[i]}; }

  const uint64_t* users;
  const int64_t* times;
  const int32_t* lats;
  const int32_t* lons;
  size_t rows;
};

}  // namespace

CompactionReport TweetTable::CompactByUserTime() {
  SealActive();
  // Pass 1: keep every row not below the last kept row (a non-decreasing
  // subsequence, in storage order); the rest go to the side list, which
  // records each row's storage position so pass 2 can skip it.
  std::vector<RowKey> side;
  std::vector<size_t> side_rows;
  bool canonical = true;
  size_t total = 0;
  RowKey last{};
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const ColumnView col(block(b));
    const bool last_block = b + 1 == blocks_.size();
    if (col.rows > block_capacity_ ||
        (!last_block && col.rows != block_capacity_)) {
      canonical = false;
    }
    for (size_t i = 0; i < col.rows; ++i, ++total) {
      const RowKey key = col.Key(i);
      if (total > 0 && KeyLess(key, last)) {
        side.push_back(key);
        side_rows.push_back(total);
      } else {
        last = key;
      }
    }
  }
  CompactionReport report;
  report.rows_out_of_order = side.size();
  sorted_ = true;
  if (side.empty() && canonical) return report;

  // Pass 2: merge the sorted side list into the kept stream, releasing each
  // input block once walked so the table is held about once, not twice.
  // Sorted inputs laid end to end (Merge of compacted tables) leave a
  // sorted side list, so their merge stays linear.
  if (!std::is_sorted(side.begin(), side.end(), KeyLess)) {
    std::sort(side.begin(), side.end(), KeyLess);
  }
  std::vector<StoredBlock> input = std::move(blocks_);
  blocks_.clear();
  std::vector<uint64_t> users;
  std::vector<int64_t> times;
  std::vector<int32_t> lats;
  std::vector<int32_t> lons;
  size_t filled = 0;
  size_t remaining = total;
  auto start_block = [&] {
    const size_t n = std::min(block_capacity_, remaining);
    remaining -= n;
    users = std::vector<uint64_t>(n);
    times = std::vector<int64_t>(n);
    lats = std::vector<int32_t>(n);
    lons = std::vector<int32_t>(n);
    filled = 0;
  };
  auto emit = [&](const RowKey& k) {
    users[filled] = k.user;
    times[filled] = k.time;
    lats[filled] = k.lat;
    lons[filled] = k.lon;
    if (++filled < users.size()) return;
    StoredBlock sb;
    sb.block = Block::FromColumns(std::move(users), std::move(times), std::move(lats),
                                  std::move(lons));
    sb.stats = sb.block.ComputeStats();
    blocks_.push_back(std::move(sb));
    start_block();
  };
  start_block();
  size_t next_side = 0;
  size_t skip = 0;
  size_t row = 0;
  for (StoredBlock& sb : input) {
    const ColumnView col(sb.block);
    for (size_t i = 0; i < col.rows; ++i, ++row) {
      if (skip < side_rows.size() && side_rows[skip] == row) {
        ++skip;
        continue;
      }
      const RowKey key = col.Key(i);
      while (next_side < side.size() && KeyLess(side[next_side], key)) {
        emit(side[next_side++]);
      }
      emit(key);
    }
    sb = StoredBlock();
  }
  while (next_side < side.size()) emit(side[next_side++]);
  num_rows_ = total;
  report.rewritten = true;
  return report;
}

std::vector<Tweet> TweetTable::ToVector() const {
  std::vector<Tweet> out;
  out.reserve(num_rows_);
  ForEachRow([&out](const Tweet& t) { out.push_back(t); });
  return out;
}

size_t TweetTable::CountDistinctUsers() const {
  std::unordered_set<uint64_t> users;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    for (uint64_t u : block(b).user_ids()) users.insert(u);
  }
  for (uint64_t u : active_.user_ids()) users.insert(u);
  return users.size();
}

void TweetTable::MarkSortedByUserTime() {
#ifndef NDEBUG
  Tweet prev{};
  bool first = true;
  ForEachRow([&prev, &first](const Tweet& t) {
    if (!first) TWIMOB_DCHECK(!UserTimeLess(t, prev));
    prev = t;
    first = false;
  });
#endif
  sorted_ = true;
}

TweetTable TweetTable::Merge(std::vector<TweetTable> tables,
                             size_t block_capacity) {
  TweetTable merged(block_capacity);
  for (TweetTable& t : tables) {
    t.SealActive();
    for (StoredBlock& sb : t.blocks_) merged.blocks_.push_back(std::move(sb));
    merged.num_rows_ += t.num_rows_;
  }
  merged.CompactByUserTime();
  return merged;
}

std::pair<size_t, size_t> TweetTable::LowerBoundUser(uint64_t user) const {
  TWIMOB_DCHECK(fully_sealed());
  // Zone maps order blocks by max_user in a compacted table; find the
  // first block that can contain `user` or anything greater.
  size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (blocks_[mid].stats.max_user < user) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Blocks are never empty, so block `lo` holds its max_user >= `user`.
  if (lo == blocks_.size()) return {lo, 0};
  const std::vector<uint64_t>& users = block(lo).user_ids();
  return {lo, static_cast<size_t>(std::lower_bound(users.begin(), users.end(), user) -
                                  users.begin())};
}

void TweetTable::AdoptSealedBlock(Block block) {
  if (block.empty()) return;
  StoredBlock sb;
  sb.stats = block.ComputeStats();
  num_rows_ += block.num_rows();
  sb.block = std::move(block);
  blocks_.push_back(std::move(sb));
  sorted_ = false;
}

}  // namespace twimob::tweetdb
