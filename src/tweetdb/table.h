#ifndef TWIMOB_TWEETDB_TABLE_H_
#define TWIMOB_TWEETDB_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tweetdb/block.h"
#include "tweetdb/tweet.h"

namespace twimob::tweetdb {

/// What one TweetTable::CompactByUserTime() did.
struct CompactionReport {
  /// Rows below the last in-order row, re-sorted through the side list
  /// (0 for a table already in order).
  size_t rows_out_of_order = 0;
  /// True when the blocks were rebuilt; false when they were already
  /// canonical and in order and only got marked sorted.
  bool rewritten = false;
};

/// The tweet store: an append-only columnar table made of sealed immutable
/// blocks plus one active tail block.
///
/// Ingest path: Append() rows; each full block is sealed and its zone map
/// cached. Analysis path: CompactByUserTime() once, then scans (query.h) and
/// per-user iteration run over sorted blocks with block-level pruning.
class TweetTable {
 public:
  /// Creates an empty table with the given rows-per-block.
  explicit TweetTable(size_t block_capacity = kDefaultBlockCapacity);

  TweetTable(TweetTable&&) noexcept = default;
  TweetTable& operator=(TweetTable&&) noexcept = default;
  TweetTable(const TweetTable&) = delete;
  TweetTable& operator=(const TweetTable&) = delete;

  /// Appends one validated row. Invalid rows (bad coordinate / negative
  /// timestamp) are rejected with InvalidArgument.
  Status Append(const Tweet& tweet);

  /// Total rows across sealed blocks and the active tail.
  size_t num_rows() const { return num_rows_; }

  /// Seals the active tail (no-op when empty) so that all rows live in
  /// sealed blocks. Called automatically by Compact and the codecs.
  void SealActive();

  /// Globally sorts all rows by (user, time, lat, lon) — UserTimeLess —
  /// into canonical blocks: every block full at block_capacity() except the
  /// last. After compaction each user's rows are contiguous and
  /// time-ordered, the layout trip extraction requires.
  ///
  /// Adaptive: one pass over the columns keeps every row that is not below
  /// the last kept row; only the others are sorted, then merged back into
  /// the kept stream linearly. A table already in order with canonical
  /// blocks is not rewritten at all, so a re-compaction costs one O(n) check.
  CompactionReport CompactByUserTime();

  /// True once CompactByUserTime() has run and no rows were appended since.
  bool sorted_by_user_time() const { return sorted_; }

  /// Asserts (without re-sorting) that the rows are already in (user, time)
  /// order — for callers that constructed the table by an order-preserving
  /// transform of a sorted table. The invariant is checked in debug builds.
  void MarkSortedByUserTime();

  /// Number of sealed blocks (after SealActive()).
  size_t num_blocks() const { return blocks_.size(); }

  /// True when every row lives in a sealed block (empty active tail) — the
  /// precondition of the block-parallel scan and extraction paths. Always
  /// true after CompactByUserTime() or SealActive().
  bool fully_sealed() const { return active_.empty(); }

  /// Sealed block `i`. Never empty: sealing, adoption and compaction all
  /// skip empty blocks. Scans call block_stats(i) first and skip pruned
  /// blocks entirely.
  const Block& block(size_t i) const { return blocks_[i].block; }
  const BlockStats& block_stats(size_t i) const { return blocks_[i].stats; }

  /// The active tail block: the rows appended since the last seal, after
  /// every sealed block in storage order. Empty when fully_sealed().
  const Block& active_block() const { return active_; }

  size_t block_capacity() const { return block_capacity_; }

  /// Invokes `fn(const Tweet&)` for every row in storage order. The active
  /// tail is included.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const;

  /// Materialises every row (test/diagnostic helper; O(num_rows) memory).
  std::vector<Tweet> ToVector() const;

  /// Distinct user count (hashes the user column; O(num_rows) time).
  size_t CountDistinctUsers() const;

  /// Internal: appends an already-sealed block (used by the binary codec).
  /// An empty block is skipped.
  void AdoptSealedBlock(Block block);

  /// Position of the first row whose user_id is >= `user`, as a
  /// (block, row) pair, or (num_blocks(), 0) when every row is smaller.
  /// Requires a fully-sealed table compacted by (user, time); zone maps
  /// narrow the search to one block boundary, then the user column is
  /// binary-searched. The cross-shard iteration uses this to locate a
  /// user's run in each shard without scanning.
  std::pair<size_t, size_t> LowerBoundUser(uint64_t user) const;

  /// Merges tables into one compacted-by-(user,time) table — the
  /// multi-collection ingestion path (e.g. combining monthly corpora): the
  /// inputs' blocks are adopted in order, then CompactByUserTime() runs
  /// once. Input tables are consumed. Duplicate rows are kept (callers
  /// dedupe if their collections overlap).
  static TweetTable Merge(std::vector<TweetTable> tables,
                          size_t block_capacity = kDefaultBlockCapacity);

 private:
  struct StoredBlock {
    Block block;
    BlockStats stats;
  };

  size_t block_capacity_;
  std::vector<StoredBlock> blocks_;
  Block active_;
  size_t num_rows_ = 0;
  bool sorted_ = false;
};

template <typename Fn>
void TweetTable::ForEachRow(Fn&& fn) const {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = block(b);
    const size_t n = blk.num_rows();
    for (size_t i = 0; i < n; ++i) fn(blk.GetRow(i));
  }
  for (size_t i = 0; i < active_.num_rows(); ++i) fn(active_.GetRow(i));
}

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_TABLE_H_
