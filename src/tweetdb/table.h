#ifndef TWIMOB_TWEETDB_TABLE_H_
#define TWIMOB_TWEETDB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tweetdb/block.h"
#include "tweetdb/tweet.h"

namespace twimob::tweetdb {

/// A sealed block whose payload decode is deferred to first touch. The
/// mapped-open path (binary_codec.h MapDatasetFiles) stores one of these
/// per block: the zone map comes from the persisted directory, and the
/// decode closure — which verifies the payload CRC32C and the zone map
/// against the decoded columns — runs only when a scan actually reads the
/// block, so pruned blocks never cost a byte of decode work.
///
/// Thread-safe: concurrent Get() calls race on one std::call_once. A
/// failed decode is sticky — the block presents as empty (scans see zero
/// rows) and the error is surfaced through status() /
/// TweetTable::LazyDecodeStatus(), keeping the lock-free scan signatures
/// unchanged.
class LazyBlock {
 public:
  explicit LazyBlock(std::function<Result<Block>()> decode)
      : decode_(std::move(decode)) {}

  /// The decoded block, materialising it on first call. After a decode
  /// failure this is an empty block (check status()).
  const Block& Get() {
    if (state_.load(std::memory_order_acquire) == 0) {
      std::call_once(once_, [this] {
        auto decoded = decode_();
        if (decoded.ok()) {
          block_ = std::move(*decoded);
          state_.store(1, std::memory_order_release);
        } else {
          status_ = decoded.status();
          state_.store(2, std::memory_order_release);
        }
        decode_ = nullptr;  // drop the payload keep-alive once materialised
      });
    }
    return block_;
  }

  /// OK until a decode attempt failed; then the sticky decode error.
  Status status() const {
    return state_.load(std::memory_order_acquire) == 2 ? status_ : Status::OK();
  }

 private:
  std::once_flag once_;
  std::function<Result<Block>()> decode_;
  Block block_;
  Status status_;
  std::atomic<int> state_{0};  ///< 0 pending, 1 decoded, 2 failed
};

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

  /// Block `i`, decoding it on first touch when it was adopted lazily.
  /// Scans call block_stats(i) first and skip pruned blocks entirely, so a
  /// lazily-opened table only ever decodes the blocks a query touches.
  const Block& block(size_t i) const { return blocks_[i].Get(); }
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
  void AdoptSealedBlock(Block block);

  /// Internal: appends a lazily-decoded block whose zone map is already
  /// known (the mapped-open path reads it from the persisted per-block
  /// directory). Blocks with zero rows are skipped like AdoptSealedBlock.
  void AdoptLazyBlock(BlockStats stats, std::unique_ptr<LazyBlock> lazy);

  /// First sticky decode error across all lazily-adopted blocks, or OK.
  /// Scan paths over a mapped table check this after the scan: a failed
  /// block presented as empty rather than crashing the lock-free read path.
  Status LazyDecodeStatus() const;

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
    /// Set on lazily-adopted blocks; `block` stays empty and reads go
    /// through lazy->Get(). unique_ptr keeps StoredBlock movable (LazyBlock
    /// holds a once_flag) and lets the const accessors materialise.
    std::unique_ptr<LazyBlock> lazy;

    const Block& Get() const { return lazy != nullptr ? lazy->Get() : block; }
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
    const Block& blk = block(b);  // materialises lazily-adopted blocks
    const size_t n = blk.num_rows();
    for (size_t i = 0; i < n; ++i) fn(blk.GetRow(i));
  }
  for (size_t i = 0; i < active_.num_rows(); ++i) fn(active_.GetRow(i));
}

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_TABLE_H_
