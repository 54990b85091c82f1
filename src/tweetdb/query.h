#ifndef TWIMOB_TWEETDB_QUERY_H_
#define TWIMOB_TWEETDB_QUERY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "geo/bbox.h"
#include "geo/latlon.h"
#include "tweetdb/dataset.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {

/// A conjunctive scan predicate. Unset members match everything.
struct ScanSpec {
  std::optional<geo::BoundingBox> bbox;      ///< row coordinate inside box
  std::optional<int64_t> min_time;           ///< timestamp >= min_time
  std::optional<int64_t> max_time;           ///< timestamp <  max_time
  std::optional<uint64_t> user_id;           ///< exact user match

  /// True iff the row satisfies every set member.
  bool Matches(const Tweet& t) const;

  /// True iff no member is set — every row matches; scanners skip predicate
  /// evaluation entirely.
  bool MatchesAllRows() const {
    return !bbox.has_value() && !min_time.has_value() && !max_time.has_value() &&
           !user_id.has_value();
  }

  /// True iff a block with these zone-map stats can contain a match;
  /// false lets the scanner skip the block without decoding rows.
  bool MayMatchBlock(const BlockStats& stats) const;
};

/// Counters the scanner fills in — exposed so the zone-map ablation bench
/// (A4 in DESIGN.md) can report pruning effectiveness.
struct ScanStatistics {
  size_t blocks_total = 0;
  size_t blocks_pruned = 0;
  size_t rows_scanned = 0;
  size_t rows_matched = 0;
};

/// Columnar predicate kernel: evaluates `spec` against `block`'s column
/// vectors and fills `sel` with the indices of the matching rows, ascending.
/// Equivalent to testing `spec.Matches(block.GetRow(i))` for every row, but
/// runs one column at a time (seed pass over the most selective column,
/// refine passes over the survivors) with the bbox test compiled down to
/// integer compares on the fixed-point coordinate columns. With no
/// predicate set the selection is the identity.
void FilterBlockColumnar(const Block& block, const ScanSpec& spec,
                         std::vector<uint32_t>* sel);

/// Reference form of FilterBlockColumnar that always runs the scalar
/// kernels, regardless of CPU features or TWIMOB_FORCE_SCALAR. The
/// dispatched form must produce an identical selection list for every
/// input — differential tests and the perf_tweetdb speedup probe compare
/// the two.
void FilterBlockColumnarScalar(const Block& block, const ScanSpec& spec,
                               std::vector<uint32_t>* sel);

/// Name of the kernel set FilterBlockColumnar dispatches to ("avx2",
/// "sse4.2", or "scalar"), resolved once per process.
const char* FilterKernelsImplementation();

/// Global block index -> (shard, block) of every sealed block of `dataset`,
/// in (shard key, block) order — the fixed chunking of every dataset scan.
std::vector<std::pair<size_t, size_t>> DatasetBlockMap(const TweetDataset& dataset);

namespace internal {

/// Takes the calling thread's cached selection-list scratch vector (empty,
/// but with whatever capacity earlier scans grew it to), or a fresh vector
/// when the cache is checked out — a scan started from inside another
/// scan's row callback simply allocates. Pass the vector back through
/// ReleaseSelectionScratch when the scan finishes so the capacity is
/// reused instead of reallocated per block.
std::vector<uint32_t> AcquireSelectionScratch();

/// Returns a scratch vector to the calling thread's cache (cleared, with
/// capacity intact).
void ReleaseSelectionScratch(std::vector<uint32_t> scratch);

/// Materialises row `i` exactly as `Block::GetRow` does — gathers of
/// selected rows are bit-identical to the row-at-a-time scan.
inline Tweet GatherRow(const Block& block, size_t i) {
  Tweet t;
  t.user_id = block.user_ids()[i];
  t.timestamp = block.timestamps()[i];
  t.pos.lat = geo::FixedToDegrees(block.lat_fixed()[i]);
  t.pos.lon = geo::FixedToDegrees(block.lon_fixed()[i]);
  return t;
}

/// Scans one non-pruned block through the columnar kernel: filter into
/// `sel_scratch`, then gather only the selected rows for `fn(const Tweet&)`.
/// Match-all specs gather every row directly without a selection list.
/// Row order (and therefore `fn` invocation order) is identical to the
/// row-at-a-time loop.
template <typename RowFn>
void ScanBlockColumnar(const Block& block, const ScanSpec& spec,
                       std::vector<uint32_t>& sel_scratch, ScanStatistics& stats,
                       RowFn&& fn) {
  const size_t n = block.num_rows();
  stats.rows_scanned += n;
  if (spec.MatchesAllRows()) {
    stats.rows_matched += n;
    for (size_t i = 0; i < n; ++i) fn(GatherRow(block, i));
    return;
  }
  FilterBlockColumnar(block, spec, &sel_scratch);
  stats.rows_matched += sel_scratch.size();
  for (const uint32_t i : sel_scratch) fn(GatherRow(block, i));
}

/// Count-only form: evaluates the predicates but never gathers rows.
size_t CountBlockColumnar(const Block& block, const ScanSpec& spec,
                          std::vector<uint32_t>& sel_scratch, ScanStatistics& stats);

/// The one dataset scan loop: runs `block_fn(global_block_index, block,
/// stats)` on every block whose zone map may match `spec` (pruned blocks
/// only count as pruned), on `pool` when it is non-null and serially in
/// global block order otherwise. Per-block statistics merge in global block
/// order, so the totals are identical for any thread count.
template <typename BlockFn>
ScanStatistics ForEachCandidateBlock(const TweetDataset& dataset,
                                     const ScanSpec& spec, ThreadPool* pool,
                                     BlockFn&& block_fn) {
  const std::vector<std::pair<size_t, size_t>> block_map = DatasetBlockMap(dataset);
  std::vector<ScanStatistics> per_block(block_map.size());
  const auto visit = [&](size_t g) {
    const auto [s, b] = block_map[g];
    const TweetTable& table = dataset.shard(s);
    if (!spec.MayMatchBlock(table.block_stats(b))) {
      ++per_block[g].blocks_pruned;
      return;
    }
    block_fn(g, table.block(b), per_block[g]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(block_map.size(), visit);
  } else {
    for (size_t g = 0; g < block_map.size(); ++g) visit(g);
  }
  ScanStatistics total;
  total.blocks_total = block_map.size();
  for (const ScanStatistics& s : per_block) {
    total.blocks_pruned += s.blocks_pruned;
    total.rows_scanned += s.rows_scanned;
    total.rows_matched += s.rows_matched;
  }
  return total;
}

}  // namespace internal

/// Serial cross-shard scan: shards are visited in ascending key order, each
/// in block order with zone-map pruning; `fn(const Tweet&)` runs on every
/// match. Only sealed blocks are scanned (seal first). A table is scanned
/// by wrapping it with the zero-copy TweetDataset::FromTable.
template <typename Fn>
ScanStatistics ScanDataset(const TweetDataset& dataset, const ScanSpec& spec,
                           Fn&& fn) {
  // One selection scratch for the whole dataset: the first block grows it
  // to its row count and every later block (in every shard) reuses the
  // capacity.
  std::vector<uint32_t> sel = internal::AcquireSelectionScratch();
  const ScanStatistics stats = internal::ForEachCandidateBlock(
      dataset, spec, nullptr,
      [&spec, &sel, &fn](size_t, const Block& block, ScanStatistics& block_stats) {
        internal::ScanBlockColumnar(block, spec, sel, block_stats, fn);
      });
  internal::ReleaseSelectionScratch(std::move(sel));
  return stats;
}

/// Counts the rows of `dataset` matching `spec` without gathering them;
/// block-parallel on `pool` when it is non-null. The count and statistics
/// are identical either way.
ScanStatistics CountMatching(const TweetDataset& dataset, const ScanSpec& spec,
                             size_t* count, ThreadPool* pool = nullptr);

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_QUERY_H_
