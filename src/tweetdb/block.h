#ifndef TWIMOB_TWEETDB_BLOCK_H_
#define TWIMOB_TWEETDB_BLOCK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geo/bbox.h"
#include "tweetdb/tweet.h"

namespace twimob::tweetdb {

/// Default number of rows per block.
inline constexpr size_t kDefaultBlockCapacity = 65536;

/// Zone map of one block — the scan planner prunes whole blocks on these
/// bounds without decoding them.
struct BlockStats {
  uint64_t min_user = 0;
  uint64_t max_user = 0;
  int64_t min_time = 0;
  int64_t max_time = 0;
  geo::BoundingBox bbox;  ///< tight lat/lon bounds of the rows
  size_t num_rows = 0;
};

/// A decoded, in-memory block in column (structure-of-arrays) layout.
///
/// Blocks are the storage and scan unit of the tweet store: a TweetTable is
/// an ordered list of sealed blocks. Sealed blocks are immutable.
class Block {
 public:
  Block() = default;

  /// Appends one row. Returns FailedPrecondition once the block holds
  /// `capacity` rows (callers seal and roll over).
  Status Append(const Tweet& tweet, size_t capacity = kDefaultBlockCapacity);

  size_t num_rows() const { return user_ids_.size(); }
  bool empty() const { return user_ids_.empty(); }

  /// Materialises row `i` (bounds unchecked in release; i < num_rows()).
  Tweet GetRow(size_t i) const;

  /// Recomputed zone map over current contents.
  BlockStats ComputeStats() const;

  /// Column accessors for tight scan loops.
  const std::vector<uint64_t>& user_ids() const { return user_ids_; }
  const std::vector<int64_t>& timestamps() const { return timestamps_; }
  const std::vector<int32_t>& lat_fixed() const { return lat_fixed_; }
  const std::vector<int32_t>& lon_fixed() const { return lon_fixed_; }

  /// Assembles a block directly from its four columns (all the same length
  /// — DCHECK-enforced). Used by the block payload decoder
  /// (block_compression.h), which reconstructs columns wholesale.
  static Block FromColumns(std::vector<uint64_t> user_ids,
                           std::vector<int64_t> timestamps,
                           std::vector<int32_t> lat_fixed,
                           std::vector<int32_t> lon_fixed);

 private:
  std::vector<uint64_t> user_ids_;
  std::vector<int64_t> timestamps_;
  std::vector<int32_t> lat_fixed_;
  std::vector<int32_t> lon_fixed_;
};

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_BLOCK_H_
