#include "tweetdb/block.h"

#include <algorithm>

#include "common/logging.h"

namespace twimob::tweetdb {

Status Block::Append(const Tweet& tweet, size_t capacity) {
  if (user_ids_.size() >= capacity) {
    return Status::FailedPrecondition("block is full");
  }
  user_ids_.push_back(tweet.user_id);
  timestamps_.push_back(tweet.timestamp);
  lat_fixed_.push_back(geo::DegreesToFixed(tweet.pos.lat));
  lon_fixed_.push_back(geo::DegreesToFixed(tweet.pos.lon));
  return Status::OK();
}

Tweet Block::GetRow(size_t i) const {
  Tweet t;
  t.user_id = user_ids_[i];
  t.timestamp = timestamps_[i];
  t.pos.lat = geo::FixedToDegrees(lat_fixed_[i]);
  t.pos.lon = geo::FixedToDegrees(lon_fixed_[i]);
  return t;
}

BlockStats Block::ComputeStats() const {
  BlockStats s;
  s.num_rows = num_rows();
  if (empty()) return s;
  s.min_user = s.max_user = user_ids_[0];
  s.min_time = s.max_time = timestamps_[0];
  s.bbox = geo::BoundingBox{geo::FixedToDegrees(lat_fixed_[0]),
                            geo::FixedToDegrees(lon_fixed_[0]),
                            geo::FixedToDegrees(lat_fixed_[0]),
                            geo::FixedToDegrees(lon_fixed_[0])};
  for (size_t i = 1; i < num_rows(); ++i) {
    s.min_user = std::min(s.min_user, user_ids_[i]);
    s.max_user = std::max(s.max_user, user_ids_[i]);
    s.min_time = std::min(s.min_time, timestamps_[i]);
    s.max_time = std::max(s.max_time, timestamps_[i]);
    s.bbox.ExtendToInclude(geo::LatLon{geo::FixedToDegrees(lat_fixed_[i]),
                                       geo::FixedToDegrees(lon_fixed_[i])});
  }
  return s;
}

Block Block::FromColumns(std::vector<uint64_t> user_ids,
                         std::vector<int64_t> timestamps,
                         std::vector<int32_t> lat_fixed,
                         std::vector<int32_t> lon_fixed) {
  TWIMOB_DCHECK(user_ids.size() == timestamps.size() &&
                user_ids.size() == lat_fixed.size() &&
                user_ids.size() == lon_fixed.size());
  Block block;
  block.user_ids_ = std::move(user_ids);
  block.timestamps_ = std::move(timestamps);
  block.lat_fixed_ = std::move(lat_fixed);
  block.lon_fixed_ = std::move(lon_fixed);
  return block;
}

}  // namespace twimob::tweetdb
