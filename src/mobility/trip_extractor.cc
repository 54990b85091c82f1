#include "mobility/trip_extractor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "geo/geodesic.h"

namespace twimob::mobility {

namespace {

// The per-row state machine every extraction chunk runs: feeding the same
// rows in the same order produces the same flows and counters wherever the
// machine runs.
class TripAccumulator {
 public:
  TripAccumulator(const std::vector<census::Area>& areas, double radius_m,
                  const TripOptions& options, OdMatrix* od)
      : assigner_(areas, radius_m), options_(options), od_(od) {}

  /// Columnar entry point: the gather loops feed decoded column values
  /// directly, never materialising a Tweet.
  void Process(uint64_t user, int64_t time, const geo::LatLon& pos) {
    ++stats_.tweets_seen;
    const std::optional<size_t> area = assigner_.Assign(pos);
    if (area.has_value()) ++stats_.tweets_in_some_area;

    if (have_prev_ && user == prev_user_) {
      ++stats_.consecutive_pairs;
      const bool gap_ok = options_.max_gap_seconds == 0 ||
                          time - prev_time_ <= options_.max_gap_seconds;
      if (!gap_ok) {
        ++stats_.gap_filtered_pairs;
      } else if (prev_area_.has_value() && area.has_value()) {
        if (*prev_area_ != *area) {
          od_->AddFlow(*prev_area_, *area, 1.0);
          ++stats_.inter_area_trips;
        } else {
          ++stats_.intra_area_pairs;
        }
      }
    }
    prev_user_ = user;
    prev_time_ = time;
    prev_area_ = area;
    have_prev_ = true;
  }

  const ExtractionStats& stats() const { return stats_; }

 private:
  const AreaAssigner assigner_;
  const TripOptions& options_;
  OdMatrix* od_;
  ExtractionStats stats_;
  uint64_t prev_user_ = 0;
  int64_t prev_time_ = 0;
  bool have_prev_ = false;
  std::optional<size_t> prev_area_;
};

void MergeStats(const ExtractionStats& from, ExtractionStats* into) {
  into->tweets_seen += from.tweets_seen;
  into->tweets_in_some_area += from.tweets_in_some_area;
  into->consecutive_pairs += from.consecutive_pairs;
  into->inter_area_trips += from.inter_area_trips;
  into->intra_area_pairs += from.intra_area_pairs;
  into->gap_filtered_pairs += from.gap_filtered_pairs;
}

/// Feeds rows [begin, end) of `block` into `acc` straight from the column
/// vectors — the coordinate decode matches Block::GetRow bit for bit.
void FeedBlockRows(const tweetdb::Block& block, size_t begin, size_t end,
                   TripAccumulator& acc) {
  const uint64_t* users = block.user_ids().data();
  const int64_t* times = block.timestamps().data();
  const int32_t* lats = block.lat_fixed().data();
  const int32_t* lons = block.lon_fixed().data();
  for (size_t i = begin; i < end; ++i) {
    acc.Process(users[i], times[i],
                geo::LatLon{geo::FixedToDegrees(lats[i]),
                            geo::FixedToDegrees(lons[i])});
  }
}

/// Length of the prefix of [begin, num_rows) whose rows belong to `user`.
size_t UserRunEnd(const tweetdb::Block& block, size_t begin, uint64_t user) {
  const uint64_t* users = block.user_ids().data();
  const size_t n = block.num_rows();
  size_t i = begin;
  while (i < n && users[i] == user) ++i;
  return i;
}

/// A position in one shard's compacted rows, bounded by an end position.
/// Positions are (block, row) pairs as TweetTable::LowerBoundUser returns
/// them; the cursor caches its current block and steps over empty blocks.
class ShardCursor {
 public:
  ShardCursor(const tweetdb::TweetTable& table, std::pair<size_t, size_t> begin,
              std::pair<size_t, size_t> end)
      : table_(table), block_(begin.first), row_(begin.second), end_(end) {
    LoadBlock();
  }

  bool done() const { return std::make_pair(block_, row_) >= end_; }
  uint64_t user() const { return current_->user_ids()[row_]; }

  /// Feeds the current user's run into `acc`, across block boundaries, and
  /// steps past it. A run never crosses the end position: the row there
  /// belongs to the next unit's first user.
  void FeedRun(TripAccumulator& acc) {
    const uint64_t run_user = user();
    do {
      const size_t end = UserRunEnd(*current_, row_, run_user);
      FeedBlockRows(*current_, row_, end, acc);
      row_ = end;
      if (row_ == current_->num_rows()) {
        ++block_;
        row_ = 0;
        LoadBlock();
      }
    } while (!done() && user() == run_user);
  }

 private:
  /// Moves to the first block from block_ on with a row at row_.
  void LoadBlock() {
    for (; block_ < table_.num_blocks(); ++block_) {
      current_ = &table_.block(block_);
      if (row_ < current_->num_rows()) return;
      row_ = 0;
    }
  }

  const tweetdb::TweetTable& table_;
  size_t block_;
  size_t row_;
  std::pair<size_t, size_t> end_;
  const tweetdb::Block* current_ = nullptr;
};

}  // namespace

AreaAssigner::AreaAssigner(const std::vector<census::Area>& areas, double radius_m)
    : radius_m_(radius_m),
      prefilter_m_(radius_m * 1.01),
      lat_band_deg_(radius_m / geo::MetersPerDegreeLat() * (1.0 + 1e-9)) {
  lats_.reserve(areas.size());
  lons_.reserve(areas.size());
  for (const census::Area& a : areas) {
    lats_.push_back(a.center.lat);
    lons_.push_back(a.center.lon);
  }
}

std::optional<size_t> AreaAssigner::Assign(const geo::LatLon& pos) const {
  double best = std::numeric_limits<double>::infinity();
  std::optional<size_t> best_idx;
  const size_t n = lats_.size();
  for (size_t i = 0; i < n; ++i) {
    // Exact reject: great-circle distance is at least the meridian leg, so
    // a centre more than radius/MetersPerDegreeLat degrees of latitude away
    // can never pass the haversine test (the 1e-9 slack absorbs rounding).
    if (std::fabs(lats_[i] - pos.lat) > lat_band_deg_) continue;
    const geo::LatLon center{lats_[i], lons_[i]};
    // Cheap equirectangular pre-filter (<0.5% error at these ranges) with a
    // 1% safety margin before the exact haversine check.
    if (geo::EquirectangularMeters(pos, center) > prefilter_m_) continue;
    const double d = geo::HaversineMeters(pos, center);
    if (d <= radius_m_ && d < best) {
      best = d;
      best_idx = i;
    }
  }
  return best_idx;
}

std::optional<size_t> AssignToArea(const geo::LatLon& pos,
                                   const std::vector<census::Area>& areas,
                                   double radius_m) {
  return AreaAssigner(areas, radius_m).Assign(pos);
}

Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const std::vector<census::Area>& areas,
                              double radius_m, ThreadPool& pool,
                              ExtractionStats* stats, const TripOptions& options) {
  if (areas.empty()) {
    return Status::InvalidArgument("ExtractTrips requires at least one area");
  }
  if (!(radius_m > 0.0)) {
    return Status::InvalidArgument("ExtractTrips requires a positive radius");
  }
  if (options.max_gap_seconds < 0) {
    return Status::InvalidArgument("ExtractTrips requires max_gap_seconds >= 0");
  }
  if (!dataset.sorted_by_user_time() || !dataset.fully_sealed()) {
    return Status::FailedPrecondition(
        "ExtractTrips requires every shard compacted by (user, time); call "
        "CompactShards() first");
  }

  // Unit boundaries: the users at every block start and every
  // kTripUnitRows-th row of every shard, ascending and distinct. Unit u
  // covers users [cuts[u], cuts[u + 1]); the last unit is open-ended.
  const size_t num_shards = dataset.num_shards();
  std::vector<uint64_t> cuts;
  for (size_t s = 0; s < num_shards; ++s) {
    const tweetdb::TweetTable& table = dataset.shard(s);
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      const tweetdb::Block& block = table.block(b);
      for (size_t r = 0; r < block.num_rows(); r += kTripUnitRows) {
        cuts.push_back(block.user_ids()[r]);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<std::unique_ptr<OdMatrix>> partial(cuts.size());
  std::vector<ExtractionStats> partial_stats(cuts.size());
  pool.ParallelFor(cuts.size(), [&](size_t u) {
    std::vector<ShardCursor> cursors;
    cursors.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const tweetdb::TweetTable& table = dataset.shard(s);
      const std::pair<size_t, size_t> end =
          u + 1 < cuts.size() ? table.LowerBoundUser(cuts[u + 1])
                              : std::pair<size_t, size_t>{table.num_blocks(), 0};
      cursors.emplace_back(table, table.LowerBoundUser(cuts[u]), end);
    }
    auto od = OdMatrix::Create(areas.size());  // cannot fail: areas validated
    TripAccumulator acc(areas, radius_m, options, &*od);
    while (true) {
      // The smallest user left in any shard; their runs feed in shard-key
      // order, which is their global time order.
      bool any = false;
      uint64_t user = 0;
      for (const ShardCursor& c : cursors) {
        if (c.done()) continue;
        if (!any || c.user() < user) user = c.user();
        any = true;
      }
      if (!any) break;
      for (ShardCursor& c : cursors) {
        if (!c.done() && c.user() == user) c.FeedRun(acc);
      }
    }
    partial_stats[u] = acc.stats();
    partial[u] = std::make_unique<OdMatrix>(std::move(*od));
  });

  // Ordered merge in unit order — identical totals for any thread count.
  auto merged = OdMatrix::Create(areas.size());
  if (!merged.ok()) return merged.status();
  ExtractionStats total;
  const size_t n = areas.size();
  for (size_t u = 0; u < cuts.size(); ++u) {
    MergeStats(partial_stats[u], &total);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double flow = partial[u]->Flow(i, j);
        if (flow > 0.0) merged->AddFlow(i, j, flow);
      }
    }
  }
  if (stats != nullptr) *stats = total;
  return std::move(*merged);
}

}  // namespace twimob::mobility
