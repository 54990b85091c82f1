#include "mobility/trip_extractor.h"

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "geo/geodesic.h"
#include "tweetdb/query.h"

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

/// Feeds `user`'s rows of `table` starting at (block, row) into `acc`,
/// following the run across block boundaries until the user changes.
void FeedRun(const tweetdb::TweetTable& table, size_t block, size_t row,
             uint64_t user, TripAccumulator& acc) {
  for (size_t b = block; b < table.num_blocks(); ++b) {
    const tweetdb::Block& blk = table.block(b);
    const size_t begin = (b == block ? row : 0);
    const size_t end = UserRunEnd(blk, begin, user);
    FeedBlockRows(blk, begin, end, acc);
    if (end < blk.num_rows()) return;  // the run ended inside this block
  }
}

/// True iff `user` has at least one row in the compacted `table`.
bool ContainsUser(const tweetdb::TweetTable& table, uint64_t user) {
  const auto [b, r] = table.LowerBoundUser(user);
  return b < table.num_blocks() && table.block(b).user_ids()[r] == user;
}

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

  // Fixed chunking by (shard, block) in shard-key-major order.
  const size_t num_shards = dataset.num_shards();
  const std::vector<std::pair<size_t, size_t>> chunks =
      tweetdb::DatasetBlockMap(dataset);

  std::vector<std::unique_ptr<OdMatrix>> partial(chunks.size());
  std::vector<ExtractionStats> partial_stats(chunks.size());

  pool.ParallelFor(chunks.size(), [&](size_t g) {
    const auto [s, b] = chunks[g];
    const tweetdb::TweetTable& table = dataset.shard(s);
    const tweetdb::Block& block = table.block(b);
    const size_t rows = block.num_rows();
    if (rows == 0) return;
    const uint64_t* users = block.user_ids().data();

    // Head rows continuing the previous non-empty block's last run belong
    // to that run's owner within this shard.
    size_t start = 0;
    for (size_t pb = b; pb-- > 0;) {
      const tweetdb::Block& prev = table.block(pb);
      if (prev.num_rows() == 0) continue;
      start = UserRunEnd(block, 0, prev.user_ids().back());
      break;
    }
    if (start == rows) return;

    auto od = OdMatrix::Create(areas.size());  // cannot fail: areas validated
    TripAccumulator acc(areas, radius_m, options, &*od);
    bool fed_any = false;
    size_t i = start;
    while (i < rows) {
      const uint64_t user = users[i];
      // This chunk owns the run iff the user appears in no earlier shard
      // (time partitioning puts a user's earliest rows in their first
      // shard, which is where their global run starts).
      bool owned = true;
      for (size_t ps = 0; ps < s; ++ps) {
        if (ContainsUser(dataset.shard(ps), user)) {
          owned = false;
          break;
        }
      }
      if (owned) {
        FeedRun(table, b, i, user, acc);
        for (size_t ns = s + 1; ns < num_shards; ++ns) {
          const tweetdb::TweetTable& next = dataset.shard(ns);
          const auto [nb, nr] = next.LowerBoundUser(user);
          if (nb < next.num_blocks() && next.block(nb).user_ids()[nr] == user) {
            FeedRun(next, nb, nr, user, acc);
          }
        }
        fed_any = true;
      }
      i = UserRunEnd(block, i, user);
    }
    if (!fed_any) return;

    partial_stats[g] = acc.stats();
    partial[g] = std::make_unique<OdMatrix>(std::move(*od));
  });

  // Ordered merge in global (shard, block) order — identical totals for
  // any thread count.
  auto merged = OdMatrix::Create(areas.size());
  if (!merged.ok()) return merged.status();
  ExtractionStats total;
  const size_t n = areas.size();
  for (size_t g = 0; g < chunks.size(); ++g) {
    MergeStats(partial_stats[g], &total);
    if (partial[g] == nullptr) continue;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double flow = partial[g]->Flow(i, j);
        if (flow > 0.0) merged->AddFlow(i, j, flow);
      }
    }
  }
  if (stats != nullptr) *stats = total;
  return std::move(*merged);
}

}  // namespace twimob::mobility
