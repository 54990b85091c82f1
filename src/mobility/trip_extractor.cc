#include "mobility/trip_extractor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "geo/geodesic.h"

namespace twimob::mobility {

namespace {

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
/// them; the cursor caches its current block.
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
  /// Caches block_, which holds row_ unless the cursor is past the end
  /// (blocks are never empty).
  void LoadBlock() {
    if (block_ < table_.num_blocks()) current_ = &table_.block(block_);
  }

  const tweetdb::TweetTable& table_;
  size_t block_;
  size_t row_;
  std::pair<size_t, size_t> end_;
  const tweetdb::Block* current_ = nullptr;
};

/// HaversineMeters(a, b) with cos(a.lat * kDegToRad) and
/// cos(b.lat * kDegToRad) passed in: the scalar formula's operations in its
/// order, so the result is the same bits.
double HaversineWithCos(const geo::LatLon& a, double cos_lat_a, const geo::LatLon& b,
                        double cos_lat_b) {
  const double dlat = (b.lat - a.lat) * geo::kDegToRad;
  const double dlon = (b.lon - a.lon) * geo::kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat + cos_lat_a * cos_lat_b * sin_dlon * sin_dlon;
  return 2.0 * geo::kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace

AreaAssigner::AreaAssigner(const std::vector<census::Area>& areas, double radius_m)
    : radius_m_(radius_m),
      prefilter_m_(radius_m * 1.01),
      lat_band_deg_(radius_m / geo::MetersPerDegreeLat() * (1.0 + 1e-9)) {
  lats_.reserve(areas.size());
  lons_.reserve(areas.size());
  cos_lats_.reserve(areas.size());
  for (const census::Area& a : areas) {
    lats_.push_back(a.center.lat);
    lons_.push_back(a.center.lon);
    cos_lats_.push_back(std::cos(a.center.lat * geo::kDegToRad));
  }
  BuildGrid();
}

void AreaAssigner::BuildGrid() {
  // Relative and absolute (degrees) slack on every bound below, far above
  // the rounding of the tests they cover: a grid too generous costs a
  // test, never an answer.
  constexpr double kSlack = 1e-6;
  constexpr double kSlackDeg = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Where the prefilter is redundant. With Δφ, Δλ the coordinate
  // differences and φm the mean latitude (radians), a the central angle
  // and E the equirectangular distance, haversine reads
  //   sin²(a/2) = sin²(Δφ/2)·(1 − sin²(Δλ/2)) + cos²φm·sin²(Δλ/2)
  // (cos φ1·cos φ2 = cos²φm − sin²(Δφ/2)). With x²(1 − x²/3) <= sin²x <= x²
  // and a >= 2·sin(a/2), a² >= k·(Δφ² + cos²φm·Δλ²) = k·(E/R)² where
  // k = 1 − Δφ²/12 − Δλ²/4. For |Δφ|, |Δλ| <= 0.2 rad, k >= 0.9866 and
  // E <= 1.0068·a·R: a haversine accept (a·R <= ε) implies E <= 1.0068·ε,
  // which the prefilter (1.01·ε) accepts. So when the band and every
  // centre's longitude reject bound the differences by kPrefilterFreeDeg
  // (< 0.2 rad), skipping the prefilter changes no answer; rounding
  // (1e-15 relative, nanometres absolute) stays far inside the 0.3% left
  // over for any radius of a metre or more.
  constexpr double kPrefilterFreeDeg = 11.0;
  skip_prefilter_ = lat_band_deg_ <= kPrefilterFreeDeg && radius_m_ >= 1.0;

  // Where a lone candidate needs no distance. Haversine also gives
  // sin²(a/2) <= (Δφ/2)² + cos²φm·(Δλ/2)² <= q/4 for q = Δφ² + c²·Δλ² with
  // any c >= |cos φm|, and for q <= 0.02² asin's series gives
  // a <= sqrt(q)·(1 + q/20). So with ε/R <= 0.02, q <= (ε/R)²·(1 − 1e-4)
  // puts the true distance below ε·(1 − 3e-5), far outside rounding: the
  // haversine test accepts, and so (skip_prefilter_) does the prefilter.
  // When that candidate is the only one passing the band and the
  // prefilter's longitude reject, it is the answer.
  const double eps_rad = radius_m_ / geo::kEarthRadiusMeters;
  certain_q_ = skip_prefilter_ && eps_rad <= 0.02 ? eps_rad * eps_rad * (1.0 - 1e-4) : -1.0;

  // Each centre's acceptance box. The lat band accepts only points within
  // lat_band_deg_ of the centre. The equirectangular distance is at least
  // R·|Δlon|·cos(mean lat), and over the band |mean lat| <= |lat| + band/2,
  // so the prefilter accepts only |Δlon| <= prefilter / (R·cos of that).
  // A bound that is not finite (a band reaching a pole, a NaN radius)
  // leaves that dimension unbounded; a centre with a non-finite coordinate
  // can pass no haversine test and is listed nowhere.
  struct Box {
    double lat_lo, lat_hi, lon_lo, lon_hi;
  };
  const double band = lat_band_deg_ * (1.0 + kSlack) + kSlackDeg;
  const bool lat_bounded = band < 90.0;
  bool lon_bounded = true;
  std::vector<Box> boxes(lats_.size());
  std::vector<bool> listed(lats_.size(), false);
  half_lons_.assign(lats_.size(), kInf);
  lat_lo_ = lon_lo_ = kInf;
  lat_hi_ = lon_hi_ = -kInf;
  for (size_t i = 0; i < lats_.size(); ++i) {
    if (!std::isfinite(lats_[i]) || !std::isfinite(lons_[i])) continue;
    listed[i] = true;
    const double worst_lat = std::min(90.0, std::fabs(lats_[i]) + 0.5 * band);
    const double half_lon =
        prefilter_m_ /
        (geo::kEarthRadiusMeters * geo::kDegToRad * std::cos(worst_lat * geo::kDegToRad)) *
            (1.0 + kSlack) +
        kSlackDeg;
    if (!(half_lon < 360.0)) lon_bounded = false;
    half_lons_[i] = half_lon;
    if (!(half_lon <= kPrefilterFreeDeg)) skip_prefilter_ = false;
    boxes[i] = Box{lats_[i] - band, lats_[i] + band, lons_[i] - half_lon,
                   lons_[i] + half_lon};
    lat_lo_ = std::min(lat_lo_, boxes[i].lat_lo);
    lat_hi_ = std::max(lat_hi_, boxes[i].lat_hi);
    lon_lo_ = std::min(lon_lo_, boxes[i].lon_lo);
    lon_hi_ = std::max(lon_hi_, boxes[i].lon_hi);
  }
  if (!lat_bounded) {
    lat_lo_ = -kInf;
    lat_hi_ = kInf;
  }
  if (!lon_bounded) {
    lon_lo_ = -kInf;
    lon_hi_ = kInf;
  }

  // Cells of edge 2× the band, doubled until the grid fits its caps.
  double cell = 2.0 * band;
  auto cells_along = [&cell](double lo, double hi) -> size_t {
    if (!(hi - lo < kInf) || !(cell < kInf)) return 1;  // unbounded or empty
    const double n = std::ceil((hi - lo) / cell);
    if (!(n >= 1.0)) return 1;
    return n > static_cast<double>(kMaxAssignerGridCells)
               ? kMaxAssignerGridCells + 1
               : static_cast<size_t>(n);
  };
  // Cell range [first, last] along one dimension that a centre's [lo, hi]
  // touches, with every cell widened on both sides for the rounding of
  // Assign's cell index.
  auto touched = [&cell](double lo, double hi, double origin,
                         size_t n) -> std::pair<size_t, size_t> {
    if (n == 1) return {0, 0};
    const double margin = kSlack * cell + kSlackDeg;
    const double first = std::floor((lo - margin - origin) / cell);
    const double last = std::floor((hi + margin - origin) / cell);
    const double top = static_cast<double>(n - 1);
    return {static_cast<size_t>(std::clamp(first, 0.0, top)),
            static_cast<size_t>(std::clamp(last, 0.0, top))};
  };
  while (true) {
    nx_ = cells_along(lon_lo_, lon_hi_);
    ny_ = cells_along(lat_lo_, lat_hi_);
    if (nx_ * ny_ > kMaxAssignerGridCells) {
      cell *= 2.0;
      continue;
    }
    cell_begin_.assign(nx_ * ny_ + 1, 0);
    candidates_.clear();
    // Count, prefix-sum, then fill in ascending centre order so each
    // cell's list is in index order.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < lats_.size(); ++i) {
        if (!listed[i]) continue;
        const auto [y0, y1] = touched(boxes[i].lat_lo, boxes[i].lat_hi, lat_lo_, ny_);
        const auto [x0, x1] = touched(boxes[i].lon_lo, boxes[i].lon_hi, lon_lo_, nx_);
        for (size_t y = y0; y <= y1; ++y) {
          for (size_t x = x0; x <= x1; ++x) {
            const size_t c = y * nx_ + x;
            if (pass == 0) {
              ++cell_begin_[c + 1];
            } else {
              candidates_[cell_begin_[c]++] = static_cast<uint32_t>(i);
            }
          }
        }
      }
      if (pass == 0) {
        for (size_t c = 0; c < nx_ * ny_; ++c) cell_begin_[c + 1] += cell_begin_[c];
        candidates_.resize(cell_begin_.back());
      } else {
        // The fill advanced every begin to its cell's end; shift back.
        for (size_t c = nx_ * ny_; c > 0; --c) cell_begin_[c] = cell_begin_[c - 1];
        cell_begin_[0] = 0;
      }
    }
    if (grid_bytes() <= kMaxAssignerGridBytes || nx_ * ny_ == 1) break;
    cell *= 2.0;
  }
  inv_cell_ = 1.0 / cell;
}

std::optional<size_t> AreaAssigner::Assign(const geo::LatLon& pos) const {
  // No centre's band or prefilter accepts a point outside the box; the
  // negated form also rejects a NaN coordinate, which no haversine test
  // would accept either.
  if (!(pos.lat >= lat_lo_ && pos.lat <= lat_hi_ && pos.lon >= lon_lo_ &&
        pos.lon <= lon_hi_)) {
    return std::nullopt;
  }
  const size_t y =
      ny_ == 1 ? 0 : std::min(ny_ - 1, static_cast<size_t>((pos.lat - lat_lo_) * inv_cell_));
  const size_t x =
      nx_ == 1 ? 0 : std::min(nx_ - 1, static_cast<size_t>((pos.lon - lon_lo_) * inv_cell_));
  const size_t c = y * nx_ + x;
  const uint32_t end = cell_begin_[c + 1];
  // Exact reject: great-circle distance is at least the meridian leg, so a
  // centre more than radius/MetersPerDegreeLat degrees of latitude away can
  // never pass the haversine test (the 1e-9 slack absorbs rounding). Then
  // the longitude reject the equirectangular prefilter implies.
  const auto in_bounds = [this, &pos](size_t i) {
    return !(std::fabs(lats_[i] - pos.lat) > lat_band_deg_) &&
           !(std::fabs(pos.lon - lons_[i]) > half_lons_[i]);
  };
  uint32_t first = end;
  size_t survivors = 0;
  for (uint32_t k = cell_begin_[c]; k < end; ++k) {
    if (!in_bounds(candidates_[k])) continue;
    if (survivors++ == 0) first = k;
  }
  if (survivors == 0) return std::nullopt;
  const double cos_lat = std::cos(pos.lat * geo::kDegToRad);

  // A lone survivor certainly within ε needs no distance (bound in
  // BuildGrid). cos is monotone over one hemisphere, so the larger of the
  // two cosines bounds |cos φm| there; across the equator 1 does.
  if (survivors == 1) {
    const size_t i = candidates_[first];
    const double dphi = (lats_[i] - pos.lat) * geo::kDegToRad;
    const double dlam = (lons_[i] - pos.lon) * geo::kDegToRad;
    const bool one_hemisphere = (pos.lat >= 0.0) == (lats_[i] >= 0.0) &&
                                std::fabs(pos.lat) <= 90.0 && std::fabs(lats_[i]) <= 90.0;
    const double cos_bound = one_hemisphere ? std::max(cos_lat, cos_lats_[i]) : 1.0;
    if (dphi * dphi + cos_bound * cos_bound * dlam * dlam <= certain_q_) return i;
  }

  double best = std::numeric_limits<double>::infinity();
  std::optional<size_t> best_idx;
  for (uint32_t k = first; k < end; ++k) {
    const size_t i = candidates_[k];
    if (!in_bounds(i)) continue;
    // Cheap equirectangular pre-filter (<0.5% error at these ranges) with a
    // 1% safety margin before the exact haversine check, where a haversine
    // accept does not imply it (see BuildGrid).
    const geo::LatLon center{lats_[i], lons_[i]};
    if (!skip_prefilter_ && geo::EquirectangularMeters(pos, center) > prefilter_m_) {
      continue;
    }
    const double d = HaversineWithCos(pos, cos_lat, center, cos_lats_[i]);
    if (d <= radius_m_ && d < best) {
      best = d;
      best_idx = i;
    }
  }
  return best_idx;
}

Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const std::vector<census::Area>& areas,
                              double radius_m, ThreadPool& pool,
                              ExtractionStats* stats, const TripOptions& options) {
  // One assigner for the scale, shared read-only by every unit.
  return ExtractTrips(dataset, AreaAssigner(areas, radius_m), pool, stats, options);
}

Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const AreaAssigner& assigner, ThreadPool& pool,
                              ExtractionStats* stats, const TripOptions& options) {
  if (assigner.num_areas() == 0) {
    return Status::InvalidArgument("ExtractTrips requires at least one area");
  }
  if (!(assigner.radius_m() > 0.0)) {
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

  const size_t n = assigner.num_areas();
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
    auto od = OdMatrix::Create(n);  // cannot fail: n > 0
    TripAccumulator acc(assigner, options, &*od);
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
  auto merged = OdMatrix::Create(n);
  if (!merged.ok()) return merged.status();
  ExtractionStats total;
  for (size_t u = 0; u < cuts.size(); ++u) {
    total += partial_stats[u];
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

void GatherUserRows(uint64_t user,
                    const std::vector<const tweetdb::TweetDataset*>& layers,
                    std::vector<tweetdb::Tweet>* rows) {
  // Every layer's shards, by partition key; the cursors walk them in step.
  std::vector<size_t> next(layers.size(), 0);
  while (true) {
    bool any = false;
    int64_t key = 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      if (next[l] == layers[l]->num_shards()) continue;
      const int64_t k = layers[l]->shard_key(next[l]);
      if (!any || k < key) key = k;
      any = true;
    }
    if (!any) return;
    const size_t first = rows->size();
    for (size_t l = 0; l < layers.size(); ++l) {
      if (next[l] == layers[l]->num_shards() ||
          layers[l]->shard_key(next[l]) != key) {
        continue;
      }
      const tweetdb::TweetTable& table = layers[l]->shard(next[l]++);
      const size_t run_begin = rows->size();
      for (auto [b, r] = table.LowerBoundUser(user); b < table.num_blocks();
           ++b, r = 0) {
        const tweetdb::Block& block = table.block(b);
        const size_t end = UserRunEnd(block, r, user);
        for (size_t i = r; i < end; ++i) rows->push_back(block.GetRow(i));
        if (end < block.num_rows()) break;
      }
      // Each layer's run is already in order; merge it into the shard's.
      std::inplace_merge(rows->begin() + first, rows->begin() + run_begin,
                         rows->end(), tweetdb::UserTimeLess);
    }
  }
}

}  // namespace twimob::mobility
