#include "mobility/trip_extractor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "geo/disc_certificate.h"
#include "geo/geodesic.h"

namespace twimob::mobility {

namespace {

// Relative and absolute (degrees) slack on every bound of the candidate
// grid and the verdicts, far above the rounding of the tests they cover: a
// grid too generous costs a test, never an answer.
constexpr double kSlack = 1e-6;
constexpr double kSlackDeg = 1e-9;
/// Deepest verdict refinement (a cell split 2^10 ways per side): far below
/// any depth the byte cap admits, it keeps the table-size arithmetic far
/// from overflow for any cell and radius.
constexpr int kMaxVerdictDepth = 10;

/// Feeds rows [begin, end) of `block` into every accumulator straight from
/// the column vectors, decoding each row's coordinates once — the decode
/// matches Block::GetRow bit for bit.
void FeedBlockRows(const tweetdb::Block& block, size_t begin, size_t end,
                   std::span<TripAccumulator> accs) {
  const uint64_t* users = block.user_ids().data();
  const int64_t* times = block.timestamps().data();
  const int32_t* lats = block.lat_fixed().data();
  const int32_t* lons = block.lon_fixed().data();
  for (size_t i = begin; i < end; ++i) {
    const geo::LatLon pos{geo::FixedToDegrees(lats[i]), geo::FixedToDegrees(lons[i])};
    for (TripAccumulator& acc : accs) acc.Process(users[i], times[i], pos);
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

  /// Feeds the current user's run into every accumulator, across block
  /// boundaries, and steps past it. A run never crosses the end position:
  /// the row there belongs to the next unit's first user.
  void FeedRun(std::span<TripAccumulator> accs) {
    const uint64_t run_user = user();
    do {
      const size_t end = UserRunEnd(*current_, row_, run_user);
      FeedBlockRows(*current_, row_, end, accs);
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

AreaAssigner::AreaAssigner(const std::vector<census::Area>& areas, double radius_m,
                           ThreadPool* pool)
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
  BuildVerdicts(pool);
}

void AreaAssigner::BuildGrid() {
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
  cell_deg_ = cell;
  inv_cell_ = 1.0 / cell;
}

geo::BoundingBox AreaAssigner::LeafBox(size_t y, size_t x, int level, size_t j,
                                       size_t i) const {
  const double sub = cell_deg_ / static_cast<double>(size_t{1} << level);
  const double lat = lat_lo_ + static_cast<double>(y) * cell_deg_ + static_cast<double>(j) * sub;
  const double lon = lon_lo_ + static_cast<double>(x) * cell_deg_ + static_cast<double>(i) * sub;
  return geo::BoundingBox{lat, lon, lat + sub, lon + sub};
}

void AreaAssigner::BuildVerdicts(ThreadPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  // Verdicts only where Assign's rule is pure haversine over a bounded
  // grid: elsewhere the prefilter could reject a point the certificate
  // proves within ε.
  if (!skip_prefilter_ || !std::isfinite(lat_lo_) || !std::isfinite(lat_hi_) ||
      !std::isfinite(lon_lo_) || !std::isfinite(lon_hi_) || lats_.size() >= kNone ||
      nx_ * ny_ * sizeof(uint32_t) > kMaxAssignerGridBytes) {
    return;
  }
  std::vector<geo::DiscCertificate> discs;
  discs.reserve(lats_.size());
  for (size_t i = 0; i < lats_.size(); ++i) {
    discs.emplace_back(geo::LatLon{lats_[i], lons_[i]}, radius_m_);
  }
  // Every box is widened by the rounding margin of Assign's cell index, as
  // the candidate lists are: a point whose index lands in a box lies in
  // the widened box.
  const double margin = kSlack * cell_deg_ + kSlackDeg;
  // Classifies a box against candidates, appending to `reach` those not
  // proved beyond it; returns the box's code (kTest: undecided).
  const auto decide = [&](geo::BoundingBox box, std::span<const uint32_t> cand,
                          std::vector<uint32_t>& reach) -> uint32_t {
    box.min_lat -= margin;
    box.min_lon -= margin;
    box.max_lat += margin;
    box.max_lon += margin;
    const size_t first = reach.size();
    bool inside = false;
    for (const uint32_t i : cand) {
      const geo::BoxDisc v = discs[i].Classify(box);
      if (v == geo::BoxDisc::kOutside) continue;
      reach.push_back(i);
      inside = v == geo::BoxDisc::kInside;
    }
    if (reach.size() == first) return kNone;
    if (reach.size() == first + 1 && inside) return reach[first];
    return kTest;
  };

  // Cells first; the undecided ones get a table each, as deep as the byte
  // cap allows (down to the leaf edge).
  roots_.assign(nx_ * ny_, kNone);
  std::vector<size_t> refine;                  // the undecided cells
  std::vector<std::vector<uint32_t>> reaches;  // their candidates that reach
  AssignerVerdictStats& stats = verdict_stats_;
  for (size_t c = 0; c < roots_.size(); ++c) {
    const std::span<const uint32_t> cand(candidates_.data() + cell_begin_[c],
                                         cell_begin_[c + 1] - cell_begin_[c]);
    if (cand.empty()) continue;
    std::vector<uint32_t> reach;
    roots_[c] = decide(LeafBox(c / nx_, c % nx_, 0, 0, 0), cand, reach);
    if (roots_[c] != kTest) {
      ++(roots_[c] == kNone ? stats.empty_leaves : stats.area_leaves);
    } else {
      refine.push_back(c);
      reaches.push_back(std::move(reach));
    }
  }
  const double leaf_deg = std::min(kVerdictLeafDeg, lat_band_deg_ / 4.0);
  while (depth_ < kMaxVerdictDepth &&
         cell_deg_ / static_cast<double>(size_t{1} << depth_) > leaf_deg) {
    ++depth_;
  }
  const auto table_bytes = [&](int depth) {
    return refine.size() * (size_t{1} << (2 * depth)) * sizeof(uint8_t);
  };
  while (depth_ > 0 && roots_.size() * sizeof(uint32_t) + table_bytes(depth_) >
                           kMaxAssignerGridBytes) {
    --depth_;
  }
  side_ = size_t{1} << depth_;
  if (depth_ == 0) {
    stats.test_leaves += refine.size();
    refine.clear();
  }
  const size_t table = side_ * side_;
  leaves_.assign(refine.size() * table, static_cast<uint8_t>(kTest));

  // Each undecided cell refines on its own: quadrant by quadrant, each
  // decided box filling its block of the cell's table.
  std::vector<AssignerVerdictStats> cell_stats(refine.size());
  const auto refine_cell = [&](size_t t) {
    const size_t c = refine[t];
    uint8_t* cells = leaves_.data() + t * table;
    AssignerVerdictStats& counts = cell_stats[t];
    std::vector<std::vector<uint32_t>> scratch(depth_ + 1);
    const std::function<void(int, size_t, size_t, std::span<const uint32_t>)> split =
        [&](int level, size_t j, size_t i, std::span<const uint32_t> cand) {
          std::vector<uint32_t>& reach = scratch[level + 1];
          for (size_t q = 0; q < 4; ++q) {
            const size_t cj = 2 * j + (q >> 1);
            const size_t ci = 2 * i + (q & 1);
            reach.clear();
            const uint32_t code = decide(LeafBox(c / nx_, c % nx_, level + 1, cj, ci), cand, reach);
            if (code == kTest && level + 1 < depth_) {
              split(level + 1, cj, ci, reach);
              continue;
            }
            ++(code == kTest ? counts.test_leaves
                             : code == kNone ? counts.empty_leaves : counts.area_leaves);
            const size_t block = side_ >> (level + 1);
            for (size_t r = cj * block; r < (cj + 1) * block; ++r) {
              std::fill_n(cells + r * side_ + ci * block, block, static_cast<uint8_t>(code));
            }
          }
        };
    split(0, 0, 0, reaches[t]);
    roots_[c] = kTableBase + static_cast<uint32_t>(t * table);
  };
  if (pool != nullptr) {
    pool->ParallelFor(refine.size(), refine_cell);
  } else {
    for (size_t t = 0; t < refine.size(); ++t) refine_cell(t);
  }
  for (const AssignerVerdictStats& counts : cell_stats) {
    stats.area_leaves += counts.area_leaves;
    stats.empty_leaves += counts.empty_leaves;
    stats.test_leaves += counts.test_leaves;
  }
  stats.bytes = roots_.size() * sizeof(uint32_t) + leaves_.size() * sizeof(uint8_t);
  stats.build_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

void AreaAssigner::ForEachDecidedLeaf(
    const std::function<void(const geo::BoundingBox&, std::optional<size_t>)>& fn) const {
  const auto emit = [&](size_t c, int level, size_t j, size_t i, uint32_t code) {
    fn(LeafBox(c / nx_, c % nx_, level, j, i),
       code == kNone ? std::nullopt : std::optional<size_t>(code));
  };
  for (size_t c = 0; c < roots_.size(); ++c) {
    if (cell_begin_[c] == cell_begin_[c + 1]) continue;
    if (roots_[c] < kTableBase) {
      if (roots_[c] != kTest) emit(c, 0, 0, 0, roots_[c]);
      continue;
    }
    // The table's largest uniform quadtree blocks.
    const uint8_t* cells = leaves_.data() + (roots_[c] - kTableBase);
    const std::function<void(int, size_t, size_t)> visit = [&](int level, size_t j,
                                                                size_t i) {
      const size_t block = side_ >> level;
      const uint8_t code = cells[j * block * side_ + i * block];
      bool uniform = true;
      for (size_t r = j * block; r < (j + 1) * block && uniform; ++r) {
        for (size_t k = i * block; k < (i + 1) * block; ++k) {
          uniform = uniform && cells[r * side_ + k] == code;
        }
      }
      if (uniform) {
        if (code != kTest) emit(c, level, j, i, code);
        return;
      }
      for (size_t q = 0; q < 4; ++q) visit(level + 1, 2 * j + (q >> 1), 2 * i + (q & 1));
    };
    visit(0, 0, 0);
  }
}

std::optional<size_t> AreaAssigner::AssignInCell(const geo::LatLon& pos, size_t c) const {
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
  return ExtractTrips(dataset, AreaAssigner(areas, radius_m), pool, stats, options);
}

Result<OdMatrix> ExtractTrips(const tweetdb::TweetDataset& dataset,
                              const AreaAssigner& assigner, ThreadPool& pool,
                              ExtractionStats* stats, const TripOptions& options) {
  std::vector<ExtractionStats> one_stats;
  auto ods = ExtractTrips(dataset, std::span<const AreaAssigner>(&assigner, 1), pool,
                          &one_stats, options);
  if (!ods.ok()) return ods.status();
  if (stats != nullptr) *stats = one_stats[0];
  return std::move((*ods)[0]);
}

Result<std::vector<OdMatrix>> ExtractTrips(const tweetdb::TweetDataset& dataset,
                                           std::span<const AreaAssigner> assigners,
                                           ThreadPool& pool,
                                           std::vector<ExtractionStats>* stats,
                                           const TripOptions& options) {
  if (assigners.empty()) {
    return Status::InvalidArgument("ExtractTrips requires at least one assigner");
  }
  for (const AreaAssigner& assigner : assigners) {
    if (assigner.num_areas() == 0) {
      return Status::InvalidArgument("ExtractTrips requires at least one area");
    }
    if (!(assigner.radius_m() > 0.0)) {
      return Status::InvalidArgument("ExtractTrips requires a positive radius");
    }
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

  // Per unit and scale, the nonzero flows as (row-major cell, flow) — a
  // unit holds a few trips, so its dense matrices are dropped as it ends —
  // and the counters.
  const size_t num_scales = assigners.size();
  std::vector<std::vector<std::vector<std::pair<size_t, double>>>> partial(cuts.size());
  std::vector<std::vector<ExtractionStats>> partial_stats(cuts.size());
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
    std::vector<OdMatrix> ods;
    ods.reserve(num_scales);
    for (const AreaAssigner& assigner : assigners) {
      ods.push_back(*OdMatrix::Create(assigner.num_areas()));  // cannot fail: n > 0
    }
    std::vector<TripAccumulator> accs;
    accs.reserve(num_scales);
    for (size_t s = 0; s < num_scales; ++s) accs.emplace_back(assigners[s], options, &ods[s]);
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
        if (!c.done() && c.user() == user) c.FeedRun(accs);
      }
    }
    for (size_t s = 0; s < num_scales; ++s) {
      partial_stats[u].push_back(accs[s].stats());
      std::vector<std::pair<size_t, double>>& flows = partial[u].emplace_back();
      const size_t n = assigners[s].num_areas();
      for (size_t k = 0; k < n * n; ++k) {
        const double flow = ods[s].Flow(k / n, k % n);
        if (flow > 0.0) flows.emplace_back(k, flow);
      }
    }
  });

  // Ordered merge in unit order — identical totals for any thread count.
  std::vector<OdMatrix> merged;
  std::vector<ExtractionStats> totals(num_scales);
  for (size_t s = 0; s < num_scales; ++s) {
    const size_t n = assigners[s].num_areas();
    merged.push_back(*OdMatrix::Create(n));
    for (size_t u = 0; u < cuts.size(); ++u) {
      totals[s] += partial_stats[u][s];
      for (const auto& [k, flow] : partial[u][s]) merged[s].AddFlow(k / n, k % n, flow);
    }
  }
  if (stats != nullptr) *stats = std::move(totals);
  return merged;
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
