#include "tweetdb/query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "tweetdb/filter_kernels.h"

namespace twimob::tweetdb {
namespace {

/// Smallest fixed-point value v (over the widened int64 domain) with
/// FixedToDegrees(v) >= deg — i.e. double(v) / kFixedPointScale >= deg,
/// which is monotone in v. Values outside the int32 column domain clamp to
/// a bound that keeps the comparison exact: everything below the domain
/// passes, everything above fails. `deg` must be finite.
int64_t FirstFixedAtLeast(double deg) {
  constexpr int64_t kLo = std::numeric_limits<int32_t>::min();
  constexpr int64_t kHi = std::numeric_limits<int32_t>::max();
  if (deg <= static_cast<double>(kLo) / geo::kFixedPointScale) return kLo;
  if (deg > static_cast<double>(kHi) / geo::kFixedPointScale) return kHi + 1;
  // floor can land 1 ulp off; walk the last step exactly.
  int64_t v = static_cast<int64_t>(std::floor(deg * geo::kFixedPointScale)) - 1;
  while (static_cast<double>(v) / geo::kFixedPointScale < deg) ++v;
  return v;
}

/// Largest fixed-point value v with FixedToDegrees(v) <= deg; mirror of
/// FirstFixedAtLeast.
int64_t LastFixedAtMost(double deg) {
  constexpr int64_t kLo = std::numeric_limits<int32_t>::min();
  constexpr int64_t kHi = std::numeric_limits<int32_t>::max();
  if (deg >= static_cast<double>(kHi) / geo::kFixedPointScale) return kHi;
  if (deg < static_cast<double>(kLo) / geo::kFixedPointScale) return kLo - 1;
  int64_t v = static_cast<int64_t>(std::ceil(deg * geo::kFixedPointScale)) + 1;
  while (static_cast<double>(v) / geo::kFixedPointScale > deg) --v;
  return v;
}

}  // namespace

bool ScanSpec::Matches(const Tweet& t) const {
  if (user_id.has_value() && t.user_id != *user_id) return false;
  if (min_time.has_value() && t.timestamp < *min_time) return false;
  if (max_time.has_value() && t.timestamp >= *max_time) return false;
  if (bbox.has_value() && !bbox->Contains(t.pos)) return false;
  return true;
}

bool ScanSpec::MayMatchBlock(const BlockStats& stats) const {
  if (stats.num_rows == 0) return false;
  if (user_id.has_value() &&
      (*user_id < stats.min_user || *user_id > stats.max_user)) {
    return false;
  }
  if (min_time.has_value() && stats.max_time < *min_time) return false;
  if (max_time.has_value() && stats.min_time >= *max_time) return false;
  if (bbox.has_value() && !bbox->Intersects(stats.bbox)) return false;
  return true;
}

namespace {

/// Shared body of FilterBlockColumnar / FilterBlockColumnarScalar: the
/// first active predicate seeds the selection from all rows through a
/// kernel from `kernels`; later predicates compact the survivors in place
/// with scalar refine passes (gather-indexed, so there is nothing
/// contiguous to vectorize — and the seed pass over all n rows is where
/// the time goes). Ascending row order is preserved, so gathers fire in
/// the same order as the row-at-a-time scan.
void FilterBlockColumnarImpl(const Block& block, const ScanSpec& spec,
                             std::vector<uint32_t>* sel,
                             const filter_internal::FilterKernels& kernels) {
  sel->clear();
  const size_t n = block.num_rows();
  bool seeded = false;
  const auto refine = [&](auto&& pred) {
    size_t out = 0;
    for (const uint32_t i : *sel) {
      if (pred(i)) (*sel)[out++] = i;
    }
    sel->resize(out);
  };

  if (spec.user_id.has_value()) {
    // First predicate in the order, so always a seed when present.
    sel->reserve(n);
    kernels.user_eq_seed(block.user_ids().data(), n, *spec.user_id, sel);
    seeded = true;
  }
  if (spec.min_time.has_value() || spec.max_time.has_value()) {
    const int64_t lo = spec.min_time.value_or(std::numeric_limits<int64_t>::min());
    const int64_t* times = block.timestamps().data();
    if (!seeded) {
      sel->reserve(n);
      if (spec.max_time.has_value()) {
        kernels.time_range_seed(times, n, lo, *spec.max_time, sel);
      } else {
        kernels.time_min_seed(times, n, lo, sel);
      }
      seeded = true;
    } else if (spec.max_time.has_value()) {
      const int64_t hi = *spec.max_time;  // exclusive
      refine([times, lo, hi](uint32_t i) { return times[i] >= lo && times[i] < hi; });
    } else {
      refine([times, lo](uint32_t i) { return times[i] >= lo; });
    }
  }
  if (spec.bbox.has_value()) {
    const geo::BoundingBox& box = *spec.bbox;
    // An empty/NaN box contains no point; BoundingBox::Contains is a chain
    // of >= / <= compares, so min > max (or any NaN bound) rejects all rows.
    if (!(box.min_lat <= box.max_lat) || !(box.min_lon <= box.max_lon)) {
      sel->clear();
      return;
    }
    // Compile the degree bounds down to fixed-point so the scan compares
    // integers; the thresholds reproduce Contains(FixedToDegrees(v))
    // exactly (FixedToDegrees is monotone). The widened int64 thresholds
    // leave the int32 column domain only when the box edge is outside it:
    // a low bound above the domain (or high bound below it) rejects every
    // row, and the remaining cases clamp exactly (everything below the
    // domain passes a low bound, everything above passes a high bound).
    const int64_t lat_lo = FirstFixedAtLeast(box.min_lat);
    const int64_t lat_hi = LastFixedAtMost(box.max_lat);
    const int64_t lon_lo = FirstFixedAtLeast(box.min_lon);
    const int64_t lon_hi = LastFixedAtMost(box.max_lon);
    if (lat_lo > lat_hi || lon_lo > lon_hi) {
      sel->clear();
      return;
    }
    constexpr int64_t kLo = std::numeric_limits<int32_t>::min();
    constexpr int64_t kHi = std::numeric_limits<int32_t>::max();
    const int32_t lat_lo32 = static_cast<int32_t>(std::max(lat_lo, kLo));
    const int32_t lat_hi32 = static_cast<int32_t>(std::min(lat_hi, kHi));
    const int32_t lon_lo32 = static_cast<int32_t>(std::max(lon_lo, kLo));
    const int32_t lon_hi32 = static_cast<int32_t>(std::min(lon_hi, kHi));
    const int32_t* lats = block.lat_fixed().data();
    const int32_t* lons = block.lon_fixed().data();
    if (!seeded) {
      sel->reserve(n);
      kernels.bbox_seed(lats, lons, n, lat_lo32, lat_hi32, lon_lo32, lon_hi32,
                        sel);
      seeded = true;
    } else {
      refine([=](uint32_t i) {
        return lats[i] >= lat_lo32 && lats[i] <= lat_hi32 &&
               lons[i] >= lon_lo32 && lons[i] <= lon_hi32;
      });
    }
  }
  if (!seeded) {
    sel->reserve(n);
    for (uint32_t i = 0; i < n; ++i) sel->push_back(i);
  }
}

}  // namespace

void FilterBlockColumnar(const Block& block, const ScanSpec& spec,
                         std::vector<uint32_t>* sel) {
  FilterBlockColumnarImpl(block, spec, sel,
                          filter_internal::ActiveFilterKernels());
}

void FilterBlockColumnarScalar(const Block& block, const ScanSpec& spec,
                               std::vector<uint32_t>* sel) {
  FilterBlockColumnarImpl(block, spec, sel,
                          filter_internal::ScalarFilterKernels());
}

std::vector<std::pair<size_t, size_t>> DatasetBlockMap(const TweetDataset& dataset) {
  std::vector<std::pair<size_t, size_t>> block_map;
  block_map.reserve(dataset.num_blocks());
  for (size_t s = 0; s < dataset.num_shards(); ++s) {
    for (size_t b = 0; b < dataset.shard(s).num_blocks(); ++b) {
      block_map.emplace_back(s, b);
    }
  }
  return block_map;
}

const char* FilterKernelsImplementation() {
  return filter_internal::ActiveFilterKernels().name;
}

namespace internal {

namespace {

/// Per-thread cache of one selection-list vector. Acquire moves it out
/// (leaving an empty, capacity-less vector behind), so a nested scan on
/// the same thread gets a fresh allocation instead of aliasing the
/// outer scan's list.
std::vector<uint32_t>& ScratchSlot() {
  thread_local std::vector<uint32_t> slot;
  return slot;
}

}  // namespace

std::vector<uint32_t> AcquireSelectionScratch() {
  return std::move(ScratchSlot());
}

void ReleaseSelectionScratch(std::vector<uint32_t> scratch) {
  scratch.clear();
  ScratchSlot() = std::move(scratch);
}

size_t CountBlockColumnar(const Block& block, const ScanSpec& spec,
                          std::vector<uint32_t>& sel_scratch,
                          ScanStatistics& stats) {
  const size_t n = block.num_rows();
  stats.rows_scanned += n;
  if (spec.MatchesAllRows()) {
    stats.rows_matched += n;
    return n;
  }
  FilterBlockColumnar(block, spec, &sel_scratch);
  stats.rows_matched += sel_scratch.size();
  return sel_scratch.size();
}

}  // namespace internal

ScanStatistics CountMatching(const TweetDataset& dataset, const ScanSpec& spec,
                             size_t* count, ThreadPool* pool) {
  std::vector<size_t> per_block(dataset.num_blocks(), 0);
  const ScanStatistics stats = internal::ForEachCandidateBlock(
      dataset, spec, pool,
      [&spec, &per_block](size_t g, const Block& block,
                          ScanStatistics& block_stats) {
        std::vector<uint32_t> sel = internal::AcquireSelectionScratch();
        per_block[g] = internal::CountBlockColumnar(block, spec, sel, block_stats);
        internal::ReleaseSelectionScratch(std::move(sel));
      });
  size_t n = 0;
  for (const size_t c : per_block) n += c;
  *count = n;
  return stats;
}

}  // namespace twimob::tweetdb
