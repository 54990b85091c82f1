#include "geo/sealed_grid_index.h"

#include <iterator>
#include <limits>
#include <queue>
#include <utility>

namespace twimob::geo {
namespace {

/// Input points per build task, and about the points per task of the
/// per-cell phase. A constant, never derived from the pool size; it also
/// caps a chunk's distinct cells, so a point's chunk-local cell index fits
/// in 16 bits.
constexpr size_t kBuildChunkPoints = 16384;
static_assert(kBuildChunkPoints <= 65536);

/// The cells of one input chunk, in first-seen order.
struct ChunkCells {
  std::vector<int64_t> keys;
  std::vector<uint32_t> counts;  ///< points per cell
  /// Global cell index per cell, then the cell's next scatter slot.
  std::vector<size_t> next;
};

/// Open-addressing map from cell key to chunk-local cell index. Cell keys
/// are never negative, so -1 marks a free slot.
class ChunkCellTable {
 public:
  explicit ChunkCellTable(size_t max_keys) {
    size_t capacity = 16;
    int bits = 4;
    while (capacity < 2 * max_keys) {
      capacity <<= 1;
      ++bits;
    }
    keys_.assign(capacity, -1);
    cells_.resize(capacity);
    shift_ = 64 - bits;
  }

  /// Chunk-local index of `key`, appending a new cell to `cells` on first
  /// sight.
  uint16_t FindOrAdd(int64_t key, ChunkCells& cells) {
    const size_t mask = keys_.size() - 1;
    size_t h = static_cast<size_t>((static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
                                   shift_);
    while (keys_[h] != key) {
      if (keys_[h] == -1) {
        keys_[h] = key;
        cells_[h] = static_cast<uint16_t>(cells.keys.size());
        cells.keys.push_back(key);
        cells.counts.push_back(0);
        break;
      }
      h = (h + 1) & mask;
    }
    return cells_[h];
  }

 private:
  std::vector<int64_t> keys_;
  std::vector<uint16_t> cells_;
  int shift_ = 0;
};

/// Number of distinct values in the union of `merged` (sorted unique) and
/// `extra` (sorted unique), via a two-pointer sweep.
size_t CountUnion(const uint64_t* merged, size_t merged_size, const uint64_t* extra,
                  size_t extra_size) {
  size_t i = 0, j = 0, n = 0;
  while (i < merged_size && j < extra_size) {
    if (merged[i] < extra[j]) {
      ++i;
    } else if (extra[j] < merged[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
    ++n;
  }
  return n + (merged_size - i) + (extra_size - j);
}

}  // namespace

void SealedGridIndex::FilterBoundaryCell(
    size_t begin, size_t end, const LatLon& center, double radius_m,
    bool use_equirect, double lat_band_deg, double prefilter_m,
    const HaversineBatch& batch, std::vector<uint32_t>& band_scratch,
    size_t* points_tested, std::vector<uint32_t>& accepted) const {
  band_scratch.clear();
  SelectWithinLatBand(lats_.data() + begin, end - begin, center.lat,
                      lat_band_deg, &band_scratch);
  accepted.clear();
  for (const uint32_t rel : band_scratch) {
    const size_t i = begin + rel;
    const LatLon p{lats_[i], lons_[i]};
    if (use_equirect && EquirectangularMeters(center, p) > prefilter_m) continue;
    if (points_tested != nullptr) ++*points_tested;
    if (batch.DistanceTo(p) <= radius_m) accepted.push_back(rel);
  }
}

std::vector<IndexedPoint> SealedGridIndex::QueryRadius(const LatLon& center,
                                                       double radius_m) const {
  std::vector<IndexedPoint> out;
  ForEachInRadius(center, radius_m,
                  [&out](const IndexedPoint& p) { out.push_back(p); });
  return out;
}

size_t SealedGridIndex::CountRadius(const LatLon& center, double radius_m) const {
  return CountRadiusProfiled(center, radius_m, nullptr);
}

size_t SealedGridIndex::CountRadiusProfiled(const LatLon& center, double radius_m,
                                            RadiusQueryProfile* profile) const {
  const BoundingBox box = BoundingBoxForRadius(center, radius_m);
  const bool use_equirect = radius_m < kEquirectPrefilterMaxRadiusMeters;
  const double lat_band_deg = LatitudeBandDegrees(radius_m);
  const double prefilter_m = radius_m * kEquirectPrefilterMargin;
  const HaversineBatch batch(center);
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  size_t n = 0;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    if (profile != nullptr) ++profile->cells_candidate;
    if (CellInsideCircle(cell, center, radius_m)) {
      n += end - begin;  // no per-point work: the whole cell is inside
      if (profile != nullptr) {
        ++profile->cells_interior;
        profile->points_interior += end - begin;
      }
      return;
    }
    if (profile != nullptr) ++profile->cells_boundary;
    FilterBoundaryCell(begin, end, center, radius_m, use_equirect, lat_band_deg,
                       prefilter_m, batch, band_scratch,
                       profile != nullptr ? &profile->points_tested : nullptr,
                       accepted);
    n += accepted.size();
  });
  return n;
}

Result<SealedGridIndex> SealedGridIndex::Build(const BoundingBox& bounds,
                                               double cell_deg,
                                               const std::vector<IndexedPoint>& points,
                                               ThreadPool* pool) {
  return Build(
      bounds, cell_deg, points.size(),
      [&points](size_t begin, size_t end, IndexedPoint* out) {
        std::copy(points.begin() + begin, points.begin() + end, out);
      },
      pool);
}

Result<SealedGridIndex> SealedGridIndex::Build(const BoundingBox& bounds,
                                               double cell_deg, size_t num_points,
                                               const PointReader& read,
                                               ThreadPool* pool) {
  TWIMOB_ASSIGN_OR_RETURN(const int64_t cols,
                          grid_internal::GridColumns(bounds, cell_deg));
  const auto run = [pool](size_t count, const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(count, fn);
    } else {
      for (size_t i = 0; i < count; ++i) fn(i);
    }
  };
  SealedGridIndex index;
  index.bounds_ = bounds;
  index.cell_deg_ = cell_deg;
  index.cols_ = cols;
  const size_t n = num_points;
  const size_t num_chunks = (n + kBuildChunkPoints - 1) / kBuildChunkPoints;
  const auto chunk_size = [n](size_t c) {
    return std::min(n - c * kBuildChunkPoints, kBuildChunkPoints);
  };

  // 1. Every point's cell, counted per input chunk; each chunk also sorts
  // a copy of its cell keys for phase 2.
  std::vector<ChunkCells> chunks(num_chunks);
  std::vector<std::vector<int64_t>> key_lists(num_chunks);
  std::vector<uint16_t> local_cell(n);
  run(num_chunks, [&](size_t c) {
    const size_t begin = c * kBuildChunkPoints;
    const size_t len = chunk_size(c);
    std::vector<IndexedPoint> points(len);
    read(begin, begin + len, points.data());
    ChunkCellTable table(len);
    ChunkCells& cells = chunks[c];
    for (size_t i = 0; i < len; ++i) {
      const uint16_t cell = table.FindOrAdd(
          grid_internal::CellKeyFor(bounds, cell_deg, cols, points[i].pos), cells);
      ++cells.counts[cell];
      local_cell[begin + i] = cell;
    }
    key_lists[c] = cells.keys;
    std::sort(key_lists[c].begin(), key_lists[c].end());
  });

  // 2. The non-empty cells: the union of the chunks' sorted keys, merged
  // pairwise level by level.
  while (key_lists.size() > 1) {
    std::vector<std::vector<int64_t>> merged((key_lists.size() + 1) / 2);
    run(merged.size(), [&](size_t i) {
      if (2 * i + 1 == key_lists.size()) {
        merged[i] = std::move(key_lists[2 * i]);
        return;
      }
      const std::vector<int64_t>& a = key_lists[2 * i];
      const std::vector<int64_t>& b = key_lists[2 * i + 1];
      merged[i].reserve(a.size() + b.size());
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(merged[i]));
    });
    key_lists = std::move(merged);
  }
  if (!key_lists.empty()) index.cell_keys_ = std::move(key_lists.front());
  const std::vector<int64_t>& keys = index.cell_keys_;
  const size_t num_cells = keys.size();
  run(num_chunks, [&](size_t c) {
    ChunkCells& cells = chunks[c];
    cells.next.resize(cells.keys.size());
    for (size_t k = 0; k < cells.keys.size(); ++k) {
      cells.next[k] = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), cells.keys[k]) - keys.begin());
    }
  });

  // 3. Cell offsets, then each chunk's first slot in each of its cells.
  // Chunks take their slots in input order, so every cell holds its points
  // in input order — the order a GridIndex loaded the same way keeps.
  index.offsets_.assign(num_cells + 1, 0);
  for (const ChunkCells& cells : chunks) {
    for (size_t k = 0; k < cells.keys.size(); ++k) {
      index.offsets_[cells.next[k] + 1] += cells.counts[k];
    }
  }
  for (size_t cell = 0; cell < num_cells; ++cell) {
    index.offsets_[cell + 1] += index.offsets_[cell];
  }
  std::vector<size_t> cursor(index.offsets_.begin(), index.offsets_.end() - 1);
  for (ChunkCells& cells : chunks) {
    for (size_t k = 0; k < cells.keys.size(); ++k) {
      const size_t cell = cells.next[k];
      cells.next[k] = cursor[cell];
      cursor[cell] += cells.counts[k];
    }
  }

  // 4. Scatter into the SoA arrays; chunks write disjoint slots and
  // together every slot.
  index.lats_.resize(n);
  index.lons_.resize(n);
  index.ids_.resize(n);
  run(num_chunks, [&](size_t c) {
    const size_t begin = c * kBuildChunkPoints;
    const size_t len = chunk_size(c);
    std::vector<IndexedPoint> points(len);
    read(begin, begin + len, points.data());
    std::vector<size_t>& next = chunks[c].next;
    for (size_t i = 0; i < len; ++i) {
      const size_t slot = next[local_cell[begin + i]]++;
      index.lats_[slot] = points[i].pos.lat;
      index.lons_[slot] = points[i].pos.lon;
      index.ids_[slot] = points[i].id;
    }
  });

  // 5. Per-cell point bounding boxes and sorted-unique id lists, over
  // ranges of whole cells holding about kBuildChunkPoints points each.
  std::vector<size_t> range_begin;
  for (size_t cell = 0, points = kBuildChunkPoints; cell < num_cells; ++cell) {
    if (points >= kBuildChunkPoints) {
      range_begin.push_back(cell);
      points = 0;
    }
    points += index.offsets_[cell + 1] - index.offsets_[cell];
  }
  const size_t num_ranges = range_begin.size();
  range_begin.push_back(num_cells);
  index.cell_min_lat_.resize(num_cells);
  index.cell_max_lat_.resize(num_cells);
  index.cell_min_lon_.resize(num_cells);
  index.cell_max_lon_.resize(num_cells);
  index.id_offsets_.assign(num_cells + 1, 0);
  std::vector<std::vector<uint64_t>> range_ids(num_ranges);
  run(num_ranges, [&](size_t r) {
    std::vector<uint64_t>& ids = range_ids[r];
    ids.reserve(index.offsets_[range_begin[r + 1]] - index.offsets_[range_begin[r]]);
    for (size_t cell = range_begin[r]; cell < range_begin[r + 1]; ++cell) {
      const size_t begin = index.offsets_[cell];
      const size_t end = index.offsets_[cell + 1];
      double min_lat = std::numeric_limits<double>::infinity();
      double max_lat = -std::numeric_limits<double>::infinity();
      double min_lon = std::numeric_limits<double>::infinity();
      double max_lon = -std::numeric_limits<double>::infinity();
      for (size_t i = begin; i < end; ++i) {
        min_lat = std::min(min_lat, index.lats_[i]);
        max_lat = std::max(max_lat, index.lats_[i]);
        min_lon = std::min(min_lon, index.lons_[i]);
        max_lon = std::max(max_lon, index.lons_[i]);
      }
      index.cell_min_lat_[cell] = min_lat;
      index.cell_max_lat_[cell] = max_lat;
      index.cell_min_lon_[cell] = min_lon;
      index.cell_max_lon_[cell] = max_lon;
      const size_t first = ids.size();
      ids.insert(ids.end(), index.ids_.begin() + begin, index.ids_.begin() + end);
      std::sort(ids.begin() + first, ids.end());
      ids.erase(std::unique(ids.begin() + first, ids.end()), ids.end());
      index.id_offsets_[cell + 1] = ids.size() - first;
    }
  });
  for (size_t cell = 0; cell < num_cells; ++cell) {
    index.id_offsets_[cell + 1] += index.id_offsets_[cell];
  }
  index.unique_ids_.reserve(index.id_offsets_[num_cells]);
  for (const std::vector<uint64_t>& ids : range_ids) {
    index.unique_ids_.insert(index.unique_ids_.end(), ids.begin(), ids.end());
  }
  return index;
}

size_t SealedGridIndex::CountDistinctIds(const LatLon& center, double radius_m) const {
  return CountRadiusAndDistinctIds(center, radius_m).distinct_ids;
}

size_t SealedGridIndex::WalkDistinct(const LatLon& center, double radius_m,
                                     std::vector<size_t>* interior_cells,
                                     std::vector<uint64_t>* boundary_ids) const {
  const BoundingBox box = BoundingBoxForRadius(center, radius_m);
  const bool use_equirect = radius_m < kEquirectPrefilterMaxRadiusMeters;
  const double lat_band_deg = LatitudeBandDegrees(radius_m);
  const double prefilter_m = radius_m * kEquirectPrefilterMargin;

  const HaversineBatch batch(center);
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  size_t points = 0;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    if (CellInsideCircle(cell, center, radius_m)) {
      points += end - begin;
      interior_cells->push_back(cell);
      return;
    }
    FilterBoundaryCell(begin, end, center, radius_m, use_equirect, lat_band_deg,
                       prefilter_m, batch, band_scratch, nullptr, accepted);
    points += accepted.size();
    for (const uint32_t rel : accepted) boundary_ids->push_back(ids_[begin + rel]);
  });

  std::sort(boundary_ids->begin(), boundary_ids->end());
  boundary_ids->erase(std::unique(boundary_ids->begin(), boundary_ids->end()),
                      boundary_ids->end());
  return points;
}

void SealedGridIndex::MergeCellIds(const std::vector<size_t>& cells,
                                   std::vector<uint64_t>* merged) const {
  size_t total_len = 0;
  for (const size_t cell : cells) {
    total_len += id_offsets_[cell + 1] - id_offsets_[cell];
  }
  merged->reserve(total_len);
  std::vector<size_t> cursor(cells.size());
  using HeapEntry = std::pair<uint64_t, size_t>;  // (id value, list idx)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap;
  for (size_t k = 0; k < cells.size(); ++k) {
    cursor[k] = id_offsets_[cells[k]];
    if (cursor[k] < id_offsets_[cells[k] + 1]) {
      heap.emplace(unique_ids_[cursor[k]], k);
    }
  }
  while (!heap.empty()) {
    const auto [value, k] = heap.top();
    heap.pop();
    if (merged->empty() || merged->back() != value) merged->push_back(value);
    if (++cursor[k] < id_offsets_[cells[k] + 1]) {
      heap.emplace(unique_ids_[cursor[k]], k);
    }
  }
}

RadiusCounts SealedGridIndex::CountRadiusAndDistinctIds(
    const LatLon& center, double radius_m,
    const std::vector<uint64_t>* also_ids) const {
  std::vector<size_t> interior_cells;
  std::vector<uint64_t> boundary_ids;
  RadiusCounts counts;
  counts.points = WalkDistinct(center, radius_m, &interior_cells, &boundary_ids);
  if (also_ids != nullptr && !also_ids->empty()) {
    std::vector<uint64_t> both;
    both.reserve(boundary_ids.size() + also_ids->size());
    std::set_union(boundary_ids.begin(), boundary_ids.end(), also_ids->begin(),
                   also_ids->end(), std::back_inserter(both));
    boundary_ids = std::move(both);
  }

  if (interior_cells.empty()) {
    counts.distinct_ids = boundary_ids.size();
    return counts;
  }
  if (interior_cells.size() == 1) {
    const size_t cell = interior_cells.front();
    counts.distinct_ids = CountUnion(unique_ids_.data() + id_offsets_[cell],
                                     id_offsets_[cell + 1] - id_offsets_[cell],
                                     boundary_ids.data(), boundary_ids.size());
    return counts;
  }
  std::vector<uint64_t> merged;
  MergeCellIds(interior_cells, &merged);
  counts.distinct_ids = CountUnion(merged.data(), merged.size(),
                                   boundary_ids.data(), boundary_ids.size());
  return counts;
}

size_t SealedGridIndex::CollectDistinctIds(const LatLon& center, double radius_m,
                                           std::vector<uint64_t>* ids) const {
  std::vector<size_t> interior_cells;
  std::vector<uint64_t> boundary_ids;
  const size_t points =
      WalkDistinct(center, radius_m, &interior_cells, &boundary_ids);
  ids->clear();
  if (interior_cells.empty()) {
    *ids = std::move(boundary_ids);
    return points;
  }
  std::vector<uint64_t> merged;
  if (interior_cells.size() == 1) {
    const size_t cell = interior_cells.front();
    merged.assign(unique_ids_.begin() + id_offsets_[cell],
                  unique_ids_.begin() + id_offsets_[cell + 1]);
  } else {
    MergeCellIds(interior_cells, &merged);
  }
  ids->reserve(merged.size() + boundary_ids.size());
  std::set_union(merged.begin(), merged.end(), boundary_ids.begin(),
                 boundary_ids.end(), std::back_inserter(*ids));
  return points;
}

}  // namespace twimob::geo
