#include "geo/sealed_grid_index.h"

#include <bit>
#include <iterator>
#include <limits>
#include <numeric>
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
  /// The chunk-local cell indices in ascending key order.
  std::vector<uint16_t> by_key;
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

/// The sorted-unique values of `values[0, n)`, a sequence of ascending runs,
/// into `out`: a natural merge sort. Each run is copied with its repeats
/// dropped, then adjacent runs are set-unioned pairwise until one is left —
/// O(n log k) for k runs, so a cell fed by a few user-ascending shards costs
/// a few linear passes. `scratch` and `bounds` are caller-owned buffers
/// reused across calls.
template <typename T>
void UniqueOfRuns(const T* values, size_t n, std::vector<T>* out,
                  std::vector<T>* scratch, std::vector<size_t>* bounds) {
  out->clear();
  bounds->clear();
  for (size_t i = 0; i < n; ++i) {
    const T v = values[i];
    if (!out->empty() && v == out->back()) continue;
    if (out->empty() || v < out->back()) bounds->push_back(out->size());
    out->push_back(v);
  }
  bounds->push_back(out->size());
  // bounds holds each run's start, then the end. A merge pass writes its
  // runs' starts over the front of bounds: pair r/2 lands at or before the
  // slots it reads.
  for (size_t runs = bounds->size() - 1; runs > 1; runs = (runs + 1) / 2) {
    scratch->clear();
    for (size_t r = 0; r < runs; r += 2) {
      const T* first = out->data() + (*bounds)[r];
      const T* mid = out->data() + (*bounds)[r + 1];
      const T* last = r + 1 < runs ? out->data() + (*bounds)[r + 2] : mid;
      (*bounds)[r / 2] = scratch->size();
      std::set_union(first, mid, mid, last, std::back_inserter(*scratch));
    }
    (*bounds)[(runs + 1) / 2] = scratch->size();
    out->swap(*scratch);
  }
}

/// At most this many value ranges per sorted union, each for about
/// kUnionRangeValues input values, so a large union's merges run in
/// parallel with no serial final level and a small one runs as one task.
/// Constants, never derived from the pool size (the union is the same for
/// any cut).
constexpr size_t kUnionRanges = 64;
constexpr size_t kUnionRangeValues = 4096;

/// The sorted union of the sorted-unique `lists` (values never negative).
/// The span of the values is cut into equal ranges; each range, on `run`,
/// gathers its piece of every list and merges the pieces with
/// UniqueOfRuns, and the ranges are concatenated in order.
template <typename T, typename Run>
std::vector<T> UnionOfSorted(const std::vector<std::vector<T>>& lists, const Run& run) {
  bool any = false;
  T lo = 0;
  T hi = 0;
  size_t values = 0;
  for (const std::vector<T>& list : lists) {
    values += list.size();
    if (list.empty()) continue;
    lo = any ? std::min(lo, list.front()) : list.front();
    hi = any ? std::max(hi, list.back()) : list.back();
    any = true;
  }
  if (!any) return {};
  const size_t num_ranges = std::clamp<size_t>(values / kUnionRangeValues, 1, kUnionRanges);
  const auto range_start = [lo, hi, num_ranges](size_t r) {
    const unsigned __int128 span = static_cast<uint64_t>(hi - lo);
    return static_cast<T>(lo + static_cast<T>(span * r / num_ranges));
  };
  std::vector<std::vector<T>> ranges(num_ranges);
  run(num_ranges, [&](size_t r) {
    std::vector<T> pieces;
    for (const std::vector<T>& list : lists) {
      const auto first = r == 0 ? list.begin()
                                : std::lower_bound(list.begin(), list.end(), range_start(r));
      const auto last = r + 1 == num_ranges
                            ? list.end()
                            : std::lower_bound(first, list.end(), range_start(r + 1));
      pieces.insert(pieces.end(), first, last);
    }
    std::vector<T> scratch;
    std::vector<size_t> bounds;
    UniqueOfRuns(pieces.data(), pieces.size(), &ranges[r], &scratch, &bounds);
  });
  std::vector<T> all;
  for (const std::vector<T>& range : ranges) all.insert(all.end(), range.begin(), range.end());
  return all;
}

/// This thread's rank marks for an index of `num_ranks` ranks: one bit per
/// rank, all clear between queries (every query clears the words as it
/// reads its marks back).
uint64_t* ThreadRankMarks(size_t num_ranks) {
  thread_local std::vector<uint64_t> marks;
  const size_t words = (num_ranks + 63) / 64;
  if (marks.size() < words) marks.resize(words, 0);
  return marks.data();
}

void Mark(uint64_t* marks, uint32_t rank) {
  marks[rank >> 6] |= uint64_t{1} << (rank & 63);
}

bool Marked(const uint64_t* marks, size_t rank) {
  return ((marks[rank >> 6] >> (rank & 63)) & 1) != 0;
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
  const DiscCertificate disc(center, radius_m);
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  size_t n = 0;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    if (profile != nullptr) ++profile->cells_candidate;
    const BoxDisc verdict = CellVerdict(cell, disc);
    if (verdict == BoxDisc::kInside) {
      n += end - begin;  // no per-point work: the whole cell is inside
      if (profile != nullptr) {
        ++profile->cells_interior;
        profile->points_interior += end - begin;
      }
      return;
    }
    if (profile != nullptr) ++profile->cells_boundary;
    if (verdict == BoxDisc::kOutside) return;  // no point is within the radius
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
  // its cells by key and takes its sorted-unique ids for phase 2.
  std::vector<ChunkCells> chunks(num_chunks);
  std::vector<std::vector<int64_t>> key_lists(num_chunks);
  std::vector<std::vector<uint64_t>> chunk_ids(num_chunks);
  NoFillVector<uint16_t> local_cell(n);
  run(num_chunks, [&](size_t c) {
    const size_t begin = c * kBuildChunkPoints;
    const size_t len = chunk_size(c);
    std::vector<IndexedPoint> points(len);
    read(begin, begin + len, points.data());
    ChunkCellTable table(len);
    ChunkCells& cells = chunks[c];
    std::vector<uint64_t> ids(len);
    for (size_t i = 0; i < len; ++i) {
      const uint16_t cell = table.FindOrAdd(
          grid_internal::CellKeyFor(bounds, cell_deg, cols, points[i].pos), cells);
      ++cells.counts[cell];
      local_cell[begin + i] = cell;
      ids[i] = points[i].id;
    }
    cells.by_key.resize(cells.keys.size());
    std::iota(cells.by_key.begin(), cells.by_key.end(), uint16_t{0});
    std::sort(cells.by_key.begin(), cells.by_key.end(),
              [&cells](uint16_t a, uint16_t b) { return cells.keys[a] < cells.keys[b]; });
    key_lists[c].reserve(cells.keys.size());
    for (const uint16_t k : cells.by_key) key_lists[c].push_back(cells.keys[k]);
    std::vector<uint64_t> scratch;
    std::vector<size_t> runs;
    UniqueOfRuns(ids.data(), len, &chunk_ids[c], &scratch, &runs);
  });

  // 2. The non-empty cells and the distinct ids (rank r is the r-th
  // smallest id): the unions of the chunks' sorted lists. Each chunk's
  // cells then map to the cell list.
  index.cell_keys_ = UnionOfSorted(key_lists, run);
  index.rank_ids_ = UnionOfSorted(chunk_ids, run);
  if (index.rank_ids_.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("SealedGridIndex::Build: more than 2^32 - 1 ids");
  }
  const std::vector<int64_t>& keys = index.cell_keys_;
  const size_t num_cells = keys.size();
  run(num_chunks, [&](size_t c) {
    // In key order, each cell's search starts where the last one ended.
    ChunkCells& cells = chunks[c];
    cells.next.resize(cells.keys.size());
    auto from = keys.begin();
    for (size_t j = 0; j < cells.by_key.size(); ++j) {
      from = std::lower_bound(from, keys.end(), key_lists[c][j]);
      cells.next[cells.by_key[j]] = static_cast<size_t>(from - keys.begin());
    }
  });
  key_lists.clear();

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

  // 4. Scatter coordinates and ranks into the SoA arrays; chunks write
  // disjoint slots and together every slot, once.
  index.lats_.resize(n);
  index.lons_.resize(n);
  index.ranks_.resize(n);
  const std::vector<uint64_t>& rank_ids = index.rank_ids_;
  run(num_chunks, [&](size_t c) {
    const size_t begin = c * kBuildChunkPoints;
    const size_t len = chunk_size(c);
    std::vector<IndexedPoint> points(len);
    read(begin, begin + len, points.data());
    // The chunk's ids are ascending, so each one's rank is searched for
    // from the last one's.
    const std::vector<uint64_t>& ids = chunk_ids[c];
    std::vector<uint32_t> id_rank(ids.size());
    auto from = rank_ids.begin();
    for (size_t k = 0; k < ids.size(); ++k) {
      from = std::lower_bound(from, rank_ids.end(), ids[k]);
      id_rank[k] = static_cast<uint32_t>(from - rank_ids.begin());
    }
    std::vector<size_t>& next = chunks[c].next;
    size_t k = 0;  // the chunk id of the previous point; in a user-ascending
                   // run, the next new id is the next chunk id
    for (size_t i = 0; i < len; ++i) {
      const uint64_t id = points[i].id;
      if (ids[k] != id) {
        k = k + 1 < ids.size() && ids[k + 1] == id
                ? k + 1
                : static_cast<size_t>(std::lower_bound(ids.begin(), ids.end(), id) -
                                      ids.begin());
      }
      const size_t slot = next[local_cell[begin + i]]++;
      index.lats_[slot] = points[i].pos.lat;
      index.lons_[slot] = points[i].pos.lon;
      index.ranks_[slot] = id_rank[k];
    }
  });
  chunk_ids.clear();

  // 5. Per-cell point bounding boxes and unique-rank lists, over ranges of
  // whole cells holding about kBuildChunkPoints points each. A cell's
  // ranks are a few ascending runs (one per input run that reached it), so
  // its list is their merge.
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
  index.rank_offsets_.assign(num_cells + 1, 0);
  std::vector<std::vector<uint32_t>> range_ranks(num_ranges);
  run(num_ranges, [&](size_t r) {
    std::vector<uint32_t>& ranks = range_ranks[r];
    std::vector<uint32_t> cell_ranks;
    std::vector<uint32_t> scratch;
    std::vector<size_t> runs;
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
      UniqueOfRuns(index.ranks_.data() + begin, end - begin, &cell_ranks, &scratch,
                   &runs);
      ranks.insert(ranks.end(), cell_ranks.begin(), cell_ranks.end());
      index.rank_offsets_[cell + 1] = cell_ranks.size();
    }
  });
  for (size_t cell = 0; cell < num_cells; ++cell) {
    index.rank_offsets_[cell + 1] += index.rank_offsets_[cell];
  }
  index.unique_ranks_.resize(index.rank_offsets_[num_cells]);
  run(num_ranges, [&](size_t r) {
    std::copy(range_ranks[r].begin(), range_ranks[r].end(),
              index.unique_ranks_.begin() + index.rank_offsets_[range_begin[r]]);
  });
  return index;
}

size_t SealedGridIndex::CountDistinctIds(const LatLon& center, double radius_m) const {
  return CountRadiusAndDistinctIds(center, radius_m).distinct_ids;
}

size_t SealedGridIndex::MarkRanks(const LatLon& center, double radius_m,
                                  uint64_t* marks) const {
  const BoundingBox box = BoundingBoxForRadius(center, radius_m);
  const bool use_equirect = radius_m < kEquirectPrefilterMaxRadiusMeters;
  const double lat_band_deg = LatitudeBandDegrees(radius_m);
  const double prefilter_m = radius_m * kEquirectPrefilterMargin;

  const HaversineBatch batch(center);
  const DiscCertificate disc(center, radius_m);
  std::vector<uint32_t> band_scratch;
  std::vector<uint32_t> accepted;
  size_t points = 0;
  VisitCandidateCells(box, [&](size_t cell) {
    const size_t begin = offsets_[cell];
    const size_t end = offsets_[cell + 1];
    const BoxDisc verdict = CellVerdict(cell, disc);
    if (verdict == BoxDisc::kInside) {
      points += end - begin;
      for (size_t i = rank_offsets_[cell]; i < rank_offsets_[cell + 1]; ++i) {
        Mark(marks, unique_ranks_[i]);
      }
      return;
    }
    if (verdict == BoxDisc::kOutside) return;
    FilterBoundaryCell(begin, end, center, radius_m, use_equirect, lat_band_deg,
                       prefilter_m, batch, band_scratch, nullptr, accepted);
    points += accepted.size();
    for (const uint32_t rel : accepted) Mark(marks, ranks_[begin + rel]);
  });
  return points;
}

RadiusCounts SealedGridIndex::CountRadiusAndDistinctIds(
    const LatLon& center, double radius_m,
    const std::vector<uint64_t>* also_ids) const {
  uint64_t* marks = ThreadRankMarks(rank_ids_.size());
  RadiusCounts counts;
  counts.points = MarkRanks(center, radius_m, marks);
  if (also_ids != nullptr) {
    // Ascending ids: each search starts where the last one ended.
    auto from = rank_ids_.begin();
    for (const uint64_t id : *also_ids) {
      from = std::lower_bound(from, rank_ids_.end(), id);
      const size_t rank = static_cast<size_t>(from - rank_ids_.begin());
      if (from == rank_ids_.end() || *from != id || !Marked(marks, rank)) {
        ++counts.distinct_ids;
      }
    }
  }
  const size_t words = (rank_ids_.size() + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    counts.distinct_ids += static_cast<size_t>(std::popcount(marks[w]));
    marks[w] = 0;
  }
  return counts;
}

size_t SealedGridIndex::CollectDistinctIds(const LatLon& center, double radius_m,
                                           std::vector<uint64_t>* ids) const {
  uint64_t* marks = ThreadRankMarks(rank_ids_.size());
  const size_t points = MarkRanks(center, radius_m, marks);
  const size_t words = (rank_ids_.size() + 63) / 64;
  size_t marked = 0;
  for (size_t w = 0; w < words; ++w) marked += static_cast<size_t>(std::popcount(marks[w]));
  ids->clear();
  ids->reserve(marked);
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
      ids->push_back(rank_ids_[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
    }
    marks[w] = 0;
  }
  return points;
}

}  // namespace twimob::geo
