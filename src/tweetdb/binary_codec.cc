#include "tweetdb/binary_codec.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/string_util.h"
#include "geo/latlon.h"
#include "tweetdb/block_compression.h"
#include "tweetdb/encoding.h"
#include "tweetdb/generation_pins.h"

namespace twimob::tweetdb {

namespace {
constexpr char kMagic[4] = {'T', 'W', 'D', 'B'};
constexpr char kManifestMagic[4] = {'T', 'W', 'D', 'M'};
// Decode guard: no real dataset needs more shards than this; a corrupt
// count must fail fast instead of driving a huge allocation.
constexpr uint64_t kMaxManifestShards = 1u << 20;
// Same guard for the delta list (compaction keeps it short in practice).
constexpr uint64_t kMaxManifestDeltas = 1u << 20;
// magic + version + block count — the CRC-guarded table header prefix.
constexpr size_t kTableHeaderPrefix = 16;
// Fixed on-disk size of one zone-map directory record: rows + user range +
// time range as fixed64, the four fixed-point coordinate bounds as fixed32.
constexpr size_t kZoneMapEntrySize = 56;

void PutDouble(std::string* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(dst, bits);
}

bool GetDouble(std::string_view* src, double* value) {
  uint64_t bits;
  if (!GetFixed64(src, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

/// Validates the table header (magic, version, header CRC), returns its
/// block count and leaves `*bytes` positioned at the zone-map directory.
Result<uint64_t> DecodeTableHeader(std::string_view* bytes) {
  const std::string_view full = *bytes;
  if (bytes->size() < 4 || std::string_view(bytes->data(), 4) !=
                               std::string_view(kMagic, 4)) {
    return Status::IOError("bad magic: not a twimob binary table");
  }
  bytes->remove_prefix(4);
  uint32_t version;
  if (!GetFixed32(bytes, &version)) return Status::IOError("truncated header");
  if (version != kBinaryFormatVersion) {
    return Status::IOError("unsupported format version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kBinaryFormatVersion) + ")");
  }
  uint64_t num_blocks;
  uint32_t stored_crc;
  if (!GetFixed64(bytes, &num_blocks) || !GetFixed32(bytes, &stored_crc)) {
    return Status::IOError("truncated header");
  }
  if (stored_crc != Crc32c(full.data(), kTableHeaderPrefix)) {
    return Status::IOError("table header checksum mismatch");
  }
  return num_blocks;
}

// ---------------------------------------------------------------------------
// Zone-map directory: the on-disk twin of BlockStats. Records hold the
// block columns' exact integer bounds (coordinates in their fixed-point
// representation, never the derived degrees), so a record both
// reconstructs BlockStats bit-identically (FixedToDegrees is strictly
// monotonic: the min over per-row degrees IS the degrees of the fixed
// minimum) and admits an exact equality check against decoded columns.

struct ZoneMapEntry {
  uint64_t num_rows = 0;
  uint64_t min_user = 0;
  uint64_t max_user = 0;
  int64_t min_time = 0;
  int64_t max_time = 0;
  int32_t min_lat = 0;
  int32_t max_lat = 0;
  int32_t min_lon = 0;
  int32_t max_lon = 0;

  bool operator==(const ZoneMapEntry&) const = default;
};

ZoneMapEntry ComputeZoneMap(const Block& block) {
  ZoneMapEntry e;
  e.num_rows = block.num_rows();
  if (block.empty()) return e;
  e.min_user = e.max_user = block.user_ids()[0];
  e.min_time = e.max_time = block.timestamps()[0];
  e.min_lat = e.max_lat = block.lat_fixed()[0];
  e.min_lon = e.max_lon = block.lon_fixed()[0];
  for (size_t i = 1; i < block.num_rows(); ++i) {
    e.min_user = std::min(e.min_user, block.user_ids()[i]);
    e.max_user = std::max(e.max_user, block.user_ids()[i]);
    e.min_time = std::min(e.min_time, block.timestamps()[i]);
    e.max_time = std::max(e.max_time, block.timestamps()[i]);
    e.min_lat = std::min(e.min_lat, block.lat_fixed()[i]);
    e.max_lat = std::max(e.max_lat, block.lat_fixed()[i]);
    e.min_lon = std::min(e.min_lon, block.lon_fixed()[i]);
    e.max_lon = std::max(e.max_lon, block.lon_fixed()[i]);
  }
  return e;
}

void EncodeZoneMapEntry(std::string* dst, const ZoneMapEntry& e) {
  PutFixed64(dst, e.num_rows);
  PutFixed64(dst, e.min_user);
  PutFixed64(dst, e.max_user);
  PutFixed64(dst, static_cast<uint64_t>(e.min_time));
  PutFixed64(dst, static_cast<uint64_t>(e.max_time));
  PutFixed32(dst, static_cast<uint32_t>(e.min_lat));
  PutFixed32(dst, static_cast<uint32_t>(e.max_lat));
  PutFixed32(dst, static_cast<uint32_t>(e.min_lon));
  PutFixed32(dst, static_cast<uint32_t>(e.max_lon));
}

bool DecodeZoneMapEntry(std::string_view* src, ZoneMapEntry* e) {
  uint64_t min_time, max_time;
  uint32_t min_lat, max_lat, min_lon, max_lon;
  if (!GetFixed64(src, &e->num_rows) || !GetFixed64(src, &e->min_user) ||
      !GetFixed64(src, &e->max_user) || !GetFixed64(src, &min_time) ||
      !GetFixed64(src, &max_time) || !GetFixed32(src, &min_lat) ||
      !GetFixed32(src, &max_lat) || !GetFixed32(src, &min_lon) ||
      !GetFixed32(src, &max_lon)) {
    return false;
  }
  e->min_time = static_cast<int64_t>(min_time);
  e->max_time = static_cast<int64_t>(max_time);
  e->min_lat = static_cast<int32_t>(min_lat);
  e->max_lat = static_cast<int32_t>(max_lat);
  e->min_lon = static_cast<int32_t>(min_lon);
  e->max_lon = static_cast<int32_t>(max_lon);
  return true;
}

/// Consumes the directory (records + trailing CRC32C) from the front of
/// `*bytes`. A Status error means the directory region is truncated and
/// the block frames cannot even be located; `*crc_ok` reports whether the
/// records can be trusted — salvage keeps walking frames with an
/// untrusted directory, strict decoders fail.
Status ReadZoneMapDirectory(std::string_view* bytes, uint64_t num_blocks,
                            std::vector<ZoneMapEntry>* entries, bool* crc_ok) {
  if (num_blocks > bytes->size() / kZoneMapEntrySize) {
    return Status::IOError("truncated zone-map directory");
  }
  const size_t dir_size = static_cast<size_t>(num_blocks) * kZoneMapEntrySize;
  const std::string_view dir(bytes->data(), dir_size);
  bytes->remove_prefix(dir_size);
  uint32_t stored_crc;
  if (!GetFixed32(bytes, &stored_crc)) {
    return Status::IOError("truncated zone-map directory checksum");
  }
  *crc_ok = stored_crc == Crc32c(dir.data(), dir.size());
  entries->resize(num_blocks);
  std::string_view cursor = dir;
  for (ZoneMapEntry& e : *entries) {
    (void)DecodeZoneMapEntry(&cursor, &e);  // length checked above
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The one table-file walker and the one verified-block decode. DecodeTable,
// DecodeTableSalvage and both dataset readers turn bytes into a table
// through DecodeTableBytes: ParseTableLayout walks the framing once, then
// DecodeVerifiedBlock decodes each frame. The strict and salvage policies
// differ only in what they do with a failure.

/// One located block frame: the payload bytes and their stored CRC32C.
struct BlockFrame {
  std::string_view payload;
  uint32_t stored_crc = 0;
};

/// A table file after one pass over its framing. No payload byte has been
/// hashed or decoded yet.
struct TableLayout {
  uint64_t num_blocks = 0;              ///< block count the header declared
  std::vector<ZoneMapEntry> zone_maps;  ///< empty when the directory is cut
  bool directory_ok = false;  ///< directory complete and its CRC32C verified
  std::vector<BlockFrame> frames;  ///< every frame located, in file order
  /// The first framing failure — a truncated directory or frame, or bytes
  /// after the last frame — or OK when the file frames exactly.
  Status framing = Status::OK();
  bool truncated = false;  ///< framing ended before num_blocks frames
};

/// Parses the header, the zone-map directory and every block frame. Only a
/// bad header is an error: without it the framing cannot be trusted at
/// all. Anything later is recorded in the layout for the caller's policy.
Result<TableLayout> ParseTableLayout(std::string_view bytes) {
  TableLayout layout;
  TWIMOB_ASSIGN_OR_RETURN(layout.num_blocks, DecodeTableHeader(&bytes));
  layout.framing = ReadZoneMapDirectory(&bytes, layout.num_blocks,
                                        &layout.zone_maps, &layout.directory_ok);
  if (!layout.framing.ok()) {
    layout.truncated = true;
    return layout;
  }
  // The directory check above bounds num_blocks by the file size.
  layout.frames.reserve(layout.num_blocks);
  for (uint64_t b = 0; b < layout.num_blocks; ++b) {
    BlockFrame frame;
    uint64_t len;
    if (!GetVarint64(&bytes, &len) || !GetFixed32(&bytes, &frame.stored_crc)) {
      layout.framing = Status::IOError("truncated block frame");
    } else if (len > bytes.size()) {
      layout.framing = Status::IOError("block length exceeds remaining bytes");
    }
    if (!layout.framing.ok()) {
      // The length prefix itself is gone, so every later frame boundary is
      // unknowable.
      layout.truncated = true;
      return layout;
    }
    frame.payload = bytes.substr(0, len);
    bytes.remove_prefix(len);
    layout.frames.push_back(frame);
  }
  if (!bytes.empty()) {
    layout.framing = Status::IOError("trailing bytes after the last block");
  }
  return layout;
}

/// What strict readers require of a layout: exact framing and a trusted
/// directory.
Status CheckIntact(const TableLayout& layout) {
  TWIMOB_RETURN_IF_ERROR(layout.framing);
  if (!layout.directory_ok) {
    return Status::IOError("zone-map directory checksum mismatch");
  }
  return Status::OK();
}

/// Payload CRC32C, then decompression, then — when `zone_map` is given —
/// the "fail decode, not misprune" cross-check: a decoded block whose
/// columns disagree with its directory record is an error, because scans
/// already pruned (or failed to prune) on that record. `*checksum_failed`
/// (optional) tells a CRC mismatch apart from the other failures.
Result<Block> DecodeVerifiedBlock(const BlockFrame& frame,
                                  const ZoneMapEntry* zone_map,
                                  bool* checksum_failed = nullptr) {
  if (frame.stored_crc != Crc32c(frame.payload.data(), frame.payload.size())) {
    if (checksum_failed != nullptr) *checksum_failed = true;
    return Status::IOError("block checksum mismatch");
  }
  TWIMOB_ASSIGN_OR_RETURN(Block block, DecodeCompressedBlock(frame.payload));
  if (zone_map != nullptr && ComputeZoneMap(block) != *zone_map) {
    return Status::IOError("zone-map directory disagrees with decoded block");
  }
  return block;
}

/// Decodes a whole table blob under `policy`, accounting in `*r`. Strict:
/// any damage is the error. Salvage: every block whose CRC32C verifies is
/// recovered, skipping corrupt ones by their length prefix; with an
/// untrusted directory the zone-map cross-check is skipped (the payload
/// CRCs alone vouch for the blocks).
Result<TweetTable> DecodeTableBytes(std::string_view bytes,
                                    RecoveryPolicy policy,
                                    TableSalvageReport* r) {
  const bool strict = policy == RecoveryPolicy::kStrict;
  *r = TableSalvageReport{};
  TWIMOB_ASSIGN_OR_RETURN(const TableLayout layout, ParseTableLayout(bytes));
  if (strict) TWIMOB_RETURN_IF_ERROR(CheckIntact(layout));
  r->blocks_total = layout.num_blocks;
  r->truncated = layout.truncated;
  TweetTable table;
  for (size_t b = 0; b < layout.frames.size(); ++b) {
    bool checksum_failed = false;
    auto block = DecodeVerifiedBlock(
        layout.frames[b], layout.directory_ok ? &layout.zone_maps[b] : nullptr,
        &checksum_failed);
    if (!block.ok()) {
      if (strict) return block.status();
      if (checksum_failed) ++r->checksum_failures;
      continue;
    }
    r->rows_recovered += block->num_rows();
    ++r->blocks_recovered;
    table.AdoptSealedBlock(std::move(*block));
  }
  return table;
}

/// Reads the generation out of a manifest header without validating the
/// body — used to pick a fresh generation when the installed manifest no
/// longer decodes. Returns 0 when the bytes are not a current manifest.
uint64_t PeekManifestGeneration(std::string_view bytes) {
  if (bytes.size() < 16 || std::string_view(bytes.data(), 4) !=
                               std::string_view(kManifestMagic, 4)) {
    return 0;
  }
  bytes.remove_prefix(4);
  uint32_t version;
  if (!GetFixed32(&bytes, &version) || version != kBinaryFormatVersion) return 0;
  uint64_t generation = 0;
  GetFixed64(&bytes, &generation);
  return generation;
}

Env& ResolveEnv(Env* env) { return env != nullptr ? *env : *Env::Default(); }
}  // namespace

std::string EncodeTable(const TweetTable& table) {
  std::string out;
  out.append(kMagic, 4);
  PutFixed32(&out, kBinaryFormatVersion);
  PutFixed64(&out, table.num_blocks());
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  // Zone-map directory: one fixed-size record per block, then its CRC32C —
  // readable (and prunable on) before any payload byte.
  const size_t dir_start = out.size();
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    EncodeZoneMapEntry(&out, ComputeZoneMap(table.block(b)));
  }
  PutFixed32(&out, Crc32c(out.data() + dir_start, out.size() - dir_start));
  std::string scratch;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    scratch.clear();
    EncodeCompressedBlock(table.block(b), &scratch);
    PutVarint64(&out, scratch.size());
    PutFixed32(&out, Crc32c(scratch.data(), scratch.size()));
    out.append(scratch);
  }
  return out;
}

Result<TweetTable> DecodeTable(std::string_view bytes) {
  TableSalvageReport unused;
  return DecodeTableBytes(bytes, RecoveryPolicy::kStrict, &unused);
}

Result<TweetTable> DecodeTableSalvage(std::string_view bytes,
                                      TableSalvageReport* report) {
  TableSalvageReport local;
  return DecodeTableBytes(bytes, RecoveryPolicy::kSalvage,
                          report != nullptr ? report : &local);
}

Status WriteBinaryFile(TweetTable& table, const std::string& path, Env* env,
                       const WriteOptions& options) {
  table.SealActive();
  return AtomicWriteFile(ResolveEnv(env), path, EncodeTable(table), options);
}

TableDescription DescribeTable(const TweetTable& table) {
  TableDescription d;
  d.num_blocks = table.num_blocks();
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    d.num_rows += table.block_stats(b).num_rows;
  }
  d.encoded_bytes = EncodeTable(table).size();
  d.raw_bytes = d.num_rows * 24;  // u64 user + i64 ts + 2x i32 coords
  if (d.num_rows > 0) {
    d.bytes_per_row =
        static_cast<double>(d.encoded_bytes) / static_cast<double>(d.num_rows);
  }
  if (d.encoded_bytes > 0) {
    d.compression_ratio =
        static_cast<double>(d.raw_bytes) / static_cast<double>(d.encoded_bytes);
  }
  return d;
}

Result<TweetTable> ReadBinaryFile(const std::string& path, Env* env) {
  TWIMOB_ASSIGN_OR_RETURN(const std::string bytes,
                          ReadFileToString(ResolveEnv(env), path));
  return DecodeTable(bytes);
}

namespace {
// The zone-map tail shared by shard and delta records: rows, user/time
// ranges, bounding box.
template <typename Summary>
void EncodeSummaryTail(std::string* out, const Summary& s) {
  PutFixed64(out, s.num_rows);
  PutFixed64(out, s.min_user);
  PutFixed64(out, s.max_user);
  PutFixed64(out, static_cast<uint64_t>(s.min_time));
  PutFixed64(out, static_cast<uint64_t>(s.max_time));
  PutDouble(out, s.bbox.min_lat);
  PutDouble(out, s.bbox.min_lon);
  PutDouble(out, s.bbox.max_lat);
  PutDouble(out, s.bbox.max_lon);
}

template <typename Summary>
bool DecodeSummaryTail(std::string_view* bytes, Summary* s) {
  uint64_t min_time, max_time;
  if (!GetFixed64(bytes, &s->num_rows) || !GetFixed64(bytes, &s->min_user) ||
      !GetFixed64(bytes, &s->max_user) || !GetFixed64(bytes, &min_time) ||
      !GetFixed64(bytes, &max_time) || !GetDouble(bytes, &s->bbox.min_lat) ||
      !GetDouble(bytes, &s->bbox.min_lon) ||
      !GetDouble(bytes, &s->bbox.max_lat) ||
      !GetDouble(bytes, &s->bbox.max_lon)) {
    return false;
  }
  s->min_time = static_cast<int64_t>(min_time);
  s->max_time = static_cast<int64_t>(max_time);
  return true;
}
}  // namespace

std::string EncodeManifest(const Manifest& manifest) {
  std::string out;
  out.append(kManifestMagic, 4);
  PutFixed32(&out, kBinaryFormatVersion);
  PutFixed64(&out, manifest.generation);
  PutFixed64(&out, manifest.next_delta_seq);
  PutFixed64(&out, static_cast<uint64_t>(manifest.partition.origin));
  PutFixed64(&out, static_cast<uint64_t>(manifest.partition.width_seconds));
  PutFixed64(&out, manifest.shards.size());
  for (const ShardSummary& s : manifest.shards) {
    PutFixed64(&out, static_cast<uint64_t>(s.key));
    EncodeSummaryTail(&out, s);
  }
  PutFixed64(&out, manifest.deltas.size());
  for (const DeltaSummary& d : manifest.deltas) {
    PutFixed64(&out, d.generation);
    PutFixed64(&out, d.seq);
    EncodeSummaryTail(&out, d);
  }
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<Manifest> DecodeManifest(std::string_view bytes) {
  const std::string_view full = bytes;
  if (bytes.size() < 4 || std::string_view(bytes.data(), 4) !=
                              std::string_view(kManifestMagic, 4)) {
    return Status::IOError("bad magic: not a twimob dataset manifest");
  }
  bytes.remove_prefix(4);
  Manifest manifest;
  if (!GetFixed32(&bytes, &manifest.format_version)) {
    return Status::IOError("truncated manifest header");
  }
  // Version before checksum: a v3 manifest has no trailing CRC, and the
  // caller deserves "version skew", not "checksum mismatch".
  if (manifest.format_version != kBinaryFormatVersion) {
    return Status::IOError("unsupported manifest format version " +
                           std::to_string(manifest.format_version) +
                           " (expected " +
                           std::to_string(kBinaryFormatVersion) + ")");
  }
  if (full.size() < 4 + 4 + 4) {
    return Status::IOError("truncated manifest header");
  }
  uint32_t stored_crc;
  std::string_view tail(full.data() + full.size() - 4, 4);
  if (!GetFixed32(&tail, &stored_crc) ||
      stored_crc != Crc32c(full.data(), full.size() - 4)) {
    return Status::IOError("manifest checksum mismatch");
  }
  bytes.remove_suffix(4);  // the trailing CRC, already consumed above
  uint64_t origin, width, shard_count;
  if (!GetFixed64(&bytes, &manifest.generation) ||
      !GetFixed64(&bytes, &manifest.next_delta_seq) ||
      !GetFixed64(&bytes, &origin) || !GetFixed64(&bytes, &width) ||
      !GetFixed64(&bytes, &shard_count)) {
    return Status::IOError("truncated manifest header");
  }
  manifest.partition.origin = static_cast<int64_t>(origin);
  manifest.partition.width_seconds = static_cast<int64_t>(width);
  if (manifest.partition.width_seconds < 0) {
    return Status::IOError("manifest partition width is negative");
  }
  if (shard_count > kMaxManifestShards) {
    return Status::IOError("implausible manifest shard count " +
                           std::to_string(shard_count));
  }
  manifest.shards.reserve(shard_count);
  for (uint64_t i = 0; i < shard_count; ++i) {
    ShardSummary s;
    uint64_t key;
    if (!GetFixed64(&bytes, &key) || !DecodeSummaryTail(&bytes, &s)) {
      return Status::IOError("truncated manifest: shard " + std::to_string(i) +
                             " of " + std::to_string(shard_count));
    }
    s.key = static_cast<int64_t>(key);
    if (!manifest.shards.empty() && manifest.shards.back().key >= s.key) {
      if (manifest.shards.back().key == s.key) {
        return Status::IOError("duplicate shard key " + std::to_string(s.key));
      }
      return Status::IOError("manifest shard keys out of order");
    }
    manifest.shards.push_back(s);
  }
  uint64_t delta_count;
  if (!GetFixed64(&bytes, &delta_count)) {
    return Status::IOError("truncated manifest: missing delta count");
  }
  if (delta_count > kMaxManifestDeltas) {
    return Status::IOError("implausible manifest delta count " +
                           std::to_string(delta_count));
  }
  manifest.deltas.reserve(delta_count);
  for (uint64_t i = 0; i < delta_count; ++i) {
    DeltaSummary d;
    if (!GetFixed64(&bytes, &d.generation) || !GetFixed64(&bytes, &d.seq) ||
        !DecodeSummaryTail(&bytes, &d)) {
      return Status::IOError("truncated manifest: delta " + std::to_string(i) +
                             " of " + std::to_string(delta_count));
    }
    if (!manifest.deltas.empty() && manifest.deltas.back().seq >= d.seq) {
      if (manifest.deltas.back().seq == d.seq) {
        return Status::IOError("duplicate delta seq " + std::to_string(d.seq));
      }
      return Status::IOError("manifest delta seqs out of order");
    }
    if (d.seq >= manifest.next_delta_seq) {
      // The cursor names the next seq to hand out; a recorded delta at or
      // past it means a corrupt (or hand-forged) manifest.
      return Status::IOError("delta seq " + std::to_string(d.seq) +
                             " not below the append cursor " +
                             std::to_string(manifest.next_delta_seq));
    }
    manifest.deltas.push_back(d);
  }
  if (!bytes.empty()) {
    return Status::IOError("trailing bytes after the last manifest entry");
  }
  return manifest;
}

std::string ShardFilePath(const std::string& manifest_path, uint64_t generation,
                          int64_t key) {
  return StrFormat("%s.g%llu.shard-%lld", manifest_path.c_str(),
                   static_cast<unsigned long long>(generation),
                   static_cast<long long>(key));
}

std::string DeltaFilePath(const std::string& manifest_path, uint64_t generation,
                          uint64_t seq) {
  return StrFormat("%s.g%llu.delta-%llu", manifest_path.c_str(),
                   static_cast<unsigned long long>(generation),
                   static_cast<unsigned long long>(seq));
}

namespace {
std::vector<std::string> ManifestFiles(const std::string& manifest_path,
                                       const Manifest& manifest) {
  std::vector<std::string> files;
  files.reserve(manifest.shards.size() + manifest.deltas.size());
  for (const ShardSummary& s : manifest.shards) {
    files.push_back(ShardFilePath(manifest_path, manifest.generation, s.key));
  }
  for (const DeltaSummary& d : manifest.deltas) {
    files.push_back(DeltaFilePath(manifest_path, d.generation, d.seq));
  }
  return files;
}
}  // namespace

std::vector<std::string> ManifestFileSetDifference(
    const std::string& manifest_path, const Manifest& old_manifest,
    const Manifest& new_manifest) {
  std::vector<std::string> keep = ManifestFiles(manifest_path, new_manifest);
  std::sort(keep.begin(), keep.end());
  std::vector<std::string> removable;
  for (std::string& f : ManifestFiles(manifest_path, old_manifest)) {
    if (!std::binary_search(keep.begin(), keep.end(), f)) {
      removable.push_back(std::move(f));
    }
  }
  return removable;
}

Status WriteDatasetFiles(TweetDataset& dataset, const std::string& path,
                         Env* env_in, const WriteOptions& options) {
  Env& env = ResolveEnv(env_in);
  dataset.SealAll();
  // Shards are stored in compaction order, so an open's compact stage only
  // checks the order (TweetTable::CompactByUserTime) instead of sorting.
  if (!dataset.sorted_by_user_time()) dataset.CompactShards();
  Manifest manifest = dataset.BuildManifest();
  manifest.format_version = kBinaryFormatVersion;

  // A rewrite must never touch the files the installed manifest points at,
  // so the new dataset goes under the next generation and the old files
  // are removed only after the new manifest is in place.
  manifest.generation = 1;
  Manifest old_manifest;
  bool have_old = false;
  if (env.FileExists(path)) {
    TWIMOB_ASSIGN_OR_RETURN(const std::string old_bytes,
                            ReadFileToString(env, path));
    auto old_decoded = DecodeManifest(old_bytes);
    if (old_decoded.ok()) {
      old_manifest = std::move(*old_decoded);
      have_old = true;
      manifest.generation = old_manifest.generation + 1;
      // A full rewrite subsumes any pending deltas, but the append cursor
      // never rewinds: (generation, next_delta_seq) stays monotonic.
      manifest.next_delta_seq = old_manifest.next_delta_seq;
    } else {
      // The installed manifest is unreadable (e.g. version skew). The old
      // dataset is already lost to strict readers; just avoid reusing its
      // generation so stale shard files cannot alias new ones.
      manifest.generation = PeekManifestGeneration(old_bytes) + 1;
    }
  }

  // Shard files first...
  for (size_t i = 0; i < dataset.num_shards(); ++i) {
    dataset.mutable_shard(i).SealActive();
    TWIMOB_RETURN_IF_ERROR(AtomicWriteFile(
        env, ShardFilePath(path, manifest.generation, dataset.shard_key(i)),
        EncodeTable(dataset.shard(i)), options));
  }
  // ...the manifest last: its rename is the commit point.
  TWIMOB_RETURN_IF_ERROR(
      AtomicWriteFile(env, path, EncodeManifest(manifest), options));

  // Garbage-collect by file-set difference: every file the old manifest
  // referenced (shards and deltas alike) that the new manifest no longer
  // references. Best effort: a leftover file wastes space but can never be
  // read (no installed manifest names it). A generation pinned by a live
  // snapshot (serve layer readers) is never deleted here — its files are
  // deferred and swept by a later commit once the pin count drops to zero.
  if (have_old && old_manifest.generation != manifest.generation) {
    std::vector<std::string> old_files =
        ManifestFileSetDifference(path, old_manifest, manifest);
    if (IsGenerationPinned(path, old_manifest.generation)) {
      DeferGenerationRemoval(path, old_manifest.generation, std::move(old_files));
    } else {
      for (const std::string& f : old_files) (void)env.RemoveFile(f);
    }
  }
  // Sweep generations whose removal an earlier commit deferred and whose
  // pins have since been released.
  for (const std::string& f : TakeUnpinnedDeferredFiles(path)) {
    (void)env.RemoveFile(f);
  }
  return Status::OK();
}

namespace {
/// One shard or delta file on its way into a dataset: the read, then the
/// decode. A file whose read failed is never decoded.
struct LoadedFile {
  Status read = Status::OK();
  std::string bytes;
  Result<TweetTable> table = Status::Internal("table file not decoded");
  TableSalvageReport salvage;
};

/// Reads `file` into `loaded`; returns the read status.
Status ReadTableFile(Env& env, const std::string& file, LoadedFile* loaded) {
  auto bytes = ReadFileToString(env, file);
  if (bytes.ok()) {
    loaded->bytes = std::move(*bytes);
  } else {
    loaded->read = bytes.status();
  }
  return loaded->read;
}

/// Decodes a read file under `policy` and frees its encoded bytes. Touches
/// only `loaded`, so files decode concurrently.
void DecodeTableFile(RecoveryPolicy policy, LoadedFile* loaded) {
  if (!loaded->read.ok()) return;
  loaded->table = DecodeTableBytes(loaded->bytes, policy, &loaded->salvage);
  std::string().swap(loaded->bytes);
}

/// Adopts a decoded shard (`is_delta` false) or delta file into `dataset`
/// and accounts for it in `*rec`, whose key and rows_expected the caller
/// sets. A shard is adopted whole under its key; a delta's rows are
/// re-routed into their time shards. Under kStrict any damage — an
/// unreadable or corrupt file, a row count that disagrees with the
/// manifest, a rejected shard or row — is the returned error. Under
/// kSalvage the loss is recorded in `*rec` instead and the call succeeds.
Status AdoptTableFile(LoadedFile& loaded, bool is_delta, RecoveryPolicy policy,
                      TweetDataset* dataset, ShardRecovery* rec) {
  const bool strict = policy == RecoveryPolicy::kStrict;
  auto drop = [strict, rec](Status status) {
    if (strict) return status;
    rec->dropped = true;
    rec->rows_recovered = 0;
    rec->status = std::move(status);
    return Status::OK();
  };
  if (!loaded.read.ok()) return drop(loaded.read);
  Result<TweetTable>& table = loaded.table;
  if (!table.ok()) return drop(table.status());
  const TableSalvageReport& tsr = loaded.salvage;
  rec->blocks_total = tsr.blocks_total;
  rec->blocks_dropped = tsr.blocks_total - tsr.blocks_recovered;
  rec->checksum_failures = tsr.checksum_failures;
  rec->truncated = tsr.truncated;
  if (rec->blocks_dropped == 0 && !rec->truncated &&
      table->num_rows() != rec->rows_expected) {
    Status mismatch = Status::IOError(StrFormat(
        "%s %lld row count mismatch: manifest says %llu, file has %zu",
        is_delta ? "delta" : "shard", static_cast<long long>(rec->key),
        static_cast<unsigned long long>(rec->rows_expected), table->num_rows()));
    if (strict) return mismatch;
    rec->status = std::move(mismatch);
  }
  if (!is_delta) {
    const size_t rows = table->num_rows();
    if (Status adopt = dataset->AdoptShard(rec->key, std::move(*table));
        !adopt.ok()) {
      return drop(std::move(adopt));
    }
    rec->rows_recovered = rows;
    return Status::OK();
  }
  Status append = Status::OK();
  table->ForEachRow([dataset, rec, &append](const Tweet& t) {
    Status s = dataset->Append(t);
    if (s.ok()) {
      ++rec->rows_recovered;
    } else if (append.ok()) {
      append = std::move(s);
    }
  });
  return strict ? append : Status::OK();
}

/// Read, decode and adopt of one file, for the delta reader.
Status LoadTableFile(Env& env, const std::string& file, bool is_delta,
                     RecoveryPolicy policy, TweetDataset* dataset,
                     ShardRecovery* rec) {
  LoadedFile loaded;
  (void)ReadTableFile(env, file, &loaded);
  DecodeTableFile(policy, &loaded);
  return AdoptTableFile(loaded, is_delta, policy, dataset, rec);
}
}  // namespace

Result<TweetDataset> ReadDatasetFiles(const std::string& path,
                                      RecoveryPolicy policy,
                                      RecoveryReport* report, Env* env_in,
                                      ThreadPool* pool) {
  Env& env = ResolveEnv(env_in);
  RecoveryReport local;
  RecoveryReport& r = report != nullptr ? *report : local;
  r = RecoveryReport{};
  r.policy = policy;

  // The manifest is required under both policies: it is small, written
  // atomically and CRC-guarded, and without it the dataset's shape (keys,
  // generation, partition) is unknowable.
  TWIMOB_ASSIGN_OR_RETURN(const std::string manifest_bytes,
                          ReadFileToString(env, path));
  TWIMOB_ASSIGN_OR_RETURN(Manifest manifest, DecodeManifest(manifest_bytes));
  r.generation = manifest.generation;
  r.next_delta_seq = manifest.next_delta_seq;

  // Files in manifest order: shards by key, then deltas by seq. Reads stay
  // serial and in that order, so the env sees the same operation sequence
  // with or without a pool; a strict read failure stops the reads there.
  // Without a pool each file decodes right after its read, while its bytes
  // are still in cache; with one, the payloads then decode concurrently,
  // each into its own slot. Under kStrict the first file that fails to
  // decode is the load's error, so no file after it is decoded:
  // `first_failed` only ever drops to an index whose decode really failed,
  // so every file before the first failure is always decoded.
  const size_t num_shards = manifest.shards.size();
  std::vector<LoadedFile> files(num_shards + manifest.deltas.size());
  const bool strict = policy == RecoveryPolicy::kStrict;
  std::atomic<size_t> first_failed{files.size()};
  auto decode = [strict, policy, &files, &first_failed](size_t i) {
    if (strict && i > first_failed.load()) return;
    DecodeTableFile(policy, &files[i]);
    if (!strict || files[i].table.ok()) return;
    size_t seen = first_failed.load();
    while (i < seen && !first_failed.compare_exchange_weak(seen, i)) {
    }
  };
  size_t num_read = 0;
  while (num_read < files.size()) {
    const size_t i = num_read++;
    const std::string file =
        i < num_shards
            ? ShardFilePath(path, manifest.generation, manifest.shards[i].key)
            : DeltaFilePath(path, manifest.deltas[i - num_shards].generation,
                            manifest.deltas[i - num_shards].seq);
    if (!ReadTableFile(env, file, &files[i]).ok() && strict) break;
    if (pool == nullptr) decode(i);
  }
  if (pool != nullptr) pool->ParallelFor(num_read, decode);

  // Adoption and accounting run in manifest order, so the dataset, the
  // report and the first strict error are the serial loader's. Appended
  // deltas fold into their time shards in seq order — a fixed order, so
  // the merged dataset is deterministic. The shards end up unsorted
  // whenever any delta carried rows; the analysis compact stage re-sorts,
  // and the total-order sort makes the result identical to compacting a
  // dataset that ingested the same rows directly.
  TweetDataset dataset(manifest.partition);
  for (size_t i = 0; i < num_read; ++i) {
    const bool is_delta = i >= num_shards;
    ShardRecovery& rec =
        is_delta ? r.deltas.emplace_back() : r.shards.emplace_back();
    if (is_delta) {
      rec.key = static_cast<int64_t>(manifest.deltas[i - num_shards].seq);
      rec.rows_expected = manifest.deltas[i - num_shards].num_rows;
    } else {
      rec.key = manifest.shards[i].key;
      rec.rows_expected = manifest.shards[i].num_rows;
    }
    TWIMOB_RETURN_IF_ERROR(
        AdoptTableFile(files[i], is_delta, policy, &dataset, &rec));
  }
  // Delta rows land in active tails; hand back a fully sealed dataset so
  // the block-parallel scan paths stay available.
  if (!manifest.deltas.empty()) dataset.SealAll();
  return dataset;
}

Result<TweetDataset> ReadDeltaFiles(const std::string& path,
                                    const Manifest& manifest, uint64_t from_seq,
                                    std::vector<ShardRecovery>* accounting,
                                    Env* env_in) {
  Env& env = ResolveEnv(env_in);
  TweetDataset dataset(manifest.partition);
  for (const DeltaSummary& d : manifest.deltas) {
    if (d.seq < from_seq) continue;
    ShardRecovery rec;
    rec.key = static_cast<int64_t>(d.seq);
    rec.rows_expected = d.num_rows;
    TWIMOB_RETURN_IF_ERROR(LoadTableFile(env, DeltaFilePath(path, d.generation, d.seq),
                                         /*is_delta=*/true, RecoveryPolicy::kStrict,
                                         &dataset, &rec));
    if (accounting != nullptr) accounting->push_back(std::move(rec));
  }
  dataset.SealAll();
  return dataset;
}

namespace {
Result<uint64_t> SizeOfFile(Env& env, const std::string& path) {
  TWIMOB_ASSIGN_OR_RETURN(const auto file, env.NewRandomAccessFile(path));
  return file->Size();
}
}  // namespace

Result<DatasetDescription> DescribeDataset(const std::string& path,
                                           Env* env_in) {
  Env& env = ResolveEnv(env_in);
  TWIMOB_ASSIGN_OR_RETURN(const std::string manifest_bytes,
                          ReadFileToString(env, path));
  TWIMOB_ASSIGN_OR_RETURN(const Manifest manifest,
                          DecodeManifest(manifest_bytes));
  DatasetDescription d;
  d.generation = manifest.generation;
  d.next_delta_seq = manifest.next_delta_seq;
  d.manifest_bytes = manifest_bytes.size();
  for (const ShardSummary& s : manifest.shards) {
    DatasetDescription::FileEntry e;
    e.label = StrFormat("shard-%lld", static_cast<long long>(s.key));
    e.generation = manifest.generation;
    e.rows = s.num_rows;
    TWIMOB_ASSIGN_OR_RETURN(
        e.bytes, SizeOfFile(env, ShardFilePath(path, manifest.generation, s.key)));
    d.total_rows += e.rows;
    d.shard_bytes += e.bytes;
    d.shards.push_back(std::move(e));
  }
  for (const DeltaSummary& del : manifest.deltas) {
    DatasetDescription::FileEntry e;
    e.label = StrFormat("delta-%llu", static_cast<unsigned long long>(del.seq));
    e.generation = del.generation;
    e.rows = del.num_rows;
    TWIMOB_ASSIGN_OR_RETURN(
        e.bytes, SizeOfFile(env, DeltaFilePath(path, del.generation, del.seq)));
    d.total_rows += e.rows;
    d.delta_bytes += e.bytes;
    d.deltas.push_back(std::move(e));
  }
  const uint64_t on_disk = d.shard_bytes + d.delta_bytes + d.manifest_bytes;
  if (on_disk > 0) {
    d.compression_ratio = static_cast<double>(d.total_rows * 24) /
                          static_cast<double>(on_disk);
  }
  return d;
}

std::string DatasetDescription::ToString() const {
  std::string out = StrFormat(
      "dataset generation %llu (append cursor %llu): %llu rows, %llu bytes "
      "on disk, %.2fx compression vs 24 B/row\n",
      static_cast<unsigned long long>(generation),
      static_cast<unsigned long long>(next_delta_seq),
      static_cast<unsigned long long>(total_rows),
      static_cast<unsigned long long>(shard_bytes + delta_bytes +
                                      manifest_bytes),
      compression_ratio);
  out += StrFormat("  manifest: %llu bytes\n",
                   static_cast<unsigned long long>(manifest_bytes));
  out += StrFormat("  %llu shard(s), %llu bytes:\n",
                   static_cast<unsigned long long>(shards.size()),
                   static_cast<unsigned long long>(shard_bytes));
  for (const FileEntry& e : shards) {
    out += StrFormat("    g%llu.%s: %llu rows, %llu bytes\n",
                     static_cast<unsigned long long>(e.generation),
                     e.label.c_str(), static_cast<unsigned long long>(e.rows),
                     static_cast<unsigned long long>(e.bytes));
  }
  if (deltas.empty()) {
    out += "  delta backlog: none\n";
  } else {
    uint64_t delta_rows = 0;
    for (const FileEntry& e : deltas) delta_rows += e.rows;
    out += StrFormat("  delta backlog: %llu file(s), %llu rows, %llu bytes:\n",
                     static_cast<unsigned long long>(deltas.size()),
                     static_cast<unsigned long long>(delta_rows),
                     static_cast<unsigned long long>(delta_bytes));
    for (const FileEntry& e : deltas) {
      out += StrFormat("    g%llu.%s: %llu rows, %llu bytes\n",
                       static_cast<unsigned long long>(e.generation),
                       e.label.c_str(), static_cast<unsigned long long>(e.rows),
                       static_cast<unsigned long long>(e.bytes));
    }
  }
  // Per-generation rollup (deltas may span older generations than the
  // sealed shards after a compaction carried them forward).
  std::map<uint64_t, uint64_t> rows_by_gen;
  for (const FileEntry& e : shards) rows_by_gen[e.generation] += e.rows;
  for (const FileEntry& e : deltas) rows_by_gen[e.generation] += e.rows;
  out += "  rows by generation:";
  for (const auto& [gen, rows] : rows_by_gen) {
    out += StrFormat(" g%llu=%llu", static_cast<unsigned long long>(gen),
                     static_cast<unsigned long long>(rows));
  }
  out += "\n";
  return out;
}

}  // namespace twimob::tweetdb
