#include "tweetdb/block_compression.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "tweetdb/encoding.h"

namespace twimob::tweetdb {

namespace {

// ---------------------------------------------------------------------------
// Scalar bit-unpack reference.

void UnpackScalar(const uint64_t* words, size_t count, int width, uint64_t* out) {
  if (width == 64) {
    std::memcpy(out, words, count * sizeof(uint64_t));
    return;
  }
  const uint64_t mask = (uint64_t{1} << width) - 1;
  const size_t uwidth = static_cast<size_t>(width);
  for (size_t i = 0; i < count; ++i) {
    const size_t bit = i * uwidth;
    const size_t word = bit >> 6;
    const size_t shift = bit & 63;
    uint64_t value = words[word] >> shift;
    // Only touch the next word when the value actually spans into it —
    // the last packed value may end exactly at the stream's final word.
    if (shift + uwidth > 64) value |= words[word + 1] << (64 - shift);
    out[i] = value & mask;
  }
}

const UnpackKernels kScalarUnpackKernels = {&UnpackScalar, "scalar"};

// ---------------------------------------------------------------------------
// Column codec. Every column travels as 64-bit lanes: user ids as-is,
// timestamps value-cast, fixed-point coordinates sign-extended. delta[i] =
// lane[i] - lane[i-1] in wrapping uint64 arithmetic; min/max of the deltas
// are taken under signed comparison so a descending run still yields a
// tight frame. All of it is exact for arbitrary lanes because encode and
// decode use the same wrapping group operations.

void EncodeLaneColumn(std::string* dst, const uint64_t* lanes, size_t n) {
  std::string seg;
  if (n > 0) {
    PutFixed64(&seg, lanes[0]);
    if (n > 1) {
      std::vector<uint64_t> deltas(n - 1);
      int64_t min_delta = 0;
      int64_t max_delta = 0;
      for (size_t i = 1; i < n; ++i) {
        const uint64_t d = lanes[i] - lanes[i - 1];
        deltas[i - 1] = d;
        const int64_t sd = static_cast<int64_t>(d);
        if (i == 1) {
          min_delta = max_delta = sd;
        } else {
          min_delta = std::min(min_delta, sd);
          max_delta = std::max(max_delta, sd);
        }
      }
      const uint64_t range =
          static_cast<uint64_t>(max_delta) - static_cast<uint64_t>(min_delta);
      const int width = BitsNeeded(range);
      PutSignedVarint64(&seg, min_delta);
      seg.push_back(static_cast<char>(width));
      if (width > 0) {
        for (uint64_t& d : deltas) d -= static_cast<uint64_t>(min_delta);
        PutBitPacked(&seg, deltas, width);
      }
    }
  }
  PutVarint64(dst, seg.size());
  dst->append(seg);
}

Status DecodeLaneColumn(std::string_view seg, size_t n,
                        std::vector<uint64_t>* out) {
  out->clear();
  if (n == 0) {
    if (!seg.empty()) return Status::IOError("empty column segment has payload");
    return Status::OK();
  }
  out->resize(n);
  uint64_t first;
  if (!GetFixed64(&seg, &first)) {
    return Status::IOError("truncated column first value");
  }
  (*out)[0] = first;
  if (n == 1) {
    if (!seg.empty()) return Status::IOError("trailing bytes in column segment");
    return Status::OK();
  }
  int64_t min_delta;
  if (!GetSignedVarint64(&seg, &min_delta)) {
    return Status::IOError("truncated column delta header");
  }
  if (seg.empty()) return Status::IOError("truncated column bit width");
  const int width = static_cast<uint8_t>(seg.front());
  seg.remove_prefix(1);
  if (width > 64) return Status::IOError("column bit width out of range");
  const size_t count = n - 1;
  if (width == 0) {
    if (!seg.empty()) return Status::IOError("trailing bytes in column segment");
    uint64_t value = first;
    for (size_t i = 1; i < n; ++i) {
      value += static_cast<uint64_t>(min_delta);
      (*out)[i] = value;
    }
    return Status::OK();
  }
  const size_t total_bits = count * static_cast<size_t>(width);
  const size_t num_words = (total_bits + 63) / 64;
  if (seg.size() != num_words * 8) {
    return Status::IOError("column bitpack payload size mismatch");
  }
  // Materialise the little-endian word stream into aligned scratch so the
  // unpack kernels can assume aligned host-order words (the payload bytes
  // sit at any offset of the file buffer).
  std::vector<uint64_t> words(num_words);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(seg.data());
  for (size_t w = 0; w < num_words; ++w, p += 8) {
    words[w] = static_cast<uint64_t>(p[0]) | (static_cast<uint64_t>(p[1]) << 8) |
               (static_cast<uint64_t>(p[2]) << 16) |
               (static_cast<uint64_t>(p[3]) << 24) |
               (static_cast<uint64_t>(p[4]) << 32) |
               (static_cast<uint64_t>(p[5]) << 40) |
               (static_cast<uint64_t>(p[6]) << 48) |
               (static_cast<uint64_t>(p[7]) << 56);
  }
  std::vector<uint64_t> offsets(count);
  ActiveUnpackKernels().unpack(words.data(), count, width, offsets.data());
  uint64_t value = first;
  for (size_t i = 0; i < count; ++i) {
    value += static_cast<uint64_t>(min_delta) + offsets[i];
    (*out)[i + 1] = value;
  }
  return Status::OK();
}

/// Splits the next length-prefixed segment off the front of `*src`.
Status NextSegment(std::string_view* src, std::string_view* seg) {
  uint64_t size;
  if (!GetVarint64(src, &size)) {
    return Status::IOError("truncated compressed column size");
  }
  if (src->size() < size) return Status::IOError("truncated compressed column");
  *seg = src->substr(0, static_cast<size_t>(size));
  src->remove_prefix(static_cast<size_t>(size));
  return Status::OK();
}

}  // namespace

void EncodeCompressedBlock(const Block& block, std::string* dst) {
  const size_t n = block.num_rows();
  PutVarint64(dst, n);

  EncodeLaneColumn(dst, block.user_ids().data(), n);

  std::vector<uint64_t> lanes(n);
  for (size_t i = 0; i < n; ++i) {
    lanes[i] = static_cast<uint64_t>(block.timestamps()[i]);
  }
  EncodeLaneColumn(dst, lanes.data(), n);
  for (size_t i = 0; i < n; ++i) {
    lanes[i] = static_cast<uint64_t>(static_cast<int64_t>(block.lat_fixed()[i]));
  }
  EncodeLaneColumn(dst, lanes.data(), n);
  for (size_t i = 0; i < n; ++i) {
    lanes[i] = static_cast<uint64_t>(static_cast<int64_t>(block.lon_fixed()[i]));
  }
  EncodeLaneColumn(dst, lanes.data(), n);
}

Result<Block> DecodeCompressedBlock(std::string_view bytes) {
  uint64_t n;
  if (!GetVarint64(&bytes, &n)) {
    return Status::IOError("truncated compressed block header");
  }
  if (n > kMaxCompressedBlockRows) {
    return Status::IOError(
        StrFormat("compressed block claims %llu rows (limit %llu)",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(kMaxCompressedBlockRows)));
  }
  const size_t rows = static_cast<size_t>(n);

  std::string_view seg;
  std::vector<uint64_t> lanes;

  TWIMOB_RETURN_IF_ERROR(NextSegment(&bytes, &seg));
  TWIMOB_RETURN_IF_ERROR(DecodeLaneColumn(seg, rows, &lanes));
  std::vector<uint64_t> users = std::move(lanes);

  lanes = {};
  TWIMOB_RETURN_IF_ERROR(NextSegment(&bytes, &seg));
  TWIMOB_RETURN_IF_ERROR(DecodeLaneColumn(seg, rows, &lanes));
  std::vector<int64_t> timestamps(rows);
  for (size_t i = 0; i < rows; ++i) {
    timestamps[i] = static_cast<int64_t>(lanes[i]);
  }

  auto decode_coords = [&](std::vector<int32_t>* out) -> Status {
    TWIMOB_RETURN_IF_ERROR(NextSegment(&bytes, &seg));
    TWIMOB_RETURN_IF_ERROR(DecodeLaneColumn(seg, rows, &lanes));
    out->resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      const int64_t v = static_cast<int64_t>(lanes[i]);
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::IOError("compressed coordinate lane out of int32 range");
      }
      (*out)[i] = static_cast<int32_t>(v);
    }
    return Status::OK();
  };
  std::vector<int32_t> lat_fixed, lon_fixed;
  TWIMOB_RETURN_IF_ERROR(decode_coords(&lat_fixed));
  TWIMOB_RETURN_IF_ERROR(decode_coords(&lon_fixed));

  if (!bytes.empty()) {
    return Status::IOError("trailing bytes after compressed block");
  }
  return Block::FromColumns(std::move(users), std::move(timestamps),
                            std::move(lat_fixed), std::move(lon_fixed));
}

const UnpackKernels& ScalarUnpackKernels() { return kScalarUnpackKernels; }

const UnpackKernels& ActiveUnpackKernels() {
  static const UnpackKernels* const active = [] {
    const UnpackKernels* simd = SimdUnpackKernels();
    if (simd != nullptr && !GetCpuFeatures().force_scalar) return simd;
    return &kScalarUnpackKernels;
  }();
  return *active;
}

}  // namespace twimob::tweetdb
