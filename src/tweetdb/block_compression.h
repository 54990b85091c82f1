#ifndef TWIMOB_TWEETDB_BLOCK_COMPRESSION_H_
#define TWIMOB_TWEETDB_BLOCK_COMPRESSION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "tweetdb/block.h"

namespace twimob::tweetdb {

/// Delta + frame-of-reference bitpacked block payload codec (introduced in
/// format v6; since v7 the only payload codec, for shards and deltas alike).
///
/// Layout: varint num_rows, then four length-prefixed column segments
/// (users, timestamps, lat_fixed, lon_fixed). Each segment encodes its
/// column as 64-bit lanes (timestamps cast, coordinates sign-extended):
///
///   fixed64 first_value                      (absent when the block is empty)
///   signed-varint min_delta | width byte     (absent when num_rows < 2)
///   bitpacked offsets                        (absent when width == 0)
///
/// where delta[i] = lane[i] - lane[i-1] (wrapping uint64 arithmetic),
/// min_delta / max_delta are taken under SIGNED comparison, width =
/// BitsNeeded(max_delta - min_delta), and offset[i] = delta[i] - min_delta.
/// Decoding is the exact wrapping inverse (lane[i] = lane[i-1] + min_delta
/// + offset[i]), so round-trips are bit-exact for every possible column.
/// The first value is stored raw so a large absolute magnitude never
/// widens the frame-of-reference range.

/// Hard ceiling on the row count a compressed payload may claim. A width-0
/// (constant-delta) column costs O(1) bytes regardless of row count, so
/// without this cap a corrupted header could demand an unbounded
/// allocation before any checksum of the decoded data can run.
inline constexpr uint64_t kMaxCompressedBlockRows = uint64_t{1} << 24;

/// Appends the compressed payload of `block` to `dst`.
void EncodeCompressedBlock(const Block& block, std::string* dst);

/// Decodes one compressed payload. The payload must be exactly one block —
/// trailing bytes are rejected, as are out-of-range widths, row counts
/// beyond kMaxCompressedBlockRows, and coordinate lanes outside int32.
Result<Block> DecodeCompressedBlock(std::string_view bytes);

/// Bit-unpack kernel surface, dispatched once at startup like the columnar
/// filter kernels (see filter_kernels.h). `unpack` reads `count` values of
/// `width` bits (1..64), LSB-first from the little-endian word stream
/// `words` (ceil(count*width/64) words), into `out`. The SIMD and scalar
/// implementations are bit-identical by contract (differential-tested).
struct UnpackKernels {
  void (*unpack)(const uint64_t* words, size_t count, int width, uint64_t* out);
  const char* name;  ///< "scalar", "avx2"
};

/// The portable reference implementation.
const UnpackKernels& ScalarUnpackKernels();

/// The best SIMD implementation this CPU supports, or nullptr when there is
/// none (defined in block_compression_simd.cc).
const UnpackKernels* SimdUnpackKernels();

/// The implementation the decoder actually uses: SIMD when available unless
/// TWIMOB_FORCE_SCALAR=1 (resolved once via GetCpuFeatures()).
const UnpackKernels& ActiveUnpackKernels();

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_BLOCK_COMPRESSION_H_
