#ifndef TWIMOB_TWEETDB_ENCODING_H_
#define TWIMOB_TWEETDB_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace twimob::tweetdb {

/// Low-level byte encodings used by the table file format and the block
/// payload codec (block_compression.h). All "Put" functions append to
/// `dst`; all "Get" functions consume from the front of `*src` and return
/// false on truncated input.

/// LEB128 variable-length unsigned integer (1–10 bytes).
void PutVarint64(std::string* dst, uint64_t value);
bool GetVarint64(std::string_view* src, uint64_t* value);

/// ZigZag mapping of signed to unsigned so small-magnitude deltas encode
/// short.
uint64_t ZigZagEncode(int64_t value);
int64_t ZigZagDecode(uint64_t value);

/// Signed varint = zigzag + varint.
void PutSignedVarint64(std::string* dst, int64_t value);
bool GetSignedVarint64(std::string_view* src, int64_t* value);

/// Little-endian fixed-width integers.
void PutFixed32(std::string* dst, uint32_t value);
bool GetFixed32(std::string_view* src, uint32_t* value);
void PutFixed64(std::string* dst, uint64_t value);
bool GetFixed64(std::string_view* src, uint64_t* value);

/// Smallest bit width able to represent `max_value` (0 -> width 0; callers
/// handle the all-zero column as a special case).
int BitsNeeded(uint64_t max_value);

/// Packs `values` at `bit_width` bits each, LSB-first within a little-endian
/// 64-bit word stream. Every value must fit in `bit_width` bits
/// (DCHECK-enforced). bit_width in [1, 64].
void PutBitPacked(std::string* dst, const std::vector<uint64_t>& values,
                  int bit_width);

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_ENCODING_H_
