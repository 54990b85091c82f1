#include "tweetdb/encoding.h"

#include "common/logging.h"

namespace twimob::tweetdb {

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

bool GetVarint64(std::string_view* src, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (shift <= 63) {
    if (src->empty()) return false;
    const uint8_t byte = static_cast<uint8_t>(src->front());
    src->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // malformed: more than 10 continuation bytes
}

uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

void PutSignedVarint64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

bool GetSignedVarint64(std::string_view* src, int64_t* value) {
  uint64_t u;
  if (!GetVarint64(src, &u)) return false;
  *value = ZigZagDecode(u);
  return true;
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xFF);
  buf[1] = static_cast<char>((value >> 8) & 0xFF);
  buf[2] = static_cast<char>((value >> 16) & 0xFF);
  buf[3] = static_cast<char>((value >> 24) & 0xFF);
  dst->append(buf, 4);
}

bool GetFixed32(std::string_view* src, uint32_t* value) {
  if (src->size() < 4) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(src->data());
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  src->remove_prefix(4);
  return true;
}

void PutFixed64(std::string* dst, uint64_t value) {
  PutFixed32(dst, static_cast<uint32_t>(value & 0xFFFFFFFFULL));
  PutFixed32(dst, static_cast<uint32_t>(value >> 32));
}

bool GetFixed64(std::string_view* src, uint64_t* value) {
  uint32_t lo, hi;
  if (!GetFixed32(src, &lo) || !GetFixed32(src, &hi)) return false;
  *value = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

int BitsNeeded(uint64_t max_value) {
  int bits = 0;
  while (max_value != 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

void PutBitPacked(std::string* dst, const std::vector<uint64_t>& values,
                  int bit_width) {
  TWIMOB_DCHECK(bit_width >= 1 && bit_width <= 64);
  uint64_t word = 0;
  int filled = 0;
  auto flush_word = [dst](uint64_t w) { PutFixed64(dst, w); };
  for (uint64_t v : values) {
    TWIMOB_DCHECK(bit_width == 64 || (v >> bit_width) == 0);
    word |= v << filled;
    const int remaining = 64 - filled;
    if (bit_width >= remaining) {
      flush_word(word);
      // High bits that did not fit into the flushed word.
      word = remaining == 64 ? 0 : v >> remaining;
      filled = bit_width - remaining;
    } else {
      filled += bit_width;
    }
  }
  if (filled > 0) flush_word(word);
}

}  // namespace twimob::tweetdb
