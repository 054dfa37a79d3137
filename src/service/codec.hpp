// The one binary encoding of the solve service: every fabric payload
// (service/wire.hpp), every cache entry and every snapshot file
// (service/cache.hpp) is a fixed sequence of fields written by
// ByteWriter and read back by ByteReader.
//
//   - integers are little-endian, of a fixed width per field;
//   - a double is its raw IEEE-754 bit pattern as a u64, so every value
//     (-0.0, infinities, NaN payloads) survives bit for bit;
//   - a string is a u32 byte length followed by the bytes;
//   - a list is a u32 element count followed by the elements.
//
// The reader is total: every read reports failure instead of throwing,
// never reads past the end, and count() refuses a count whose elements
// could not fit in the bytes that remain, so a caller may size a vector
// by it and a hostile count allocates no more than the bytes it came in.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/canonical.hpp"

namespace prts::service {

class ByteWriter {
 public:
  void u8(std::uint8_t value) { put(value); }
  void u16(std::uint16_t value) { put(value); }
  void u32(std::uint32_t value) { put(value); }
  void u64(std::uint64_t value) { put(value); }
  void f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }
  void key(const CanonicalHash& key) {
    put(key.hi);
    put(key.lo);
  }
  /// A length-prefixed string.
  void text(std::string_view bytes) {
    put(static_cast<std::uint32_t>(bytes.size()));
    out_.append(bytes);
  }
  /// Bytes with no prefix (an already encoded field).
  void raw(std::string_view bytes) { out_.append(bytes); }

  const std::string& bytes() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <typename Unsigned>
  void put(Unsigned value) {
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) {
      out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : rest_(bytes) {}

  bool u8(std::uint8_t& value) noexcept { return get(value); }
  bool u16(std::uint16_t& value) noexcept { return get(value); }
  bool u32(std::uint32_t& value) noexcept { return get(value); }
  bool u64(std::uint64_t& value) noexcept { return get(value); }
  bool f64(double& value) noexcept {
    std::uint64_t bits = 0;
    if (!get(bits)) return false;
    value = std::bit_cast<double>(bits);
    return true;
  }
  bool key(CanonicalHash& key) noexcept { return get(key.hi) && get(key.lo); }

  /// A length-prefixed string, viewed in place.
  bool text(std::string_view& value) noexcept {
    std::uint32_t length = 0;
    if (!get(length) || length > rest_.size()) return false;
    value = rest_.substr(0, length);
    rest_.remove_prefix(length);
    return true;
  }
  bool text(std::string& value) {
    std::string_view view;
    if (!text(view)) return false;
    value.assign(view);
    return true;
  }

  /// A u32 element count, refused when `count` elements of at least
  /// `min_element_bytes` each would not fit in the bytes that remain.
  bool count(std::size_t& value, std::size_t min_element_bytes) noexcept {
    std::uint32_t claimed = 0;
    if (!get(claimed) || claimed > rest_.size() / min_element_bytes) {
      return false;
    }
    value = claimed;
    return true;
  }

  bool at_end() const noexcept { return rest_.empty(); }

 private:
  template <typename Unsigned>
  bool get(Unsigned& value) noexcept {
    if (rest_.size() < sizeof(Unsigned)) return false;
    Unsigned decoded = 0;
    for (std::size_t i = sizeof(Unsigned); i-- > 0;) {
      decoded = static_cast<Unsigned>(
          (decoded << 8) | static_cast<unsigned char>(rest_[i]));
    }
    value = decoded;
    rest_.remove_prefix(sizeof(Unsigned));
    return true;
  }

  std::string_view rest_;
};

}  // namespace prts::service
