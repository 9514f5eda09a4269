// Binary serialization used by checkpoint images, connection tables and
// coordinator protocol messages.
//
// The format is a simple explicit little-endian byte stream: fixed-width
// integers, length-prefixed blobs/strings, no implicit padding. Every
// serialized structure in dmtcp-sim round-trips through these two classes,
// which keeps image formats independent of host struct layout.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assertx.h"
#include "util/types.h"

namespace dsim {

/// Little-endian fixed-width load from / store to a raw position, for hot
/// loops that cannot pay ByteReader's per-byte bounds checks; the caller
/// guarantees sizeof(T) bytes are in range. Compilers fold the byte
/// assembly into a single (on big-endian hosts, byte-swapped) access.
template <typename T>
inline T load_le(const std::byte* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<u8>(p[i])) << (8 * i);
  }
  return v;
}

template <typename T>
inline void store_le(std::byte* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

/// Append-only binary writer.
class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(static_cast<std::byte>(v)); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i32(i32 v) { put_le(static_cast<u32>(v)); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }
  void put_f64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_bytes(std::span<const std::byte> data) {
    append(data.data(), data.size());
  }
  /// Length-prefixed blob.
  void put_blob(std::span<const std::byte> data) {
    put_u64(data.size());
    put_bytes(data);
  }
  void put_string(std::string_view s) {
    put_u64(s.size());
    put_bytes(std::as_bytes(std::span(s)));
  }

  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    std::byte le[sizeof(T)];
    store_le(le, v);
    append(le, sizeof(T));
  }
  /// Every put ends here, out of line: inlined into callers that build a
  /// writer, fill it and take it, GCC 12's -O3 value-range pass reports
  /// the vector's growth path as out-of-bounds or overlapping memcpy and
  /// memset (false -Warray-bounds, -Wstringop-overflow and -Wrestrict).
  [[gnu::noinline]] void append(const std::byte* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  std::vector<std::byte> buf_;
};

/// Sequential binary reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  u8 get_u8() { return static_cast<u8>(take(1)[0]); }
  u16 get_u16() { return get_le<u16>(); }
  u32 get_u32() { return get_le<u32>(); }
  u64 get_u64() { return get_le<u64>(); }
  i32 get_i32() { return static_cast<i32>(get_le<u32>()); }
  i64 get_i64() { return static_cast<i64>(get_le<u64>()); }
  double get_f64() {
    u64 bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool get_bool() { return get_u8() != 0; }

  std::vector<std::byte> get_blob() {
    u64 n = get_u64();
    auto s = take(n);
    return {s.begin(), s.end()};
  }
  std::string get_string() {
    u64 n = get_u64();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  std::span<const std::byte> get_bytes(size_t n) { return take(n); }

  size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }
  /// Current read position (for checksumming consumed ranges).
  size_t pos() const { return pos_; }
  /// Borrowed view of [start, start+len) of the underlying buffer.
  std::span<const std::byte> window(size_t start, size_t len) const {
    DSIM_CHECK_MSG(start + len <= data_.size(), "window out of range");
    return data_.subspan(start, len);
  }

 private:
  std::span<const std::byte> take(size_t n) {
    DSIM_CHECK_MSG(pos_ + n <= data_.size(), "serialized data truncated");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  template <typename T>
  T get_le() {
    return load_le<T>(take(sizeof(T)).data());
  }
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

/// Convenience: view a string as bytes.
inline std::span<const std::byte> as_bytes_view(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

}  // namespace dsim
