// A tiny, dependency-free binary serialisation buffer.
//
// Checkpoint state (task user state + CCR pending-event lists) is persisted
// to the simulated key-value store as flat byte blobs, exactly as Storm
// serialises state into Redis.  The writer/reader pair below provides
// little-endian, length-prefixed primitives with explicit bounds checking
// on the read side.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rill {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitives to a growing byte buffer.  Each primitive grows the
/// buffer once; `reserve` a known size to write without reallocating.
class BytesWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_string(std::string_view s);
  void put_bytes(const Bytes& b);
  /// Overwrites the u32 written at byte offset `at`: for a count that is
  /// known only after the items it counts have been written.
  void patch_u32(std::size_t at, std::uint32_t v);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Error thrown when a blob is truncated or malformed.
struct DeserializeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Reads primitives back out of a byte buffer, throwing DeserializeError
/// on underflow.  The reader borrows the buffer, which must outlive it.
class BytesReader {
 public:
  explicit BytesReader(const Bytes& buf) noexcept
      : data_(buf.data()), size_(buf.size()) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  std::string get_string();
  /// Reads what put_bytes wrote without copying it: returns a reader over
  /// exactly the declared length (reading past it throws) and moves this
  /// reader past it.  The result borrows the same buffer.
  BytesReader get_nested();

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  BytesReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  void require(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace rill
