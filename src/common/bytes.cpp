#include "common/bytes.hpp"

namespace rill {

namespace {

template <typename T>
void store_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

template <typename T>
void append_le(Bytes& buf, T v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  store_le(buf.data() + at, v);
}

template <typename T>
T read_le(const std::uint8_t* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(in[i]) << (8 * i);
  }
  return v;
}

/// Appends a u32 length prefix and `n` raw bytes with one resize.
void append_prefixed(Bytes& buf, const void* src, std::size_t n) {
  const std::size_t at = buf.size();
  buf.resize(at + 4 + n);
  store_le(buf.data() + at, static_cast<std::uint32_t>(n));
  if (n != 0) std::memcpy(buf.data() + at + 4, src, n);
}

}  // namespace

void BytesWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }
void BytesWriter::put_u32(std::uint32_t v) { append_le(buf_, v); }
void BytesWriter::put_u64(std::uint64_t v) { append_le(buf_, v); }

void BytesWriter::put_i64(std::int64_t v) {
  append_le(buf_, static_cast<std::uint64_t>(v));
}

void BytesWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  append_le(buf_, bits);
}

void BytesWriter::put_string(std::string_view s) {
  append_prefixed(buf_, s.data(), s.size());
}

void BytesWriter::put_bytes(const Bytes& b) {
  append_prefixed(buf_, b.data(), b.size());
}

void BytesWriter::patch_u32(std::size_t at, std::uint32_t v) {
  if (at > buf_.size() || buf_.size() - at < 4) {
    throw std::out_of_range("BytesWriter::patch_u32: offset past the end");
  }
  store_le(buf_.data() + at, v);
}

void BytesReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw DeserializeError("blob truncated: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t BytesReader::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint32_t BytesReader::get_u32() {
  require(4);
  auto v = read_le<std::uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t BytesReader::get_u64() {
  require(8);
  auto v = read_le<std::uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

std::int64_t BytesReader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double BytesReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BytesReader::get_string() {
  const auto n = get_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

BytesReader BytesReader::get_nested() {
  const auto n = get_u32();
  require(n);
  const BytesReader nested(data_ + pos_, n);
  pos_ += n;
  return nested;
}

}  // namespace rill
