#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.hpp"

namespace rill {
namespace {

TEST(Bytes, RoundtripPrimitives) {
  BytesWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.14159);

  BytesReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundtripStrings) {
  BytesWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string(1000, 'x'));

  BytesReader r(w.data());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(Bytes, RoundtripNestedBytes) {
  BytesWriter inner;
  inner.put_u32(7);
  BytesWriter outer;
  outer.put_bytes(inner.data());
  outer.put_string("tail");

  BytesReader r(outer.data());
  BytesReader ir = r.get_nested();
  EXPECT_EQ(ir.get_u32(), 7u);
  EXPECT_TRUE(ir.exhausted());
  EXPECT_THROW(ir.get_u8(), DeserializeError);  // bounded to its length
  EXPECT_EQ(r.get_string(), "tail");
}

TEST(Bytes, UnderflowThrows) {
  BytesWriter w;
  w.put_u32(1);
  BytesReader r(w.data());
  r.get_u32();
  EXPECT_THROW(r.get_u32(), DeserializeError);
  EXPECT_THROW(r.get_u8(), DeserializeError);
}

TEST(Bytes, TruncatedStringThrows) {
  BytesWriter w;
  w.put_string("hello world");
  Bytes truncated = w.data();
  truncated.resize(truncated.size() - 4);
  BytesReader r(truncated);
  EXPECT_THROW(r.get_string(), DeserializeError);
}

TEST(Bytes, NegativeAndExtremeValues) {
  BytesWriter w;
  w.put_i64(std::numeric_limits<std::int64_t>::min());
  w.put_i64(std::numeric_limits<std::int64_t>::max());
  w.put_f64(-0.0);
  w.put_f64(std::numeric_limits<double>::infinity());

  BytesReader r(w.data());
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r.get_f64(), 0.0);
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::infinity());
}

TEST(Bytes, RemainingTracksPosition) {
  BytesWriter w;
  w.put_u64(1);
  w.put_u32(2);
  BytesReader r(w.data());
  EXPECT_EQ(r.remaining(), 12u);
  r.get_u64();
  EXPECT_EQ(r.remaining(), 4u);
  r.get_u32();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, TakeMovesBuffer) {
  BytesWriter w;
  w.put_u32(9);
  const Bytes taken = w.take();
  EXPECT_EQ(taken.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace rill
