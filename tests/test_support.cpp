// Unit tests for r2r::support primitives.
#include <gtest/gtest.h>

#include "support/bits.h"
#include "support/bytes.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/strings.h"

namespace r2r::support {
namespace {

TEST(Bits, FitsInt8Boundaries) {
  EXPECT_TRUE(fits_int8(127));
  EXPECT_TRUE(fits_int8(-128));
  EXPECT_FALSE(fits_int8(128));
  EXPECT_FALSE(fits_int8(-129));
}

TEST(Bits, FitsInt32Boundaries) {
  EXPECT_TRUE(fits_int32(2147483647LL));
  EXPECT_TRUE(fits_int32(-2147483648LL));
  EXPECT_FALSE(fits_int32(2147483648LL));
  EXPECT_FALSE(fits_int32(-2147483649LL));
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xFFFF'FFFF, 32), -1);
  EXPECT_EQ(sign_extend(5, 64), 5);
}

TEST(Bits, ParityMatchesPopcountOfLowByte) {
  for (unsigned v = 0; v < 256; ++v) {
    const bool even = __builtin_popcount(v) % 2 == 0;
    EXPECT_EQ(parity_even_low8(v), even) << v;
  }
}

TEST(Bits, TruncateMasksHighBits) {
  EXPECT_EQ(truncate(0x1FF, 8), 0xFFu);
  EXPECT_EQ(truncate(0xFFFF'FFFF'FFFF'FFFFULL, 32), 0xFFFF'FFFFULL);
  EXPECT_EQ(truncate(42, 64), 42u);
}

TEST(ByteBuffer, LittleEndianAppend) {
  ByteBuffer buf;
  buf.append_u32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.bytes()[0], 0x44);
  EXPECT_EQ(buf.bytes()[3], 0x11);
}

TEST(ByteReader, ReadsBackWhatBufferWrote) {
  ByteBuffer buf;
  buf.append_u8(7);
  buf.append_u16(0x1234);
  buf.append_u32(0xDEADBEEF);
  buf.append_u64(0x1122334455667788ULL);
  ByteReader reader(buf.span());
  EXPECT_EQ(reader.read_u8(), 7);
  EXPECT_EQ(reader.read_u16(), 0x1234);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.read_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteReader, UnderrunThrows) {
  const std::vector<std::uint8_t> data{1, 2};
  ByteReader reader(data);
  reader.read_u16();
  EXPECT_THROW(reader.read_u8(), Error);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = split("a, b,, c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, ParseInteger) {
  EXPECT_EQ(parse_integer("42"), 42);
  EXPECT_EQ(parse_integer("-1"), -1);
  EXPECT_EQ(parse_integer("0x10"), 16);
  EXPECT_EQ(parse_integer("'A'"), 65);
  EXPECT_EQ(parse_integer("0xcbf29ce484222325"),
            static_cast<std::int64_t>(0xcbf29ce484222325ULL));
  EXPECT_FALSE(parse_integer("12x").has_value());
  EXPECT_FALSE(parse_integer("").has_value());
}

TEST(Strings, HexString) {
  EXPECT_EQ(hex_string(0x400000), "0x400000");
  EXPECT_EQ(hex_string(0), "0x0");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(17.613, 2), "17.61");
  EXPECT_EQ(format_fixed(100.0, 2), "100.00");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) diverged = a.next() != b.next();
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, StreamZeroMatchesPlainSeed) {
  Rng plain(99);
  Rng stream = Rng::for_stream(99, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(plain.next(), stream.next());
}

TEST(Rng, StreamsAreDeterministicAndDisjoint) {
  Rng a1 = Rng::for_stream(2026, 1);
  Rng a2 = Rng::for_stream(2026, 1);
  Rng b = Rng::for_stream(2026, 2);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t value = a1.next();
    EXPECT_EQ(value, a2.next());  // same stream index replays exactly
    diverged |= value != b.next();
  }
  EXPECT_TRUE(diverged);  // different worker streams are decorrelated
}

TEST(Rng, JumpAdvancesState) {
  Rng jumped(5);
  jumped.jump();
  Rng plain(5);
  EXPECT_NE(jumped.next(), plain.next());
}

// FIPS 180-4 / RFC 6234 test vectors — the daemon's cache keys are these
// digests, so the implementation must match the standard exactly.
TEST(Sha256, KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Sha256 streamed;
  streamed.update("The quick brown fox ");
  streamed.update("jumps over ");
  streamed.update("the lazy dog");
  EXPECT_EQ(streamed.hex_digest(),
            sha256_hex("The quick brown fox jumps over the lazy dog"));
}

TEST(Sha256, BlockBoundaryLengths) {
  // 55/56/64 bytes straddle the padding boundary cases of the 64-byte block.
  for (const std::size_t length : {55u, 56u, 63u, 64u, 65u}) {
    const std::string message(length, 'x');
    Sha256 bytewise;
    for (const char c : message) bytewise.update(&c, 1);
    EXPECT_EQ(bytewise.hex_digest(), sha256_hex(message)) << length;
  }
}

TEST(ErrorType, CarriesKindAndMessage) {
  try {
    fail(ErrorKind::kDecode, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kDecode);
    EXPECT_NE(std::string(error.what()).find("decode"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("boom"), std::string::npos);
  }
}

TEST(ErrorType, CheckPassesOnTrue) {
  EXPECT_NO_THROW(check(true, ErrorKind::kParse, "unused"));
  EXPECT_THROW(check(false, ErrorKind::kParse, "used"), Error);
}

}  // namespace
}  // namespace r2r::support
