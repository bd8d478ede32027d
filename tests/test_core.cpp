#include "core/bitstring.hpp"
#include "core/check.hpp"
#include "core/rng.hpp"

#include <gtest/gtest.h>

namespace lph {
namespace {

TEST(BitString, IsBitString) {
    EXPECT_TRUE(is_bit_string(""));
    EXPECT_TRUE(is_bit_string("0101"));
    EXPECT_FALSE(is_bit_string("01#1"));
    EXPECT_FALSE(is_bit_string("abc"));
}

TEST(BitString, IsCertificateListString) {
    EXPECT_TRUE(is_certificate_list_string("01#1#"));
    EXPECT_FALSE(is_certificate_list_string("01x"));
}

TEST(BitString, EncodeZero) { EXPECT_EQ(encode_unsigned(0), "0"); }

TEST(BitString, EncodeExamples) {
    EXPECT_EQ(encode_unsigned(1), "1");
    EXPECT_EQ(encode_unsigned(2), "10");
    EXPECT_EQ(encode_unsigned(5), "101");
    EXPECT_EQ(encode_unsigned(255), "11111111");
}

TEST(BitString, DecodeEmptyIsZero) { EXPECT_EQ(decode_unsigned(""), 0u); }

TEST(BitString, DecodeRejectsNonBits) {
    EXPECT_THROW(decode_unsigned("012"), precondition_error);
}

class RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTrip, EncodeDecode) {
    const std::uint64_t value = GetParam();
    EXPECT_EQ(decode_unsigned(encode_unsigned(value)), value);
}

TEST_P(RoundTrip, FixedWidthRoundTrip) {
    const std::uint64_t value = GetParam();
    const int width = bits_for(value + 1);
    const BitString bits = encode_unsigned_width(value, width);
    EXPECT_EQ(bits.size(), static_cast<std::size_t>(width));
    EXPECT_EQ(decode_unsigned(bits), value);
}

INSTANTIATE_TEST_SUITE_P(Values, RoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 100u, 1023u,
                                           1024u, 999999u, (1ull << 40) + 17));

TEST(BitString, WidthTooSmallThrows) {
    EXPECT_THROW(encode_unsigned_width(4, 2), precondition_error);
}

TEST(BitString, JoinSplitHash) {
    const std::vector<std::string> parts{"01", "", "111"};
    const std::string joined = join_hash(parts);
    EXPECT_EQ(joined, "01##111");
    EXPECT_EQ(split_hash(joined), parts);
}

TEST(BitString, SplitSingle) {
    EXPECT_EQ(split_hash(""), std::vector<std::string>{""});
    EXPECT_EQ(split_hash("01"), std::vector<std::string>{"01"});
}

TEST(BitString, SplitTrailingSeparator) {
    const auto parts = split_hash("1#");
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0], "1");
    EXPECT_EQ(parts[1], "");
}

class BitsFor : public ::testing::TestWithParam<std::pair<std::uint64_t, int>> {};

TEST_P(BitsFor, Matches) {
    EXPECT_EQ(bits_for(GetParam().first), GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Values, BitsFor,
    ::testing::Values(std::make_pair(1ull, 1), std::make_pair(2ull, 1),
                      std::make_pair(3ull, 2), std::make_pair(4ull, 2),
                      std::make_pair(5ull, 3), std::make_pair(8ull, 3),
                      std::make_pair(9ull, 4), std::make_pair(1024ull, 10),
                      std::make_pair(1025ull, 11)));

TEST(Rng, Deterministic) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
    }
}

TEST(SplitMix64, KnownAnswerFromStateZero) {
    std::uint64_t state = 0;
    EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(splitmix64_next(state), 0x06c45d188009454fULL);
    EXPECT_EQ(state, 3 * kSplitMix64Gamma);
    // The stateless form is the draw from a given state.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64(kSplitMix64Gamma), 0x6e789e6aa1b965f4ULL);
}

TEST(Rng, UniformInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, EmptyRangeFailsThePreconditionCheck) {
    // index(0) used to compute uniform(0, 0 - 1) — an unsigned underflow to
    // uniform(0, 2^64-1) returning garbage indices.  Both empty-range entry
    // points must fail loudly instead.
    Rng rng(3);
    EXPECT_THROW(rng.index(0), precondition_error);
    EXPECT_THROW(rng.uniform(5, 4), precondition_error);
    // The engine state is untouched by a rejected draw: two generators that
    // diverge only in rejected calls keep producing identical streams.
    Rng a(11);
    Rng b(11);
    EXPECT_THROW(a.index(0), precondition_error);
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Check, ThrowsWithMessage) {
    try {
        check(false, "boom");
        FAIL() << "expected throw";
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

} // namespace
} // namespace lph
