/**
 * @file
 * CRC-32 and Adler-32 against published test vectors, plus incremental
 * update equivalence. The slice-by-8 CRC is also checked against a
 * bit-at-a-time reference defined here: every short length at every
 * alignment, a large random buffer, random incremental splits and
 * crc32Combine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "util/adler32.h"
#include "util/crc32.h"
#include "util/prng.h"

namespace {

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** CRC-32 straight from the definition: one bit per step. */
uint32_t
refCrc32(std::span<const uint8_t> data)
{
    uint32_t c = 0xffffffffu;
    for (uint8_t b : data) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    return ~c;
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.next());
    return v;
}

} // namespace

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(util::crc32({}), 0u);
}

TEST(Crc32, KnownVectors)
{
    // Standard check value for "123456789".
    EXPECT_EQ(util::crc32(bytesOf("123456789")), 0xcbf43926u);
    EXPECT_EQ(util::crc32(bytesOf("a")), 0xe8b7be43u);
    EXPECT_EQ(util::crc32(bytesOf("abc")), 0x352441c2u);
    EXPECT_EQ(util::crc32(bytesOf(
        "The quick brown fox jumps over the lazy dog")), 0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    auto data = bytesOf("hello, incremental crc world");
    util::Crc32 inc;
    for (size_t i = 0; i < data.size(); i += 3) {
        size_t n = std::min<size_t>(3, data.size() - i);
        inc.update(std::span<const uint8_t>(data.data() + i, n));
    }
    EXPECT_EQ(inc.value(), util::crc32(data));
}

TEST(Crc32, ResetRestores)
{
    util::Crc32 c;
    c.update(bytesOf("junk"));
    c.reset();
    c.update(bytesOf("123456789"));
    EXPECT_EQ(c.value(), 0xcbf43926u);
}

TEST(Crc32, EveryShortLengthAndOffsetMatchesBitwiseReference)
{
    // Lengths 0-72 cover the byte tail alone, one to nine 8-byte
    // steps, and every tail length; offsets 0-7 every alignment.
    auto buf = randomBytes(80, 1);
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 72; ++len) {
            std::span<const uint8_t> part(buf.data() + off, len);
            EXPECT_EQ(util::crc32(part), refCrc32(part))
                << "off " << off << " len " << len;
        }
    }
}

TEST(Crc32, OneMebibyteRandomMatchesBitwiseReference)
{
    auto data = randomBytes(1 << 20, 2);
    EXPECT_EQ(util::crc32(data), refCrc32(data));
}

TEST(Crc32, IncrementalAtRandomSplitsMatchesReference)
{
    auto data = randomBytes(100003, 3);
    uint32_t want = refCrc32(data);
    util::Xoshiro256 rng(4);
    for (int trial = 0; trial < 50; ++trial) {
        util::Crc32 c;
        size_t off = 0;
        while (off < data.size()) {
            size_t n = std::min<size_t>(data.size() - off,
                                        rng.below(trial < 25 ? 20 : 5000));
            c.update(std::span<const uint8_t>(data).subspan(off, n));
            off += n;
        }
        EXPECT_EQ(c.value(), want) << "trial " << trial;
    }
}

TEST(Crc32Combine, RandomSplitsMatchBitwiseReference)
{
    auto data = randomBytes(70001, 5);
    util::Xoshiro256 rng(6);
    for (int trial = 0; trial < 20; ++trial) {
        size_t cut = rng.below(data.size() + 1);
        std::span<const uint8_t> all(data);
        auto a = all.subspan(0, cut);
        auto b = all.subspan(cut);
        EXPECT_EQ(util::crc32Combine(refCrc32(a), refCrc32(b), b.size()),
                  refCrc32(all))
            << "cut " << cut;
    }
}

TEST(Adler32, EmptyIsOne)
{
    EXPECT_EQ(util::adler32({}), 1u);
}

TEST(Adler32, KnownVectors)
{
    // RFC 1950 example value for "Wikipedia".
    EXPECT_EQ(util::adler32(bytesOf("Wikipedia")), 0x11e60398u);
    EXPECT_EQ(util::adler32(bytesOf("a")), 0x00620062u);
    EXPECT_EQ(util::adler32(bytesOf("abc")), 0x024d0127u);
}

TEST(Adler32, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(100000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31 + 7);
    util::Adler32 inc;
    for (size_t i = 0; i < data.size(); i += 7777) {
        size_t n = std::min<size_t>(7777, data.size() - i);
        inc.update(std::span<const uint8_t>(data.data() + i, n));
    }
    EXPECT_EQ(inc.value(), util::adler32(data));
}

TEST(Crc32Combine, MatchesDirectConcatenation)
{
    auto a = bytesOf("the first chunk of a split stream");
    auto b = bytesOf("and the second, checksummed independently");
    uint32_t ca = util::crc32(a);
    uint32_t cb = util::crc32(b);
    std::vector<uint8_t> ab(a);
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(util::crc32Combine(ca, cb, b.size()), util::crc32(ab));
}

TEST(Crc32Combine, EmptySecondChunkIsIdentity)
{
    auto a = bytesOf("only one chunk");
    uint32_t ca = util::crc32(a);
    EXPECT_EQ(util::crc32Combine(ca, util::crc32({}), 0), ca);
}

TEST(Crc32Combine, ManySplitsAssociative)
{
    std::vector<uint8_t> data(100000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 131 + 5);
    uint32_t whole = util::crc32(data);

    // Combine 7 uneven chunks left to right.
    size_t cuts[] = {13, 1000, 4096, 4097, 60000, 99999, 100000};
    uint32_t acc = 0;
    bool first = true;
    size_t prev = 0;
    for (size_t cut : cuts) {
        std::span<const uint8_t> part(data.data() + prev, cut - prev);
        uint32_t c = util::crc32(part);
        acc = first ? c : util::crc32Combine(acc, c, part.size());
        first = false;
        prev = cut;
    }
    EXPECT_EQ(acc, whole);
}

TEST(Adler32Combine, MatchesDirectConcatenation)
{
    auto a = bytesOf("adler first piece");
    auto b = bytesOf("adler second piece with more bytes");
    uint32_t ca = util::adler32(a);
    uint32_t cb = util::adler32(b);
    std::vector<uint8_t> ab(a);
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(util::adler32Combine(ca, cb, b.size()),
              util::adler32(ab));
}

TEST(Adler32Combine, LongSecondChunk)
{
    std::vector<uint8_t> a(70000, 0xab);
    std::vector<uint8_t> b(130001);
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<uint8_t>(i);
    std::vector<uint8_t> ab(a);
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(util::adler32Combine(util::adler32(a), util::adler32(b),
                                   b.size()),
              util::adler32(ab));
}

TEST(Adler32, LargeBufferModularReduction)
{
    // Exceeds the deferred-reduction chunk (kNmax) multiple times with
    // max-value bytes, stressing the modular arithmetic.
    std::vector<uint8_t> data(1 << 16, 0xff);
    uint32_t v = util::adler32(data);
    // Reference computed with the definition directly.
    uint32_t a = 1, b = 0;
    for (uint8_t byte : data) {
        a = (a + byte) % 65521;
        b = (b + a) % 65521;
    }
    EXPECT_EQ(v, (b << 16) | a);
}
