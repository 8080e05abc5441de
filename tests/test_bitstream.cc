/**
 * @file
 * Unit tests for LSB-first bit packing, byte alignment, peek/consume and
 * overrun semantics of util::BitWriter / util::BitReader, plus a
 * differential test of the word-flushing BitWriter against a
 * bit-at-a-time reference writer defined here.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/bitstream.h"
#include "util/prng.h"

using util::BitReader;
using util::BitWriter;
using util::reverseBits;

TEST(BitWriter, PacksLsbFirst)
{
    BitWriter bw;
    bw.writeBits(0b1, 1);
    bw.writeBits(0b01, 2);
    bw.writeBits(0b10110, 5);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 1u);
    // bit0=1, bits1-2=01, bits3-7=10110 -> 0b10110'01'1
    EXPECT_EQ(bytes[0], 0b10110011);
}

TEST(BitWriter, AlignPadsWithZeros)
{
    BitWriter bw;
    bw.writeBits(0b11, 2);
    bw.alignToByte();
    bw.writeByte(0xab);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 0b00000011);
    EXPECT_EQ(bytes[1], 0xab);
}

TEST(BitWriter, LittleEndianHelpers)
{
    BitWriter bw;
    bw.writeU16le(0x1234);
    bw.writeU32le(0xdeadbeef);
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 6u);
    EXPECT_EQ(bytes[0], 0x34);
    EXPECT_EQ(bytes[1], 0x12);
    EXPECT_EQ(bytes[2], 0xef);
    EXPECT_EQ(bytes[3], 0xbe);
    EXPECT_EQ(bytes[4], 0xad);
    EXPECT_EQ(bytes[5], 0xde);
}

TEST(BitWriter, BitsWrittenTracksUnflushed)
{
    BitWriter bw;
    EXPECT_EQ(bw.bitsWritten(), 0u);
    bw.writeBits(0x7, 3);
    EXPECT_EQ(bw.bitsWritten(), 3u);
    bw.writeBits(0xff, 8);
    EXPECT_EQ(bw.bitsWritten(), 11u);
}

namespace {

/** Reference writer: one vector entry per pending bit, stream order. */
class RefBitWriter
{
  public:
    void
    writeBits(uint32_t value, unsigned nbits)
    {
        for (unsigned i = 0; i < nbits; ++i)
            bits_.push_back((value >> i) & 1);
    }

    void
    alignToByte()
    {
        while (bits_.size() % 8 != 0)
            bits_.push_back(0);
    }

    void
    writeBytes(std::span<const uint8_t> data)
    {
        for (uint8_t b : data)
            writeBits(b, 8);
    }

    uint64_t bitsWritten() const { return bits_.size(); }
    bool aligned() const { return bits_.size() % 8 == 0; }

    /** The whole bytes, removed; a partial byte stays. */
    std::vector<uint8_t>
    drain()
    {
        std::vector<uint8_t> out;
        size_t whole = bits_.size() / 8;
        for (size_t i = 0; i < whole; ++i) {
            uint8_t b = 0;
            for (size_t k = 0; k < 8; ++k)
                b = static_cast<uint8_t>(b | (bits_[8 * i + k] << k));
            out.push_back(b);
        }
        bits_.erase(bits_.begin(),
                    bits_.begin() + static_cast<long>(8 * whole));
        return out;
    }

  private:
    std::vector<uint8_t> bits_;
};

} // namespace

TEST(BitWriter, RandomCallSequencesMatchBitwiseReference)
{
    util::Xoshiro256 rng(0xb175);
    for (int trial = 0; trial < 300; ++trial) {
        BitWriter bw;
        RefBitWriter ref;
        std::vector<uint8_t> got;
        std::vector<uint8_t> want;
        auto padIfUnaligned = [&] {
            if (!ref.aligned()) {
                bw.alignToByte();
                ref.alignToByte();
            }
        };
        for (int op = 0; op < 200; ++op) {
            switch (rng.below(8)) {
              case 0:
                bw.alignToByte();
                ref.alignToByte();
                break;
              case 1: {
                // Byte writers need alignment. Pad only when it is
                // missing, so whole bytes may still sit in the
                // accumulator when they run.
                padIfUnaligned();
                std::vector<uint8_t> data(rng.below(12));
                for (auto &b : data)
                    b = static_cast<uint8_t>(rng.next());
                bw.writeBytes(data);
                ref.writeBytes(data);
                break;
              }
              case 2: {
                padIfUnaligned();
                auto v = static_cast<uint16_t>(rng.next());
                bw.writeU16le(v);
                ref.writeBits(v, 16);
                break;
              }
              case 3: {
                padIfUnaligned();
                auto v = static_cast<uint32_t>(rng.next());
                bw.writeU32le(v);
                ref.writeBits(v, 32);
                break;
              }
              case 4: {
                padIfUnaligned();
                auto v = static_cast<uint8_t>(rng.next());
                bw.writeByte(v);
                ref.writeBits(v, 8);
                break;
              }
              case 5: {
                auto a = bw.drain();
                auto b = ref.drain();
                ASSERT_EQ(a, b) << "trial " << trial << " op " << op;
                got.insert(got.end(), a.begin(), a.end());
                want.insert(want.end(), b.begin(), b.end());
                break;
              }
              default: {
                // Garbage above nbits must be ignored.
                auto nbits = static_cast<unsigned>(rng.below(33));
                auto v = static_cast<uint32_t>(rng.next());
                bw.writeBits(v, nbits);
                ref.writeBits(v, nbits);
                break;
              }
            }
            ASSERT_EQ(bw.bitsWritten(), ref.bitsWritten())
                << "trial " << trial << " op " << op;
            ASSERT_EQ(bw.aligned(), ref.aligned())
                << "trial " << trial << " op " << op;
        }
        auto tail = bw.take();
        ref.alignToByte();
        auto refTail = ref.drain();
        got.insert(got.end(), tail.begin(), tail.end());
        want.insert(want.end(), refTail.begin(), refTail.end());
        ASSERT_EQ(got, want) << "trial " << trial;
    }
}

TEST(BitWriter, DrainKeepsPartialByteAndContinuity)
{
    // 3 + 30 bits: four whole bytes and one pending bit straddle the
    // 32-bit flush; drain must hand out all four and keep the bit.
    BitWriter bw;
    bw.writeBits(0b101, 3);
    bw.writeBits(0x3fffffff, 30);
    auto first = bw.drain();
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(bw.bitsWritten(), 1u);
    EXPECT_FALSE(bw.aligned());
    bw.writeBits(0, 7);
    EXPECT_TRUE(bw.aligned());
    auto rest = bw.take();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(first[0], 0xfd);
    EXPECT_EQ(rest[0], 0x01);
}

TEST(BitReader, ReadsBackWhatWriterWrote)
{
    BitWriter bw;
    bw.writeBits(0x5, 3);
    bw.writeBits(0x1234, 16);
    bw.writeBits(0x1, 1);
    bw.writeBits(0xabcde, 20);
    auto bytes = bw.take();

    BitReader br(bytes);
    EXPECT_EQ(br.readBits(3), 0x5u);
    EXPECT_EQ(br.readBits(16), 0x1234u);
    EXPECT_EQ(br.readBits(1), 0x1u);
    EXPECT_EQ(br.readBits(20), 0xabcdeu);
    EXPECT_FALSE(br.overrun());
}

TEST(BitReader, PeekDoesNotConsume)
{
    std::vector<uint8_t> data = {0xa5, 0x5a};
    BitReader br(data);
    EXPECT_EQ(br.peekBits(8), 0xa5u);
    EXPECT_EQ(br.peekBits(8), 0xa5u);
    br.consumeBits(4);
    EXPECT_EQ(br.peekBits(8), 0xaau);    // low nibble of 0x5a ++ high of a5
}

TEST(BitReader, OverrunFlagsOnPastEnd)
{
    std::vector<uint8_t> data = {0xff};
    BitReader br(data);
    EXPECT_EQ(br.readBits(8), 0xffu);
    EXPECT_FALSE(br.overrun());
    br.readBits(1);
    EXPECT_TRUE(br.overrun());
}

TEST(BitReader, AlignDiscardsPartialByte)
{
    std::vector<uint8_t> data = {0b00000111, 0x42};
    BitReader br(data);
    EXPECT_EQ(br.readBits(3), 0b111u);
    br.alignToByte();
    EXPECT_EQ(br.readBits(8), 0x42u);
}

TEST(BitReader, ReadBytesDrainsBitBufferFirst)
{
    std::vector<uint8_t> data = {0x01, 0x02, 0x03, 0x04};
    BitReader br(data);
    EXPECT_EQ(br.readBits(8), 0x01u);
    uint8_t out[3];
    ASSERT_TRUE(br.readBytes(out, 3));
    EXPECT_EQ(out[0], 0x02);
    EXPECT_EQ(out[1], 0x03);
    EXPECT_EQ(out[2], 0x04);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, BytesConsumedRoundsUp)
{
    std::vector<uint8_t> data = {0xff, 0xff, 0xff};
    BitReader br(data);
    br.readBits(3);
    EXPECT_EQ(br.bytesConsumed(), 1u);
    br.readBits(8);
    EXPECT_EQ(br.bytesConsumed(), 2u);
}

TEST(ReverseBits, KnownValues)
{
    EXPECT_EQ(reverseBits(0b1, 1), 0b1u);
    EXPECT_EQ(reverseBits(0b100, 3), 0b001u);
    EXPECT_EQ(reverseBits(0b1011, 4), 0b1101u);
    EXPECT_EQ(reverseBits(0x1, 15), 0x4000u);
}

TEST(ReverseBits, Involution)
{
    for (uint32_t v = 0; v < 256; ++v)
        EXPECT_EQ(reverseBits(reverseBits(v, 9), 9), v);
}
