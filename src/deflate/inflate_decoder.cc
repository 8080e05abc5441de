#include "deflate/inflate_decoder.h"

#include <algorithm>
#include <cstdint>

#include "deflate/constants.h"
#include "deflate/huffman.h"
#include "util/bitstream.h"
#include "util/checked.h"
#include "util/taint.h"

namespace deflate {

const char *
toString(InflateStatus s)
{
    switch (s) {
      case InflateStatus::Ok: return "Ok";
      case InflateStatus::TruncatedInput: return "TruncatedInput";
      case InflateStatus::BadBlockType: return "BadBlockType";
      case InflateStatus::BadStoredLength: return "BadStoredLength";
      case InflateStatus::BadCodeLengths: return "BadCodeLengths";
      case InflateStatus::BadSymbol: return "BadSymbol";
      case InflateStatus::BadDistance: return "BadDistance";
      case InflateStatus::OutputLimit: return "OutputLimit";
    }
    return "Unknown";
}

namespace {

/** Decode the dynamic block header into litlen/dist decode tables. */
InflateStatus
readDynamicHeader(util::BitReader &br, HuffmanDecodeTable &litlen,
                  HuffmanDecodeTable &dist)
{
    unsigned hlit = br.readBits(5) + 257;
    unsigned hdist = br.readBits(5) + 1;
    unsigned hclen = br.readBits(4) + 4;
    if (br.overrun())
        return InflateStatus::TruncatedInput;
    if (hlit > 286 || hdist > 30)
        return InflateStatus::BadCodeLengths;

    std::vector<uint8_t> clLengths(kNumClc, 0);
    // nxtaint: allow(taint-loop-bound): hclen = readBits(4) + 4 is at
    // most 19 == kNumClc by field width, so i stays inside kClcOrder
    // and clLengths.
    for (unsigned i = 0; i < hclen; ++i)
        clLengths[kClcOrder[i]] = nx::checked_cast<uint8_t>(br.readBits(3));
    if (br.overrun())
        return InflateStatus::TruncatedInput;

    HuffmanDecodeTable clTable;
    if (!clTable.init(clLengths, kMaxClcBits))
        return InflateStatus::BadCodeLengths;

    std::vector<uint8_t> lengths;
    lengths.reserve(hlit + hdist);
    while (lengths.size() < hlit + hdist) {
        int sym = clTable.decode(br);
        if (sym < 0)
            return br.overrun() ? InflateStatus::TruncatedInput
                                : InflateStatus::BadCodeLengths;
        if (sym < 16) {
            lengths.push_back(nx::checked_cast<uint8_t>(sym));
        } else {
            unsigned n = 0;
            uint8_t fill = 0;
            if (sym == 16) {
                if (lengths.empty())
                    return InflateStatus::BadCodeLengths;
                n = 3 + br.readBits(2);
                fill = lengths.back();
            } else if (sym == 17) {
                n = 3 + br.readBits(3);
            } else {
                n = 11 + br.readBits(7);
            }
            if (br.overrun())
                return InflateStatus::TruncatedInput;
            // The run length is attacker-chosen (up to 138): reject a
            // run that overshoots the declared hlit+hdist before it
            // grows the array, as zlib does.
            if (lengths.size() + n > hlit + hdist)
                return InflateStatus::BadCodeLengths;
            lengths.insert(lengths.end(), n, fill);
        }
        if (br.overrun())
            return InflateStatus::TruncatedInput;
    }
    if (lengths.size() != hlit + hdist)
        return InflateStatus::BadCodeLengths;

    std::span<const uint8_t> all(lengths);
    if (!litlen.init(all.subspan(0, hlit)))
        return InflateStatus::BadCodeLengths;
    if (!dist.init(all.subspan(hlit, hdist)))
        return InflateStatus::BadCodeLengths;
    return InflateStatus::Ok;
}

} // namespace

InflateResult
inflateDecompress(NXSIM_UNTRUSTED std::span<const uint8_t> input,
                  size_t max_output)
{
    return inflateDecompressWithDict(input, {}, max_output);
}

InflateResult
inflateDecompressWithDict(NXSIM_UNTRUSTED std::span<const uint8_t> input,
                          std::span<const uint8_t> dict,
                          size_t max_output)
{
    InflateResult res;
    util::BitReader br(input);

    // Seed the output with the dictionary's window-reachable tail;
    // it is stripped before returning. All distance checks operate on
    // the seeded buffer, which is exactly the FDICT semantics.
    if (dict.size() > static_cast<size_t>(kWindowSize))
        dict = dict.subspan(dict.size() - kWindowSize);
    const size_t base = dict.size();
    res.bytes.assign(dict.begin(), dict.end());

    // res.bytes grows geometrically ahead of the output and its first
    // `out` bytes are decoded, so a match copies into place without a
    // resize (and its zero fill) per match. Growth never passes the
    // output cap; every caller checks the cap before asking for room.
    size_t out = base;
    const size_t cap = max_output <= SIZE_MAX - base ? base + max_output
                                                     : SIZE_MAX;
    auto room = [&](size_t n) {
        if (res.bytes.size() - out < n)
            res.bytes.resize(std::min(
                std::max(out + n, 2 * res.bytes.size() + 4096), cap));
    };
    auto fail = [&](InflateStatus st) {
        res.bytes.resize(out);
        res.status = st;
        return std::move(res);
    };

    // Fixed tables are built once.
    static const HuffmanDecodeTable *fixedLit = [] {
        auto *t = new HuffmanDecodeTable;
        std::vector<uint8_t> lengths(288);
        for (size_t s = 0; s <= 143; ++s) lengths[s] = 8;
        for (size_t s = 144; s <= 255; ++s) lengths[s] = 9;
        for (size_t s = 256; s <= 279; ++s) lengths[s] = 7;
        for (size_t s = 280; s <= 287; ++s) lengths[s] = 8;
        t->init(lengths);
        return t;
    }();
    static const HuffmanDecodeTable *fixedDst = [] {
        auto *t = new HuffmanDecodeTable;
        // The fixed distance code covers 32 symbols of 5 bits (30-31
        // never appear in valid streams but are part of the code space).
        std::vector<uint8_t> lengths(32, 5);
        t->init(lengths);
        return t;
    }();

    bool final = false;
    while (!final) {
        final = br.readBits(1) != 0;
        unsigned btype = br.readBits(2);
        if (br.overrun())
            return fail(InflateStatus::TruncatedInput);

        if (btype == 0) {
            // Stored block.
            br.alignToByte();
            uint16_t len = br.readU16le();
            uint16_t nlen = br.readU16le();
            if (br.overrun())
                return fail(InflateStatus::TruncatedInput);
            if ((len ^ nlen) != 0xffff)
                return fail(InflateStatus::BadStoredLength);
            if (out - base + len > max_output)
                return fail(InflateStatus::OutputLimit);
            room(len);
            if (!br.readBytes(res.bytes.data() + out, len))
                return fail(InflateStatus::TruncatedInput);
            out += len;
            ++res.stats.storedBlocks;
            continue;
        }

        const HuffmanDecodeTable *lit = nullptr;
        const HuffmanDecodeTable *dst = nullptr;
        HuffmanDecodeTable dynLit, dynDst;
        if (btype == 1) {
            lit = fixedLit;
            dst = fixedDst;
            ++res.stats.fixedBlocks;
        } else if (btype == 2) {
            InflateStatus st = readDynamicHeader(br, dynLit, dynDst);
            if (st != InflateStatus::Ok)
                return fail(st);
            lit = &dynLit;
            dst = &dynDst;
            ++res.stats.dynamicBlocks;
        } else {
            return fail(InflateStatus::BadBlockType);
        }

        while (true) {
            int sym = lit->decode(br);
            if (sym < 0)
                return fail(br.overrun() ? InflateStatus::TruncatedInput
                                         : InflateStatus::BadSymbol);
            if (sym < 256) {
                if (out - base >= max_output)
                    return fail(InflateStatus::OutputLimit);
                room(1);
                res.bytes[out++] = nx::checked_cast<uint8_t>(sym);
                ++res.stats.literals;
                continue;
            }
            if (sym == kEob)
                break;
            if (sym > 285)
                return fail(InflateStatus::BadSymbol);
            auto li = static_cast<size_t>(sym - 257);
            unsigned lextra = kLengthExtra[li];
            unsigned length = kLengthBase[li] + br.readBits(lextra);

            int dsym = dst->decode(br);
            if (dsym < 0 || dsym > 29)
                return fail(br.overrun() ? InflateStatus::TruncatedInput
                                         : InflateStatus::BadSymbol);
            auto di = static_cast<size_t>(dsym);
            unsigned dextra = kDistExtra[di];
            unsigned dist = kDistBase[di] + br.readBits(dextra);
            if (br.overrun())
                return fail(InflateStatus::TruncatedInput);
            if (dist == 0 || dist > out || dist > kWindowSize)
                return fail(InflateStatus::BadDistance);
            if (out - base + length > max_output)
                return fail(InflateStatus::OutputLimit);
            room(length);
            uint8_t *to = res.bytes.data() + out;
            const uint8_t *from = to - dist;
            if (dist >= length) {
                nx::copyBytes(to, from, length);
            } else {
                // The source overlaps the bytes being written (a run).
                for (unsigned i = 0; i < length; ++i)
                    to[i] = from[i];
            }
            out += length;
            ++res.stats.matches;
            res.stats.matchedBytes += length;
        }
    }

    res.stats.inputBits = br.bitsConsumed();
    res.consumedBytes = br.bytesConsumed();
    res.status = InflateStatus::Ok;
    res.bytes.resize(out);
    res.bytes.erase(res.bytes.begin(),
                    res.bytes.begin() + static_cast<long>(base));
    return res;
}

} // namespace deflate
