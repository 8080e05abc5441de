#include "deflate/deflate_encoder.h"

#include <algorithm>
#include "util/checked.h"

namespace deflate {

void
SymbolFreqs::accumulate(std::span<const Token> tokens)
{
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            ++litlen[static_cast<size_t>(t.literal)];
        } else {
            ++litlen[static_cast<size_t>(lengthToCode(t.length))];
            ++dist[static_cast<size_t>(distToCode(t.dist))];
        }
    }
    ++litlen[kEob];
}

BlockCodes
buildDynamicCodes(const SymbolFreqs &freqs)
{
    BlockCodes bc;
    bc.litlenLengths = buildCodeLengths(freqs.litlen, kMaxBits);
    bc.distLengths = buildCodeLengths(freqs.dist, kMaxBits);
    // RFC 1951: HDIST >= 1, i.e. at least one distance code is described.
    // If the block has no matches, describe a 1-length code for dist 0.
    bool any_dist = std::any_of(bc.distLengths.begin(),
                                bc.distLengths.end(),
                                [](uint8_t l) { return l != 0; });
    if (!any_dist)
        bc.distLengths[0] = 1;
    bc.litlen = HuffmanCode(bc.litlenLengths);
    bc.dist = HuffmanCode(bc.distLengths);
    return bc;
}

namespace {

/** One RLE-coded code-length symbol (16/17/18 carry extra bits). */
struct ClSym
{
    uint8_t sym;
    uint8_t extra;
    uint8_t extraBits;
};

/** RLE-encode code lengths per RFC 1951 3.2.7. */
std::vector<ClSym>
rleCodeLengths(std::span<const uint8_t> lengths)
{
    std::vector<ClSym> out;
    size_t i = 0;
    while (i < lengths.size()) {
        uint8_t v = lengths[i];
        size_t run = 1;
        while (i + run < lengths.size() && lengths[i + run] == v)
            ++run;
        if (v == 0) {
            size_t left = run;
            while (left >= 11) {
                size_t n = std::min<size_t>(left, 138);
                out.push_back({18, nx::checked_cast<uint8_t>(n - 11), 7});
                left -= n;
            }
            while (left >= 3) {
                size_t n = std::min<size_t>(left, 10);
                out.push_back({17, nx::checked_cast<uint8_t>(n - 3), 3});
                left -= n;
            }
            while (left > 0) {
                out.push_back({0, 0, 0});
                --left;
            }
        } else {
            out.push_back({v, 0, 0});
            size_t left = run - 1;
            while (left >= 3) {
                size_t n = std::min<size_t>(left, 6);
                out.push_back({16, nx::checked_cast<uint8_t>(n - 3), 2});
                left -= n;
            }
            while (left > 0) {
                out.push_back({v, 0, 0});
                --left;
            }
        }
        i += run;
    }
    return out;
}

/** Trailing-zero-trimmed length count with a floor. */
size_t
trimmedCount(std::span<const uint8_t> lengths, size_t min_count)
{
    size_t n = lengths.size();
    while (n > min_count && lengths[n - 1] == 0)
        --n;
    return n;
}

} // namespace

uint64_t
writeDynamicHeader(util::BitWriter &bw, const BlockCodes &codes)
{
    uint64_t start = bw.bitsWritten();

    size_t hlit = trimmedCount(codes.litlenLengths, 257);
    size_t hdist = trimmedCount(codes.distLengths, 1);

    // Concatenate the two trimmed length arrays and RLE-encode them.
    std::vector<uint8_t> all(codes.litlenLengths.begin(),
                             codes.litlenLengths.begin() +
                                 static_cast<long>(hlit));
    all.insert(all.end(), codes.distLengths.begin(),
               codes.distLengths.begin() + static_cast<long>(hdist));
    auto rle = rleCodeLengths(all);

    // Code-length-code from RLE symbol frequencies.
    std::vector<uint64_t> clFreq(kNumClc, 0);
    for (const ClSym &c : rle)
        ++clFreq[c.sym];
    auto clLengths = buildCodeLengths(clFreq, kMaxClcBits);
    // Degenerate single-symbol case already gets length 1; ensure at
    // least one coded symbol exists (rle is never empty here).
    HuffmanCode clCode(clLengths);

    size_t hclen = kNumClc;
    while (hclen > 4 && clLengths[kClcOrder[hclen - 1]] == 0)
        --hclen;

    bw.writeBits(nx::checked_cast<uint32_t>(hlit - 257), 5);
    bw.writeBits(nx::checked_cast<uint32_t>(hdist - 1), 5);
    bw.writeBits(nx::checked_cast<uint32_t>(hclen - 4), 4);
    for (size_t i = 0; i < hclen; ++i)
        bw.writeBits(clLengths[kClcOrder[i]], 3);
    for (const ClSym &c : rle) {
        clCode.writeSymbol(bw, c.sym);
        if (c.extraBits > 0)
            bw.writeBits(c.extra, c.extraBits);
    }
    return bw.bitsWritten() - start;
}

uint64_t
emitTokens(util::BitWriter &bw, std::span<const Token> tokens,
           const HuffmanCode &litlen, const HuffmanCode &dist)
{
    uint64_t start = bw.bitsWritten();
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            litlen.writeSymbol(bw, t.literal);
            continue;
        }
        // A code and its extra bits go out in one write (at most
        // 15 + 13 bits): the extra bits follow the code LSB-first.
        int lc = lengthToCode(t.length);
        auto li = static_cast<size_t>(lc - 257);
        unsigned lbits = litlen.length(lc);
        bw.writeBits(litlen.code(lc) |
                         (nx::checked_cast<uint32_t>(
                              t.length - kLengthBase[li]) << lbits),
                     lbits + kLengthExtra[li]);
        int dc = distToCode(t.dist);
        auto di = static_cast<size_t>(dc);
        unsigned dbits = dist.length(dc);
        bw.writeBits(dist.code(dc) |
                         (nx::checked_cast<uint32_t>(
                              t.dist - kDistBase[di]) << dbits),
                     dbits + kDistExtra[di]);
    }
    litlen.writeSymbol(bw, kEob);
    return bw.bitsWritten() - start;
}

uint64_t
tokenCostBits(const SymbolFreqs &freqs, const HuffmanCode &litlen,
              const HuffmanCode &dist)
{
    uint64_t bits = litlen.costBits(freqs.litlen) +
        dist.costBits(freqs.dist);
    // Extra bits for length and distance codes.
    for (size_t c = 257; c < kNumLitLen; ++c)
        bits += freqs.litlen[c] * kLengthExtra[c - 257];
    for (size_t c = 0; c < kNumDist; ++c)
        bits += freqs.dist[c] * kDistExtra[c];
    return bits;
}

namespace {

/** Emit one stored block (BFINAL already decided by caller). */
void
writeStoredBlock(util::BitWriter &bw, std::span<const uint8_t> data,
                 bool final)
{
    bw.writeBits(final ? 1 : 0, 1);
    bw.writeBits(nx::checked_cast<uint32_t>(BlockType::Stored), 2);
    bw.alignToByte();
    auto len = nx::checked_cast<uint16_t>(data.size());
    bw.writeU16le(len);
    bw.writeU16le(nx::truncate_cast<uint16_t>(~len));
    bw.writeBytes(data);
}

} // namespace

DeflateResult
deflateCompress(std::span<const uint8_t> input, const DeflateOptions &opts)
{
    DeflateResult res;
    util::BitWriter bw;
    LevelParams params = levelParams(opts.level);
    Lz77Matcher matcher(params);

    size_t pos = 0;
    bool emitted_any = false;
    while (pos < input.size() || !emitted_any) {
        size_t n = std::min(opts.blockBytes, input.size() - pos);
        std::span<const uint8_t> chunk = input.subspan(pos, n);
        pos += n;
        bool final = pos >= input.size();
        emitted_any = true;

        if (params.store) {
            // Level 0: stored blocks, capped at 65535 bytes each.
            size_t off = 0;
            do {
                size_t sn = std::min<size_t>(chunk.size() - off, 65535);
                bool sub_final = final && off + sn >= chunk.size();
                writeStoredBlock(bw, chunk.subspan(off, sn), sub_final);
                ++res.storedBlocks;
                off += sn;
            } while (off < chunk.size());
            continue;
        }

        // Note: the matcher restarts per block, so matches do not cross
        // block boundaries. With >= 256 KiB blocks the ratio impact is
        // well under 1 %, matching zlib's behaviour at flush points.
        auto tokens = matcher.tokenize(chunk);
        res.tokenCount += tokens.size();
        res.chainSteps += matcher.chainSteps();

        SymbolFreqs freqs;
        freqs.accumulate(tokens);

        uint64_t fixed_cost = 3 + tokenCostBits(
            freqs, HuffmanCode::fixedLitLen(), HuffmanCode::fixedDist());

        if (opts.forceFixed) {
            bw.writeBits(final ? 1 : 0, 1);
            bw.writeBits(nx::checked_cast<uint32_t>(BlockType::FixedHuffman),
                         2);
            emitTokens(bw, tokens, HuffmanCode::fixedLitLen(),
                       HuffmanCode::fixedDist());
            ++res.fixedBlocks;
            continue;
        }

        BlockCodes codes = buildDynamicCodes(freqs);
        // Dynamic header cost is found by writing into a scratch writer.
        util::BitWriter scratch;
        uint64_t hdr_bits = writeDynamicHeader(scratch, codes);
        uint64_t dyn_cost = 3 + hdr_bits +
            tokenCostBits(freqs, codes.litlen, codes.dist);

        uint64_t stored_cost = (chunk.size() + 5 * (chunk.size() / 65535
            + 1)) * 8 + 8 /* worst-case align */;

        if (stored_cost < dyn_cost && stored_cost < fixed_cost) {
            size_t off = 0;
            do {
                size_t sn = std::min<size_t>(chunk.size() - off, 65535);
                bool sub_final = final && off + sn >= chunk.size();
                writeStoredBlock(bw, chunk.subspan(off, sn), sub_final);
                ++res.storedBlocks;
                off += sn;
            } while (off < chunk.size());
        } else if (fixed_cost <= dyn_cost) {
            bw.writeBits(final ? 1 : 0, 1);
            bw.writeBits(nx::checked_cast<uint32_t>(BlockType::FixedHuffman),
                         2);
            emitTokens(bw, tokens, HuffmanCode::fixedLitLen(),
                       HuffmanCode::fixedDist());
            ++res.fixedBlocks;
        } else {
            bw.writeBits(final ? 1 : 0, 1);
            bw.writeBits(nx::checked_cast<uint32_t>(BlockType::DynamicHuffman),
                         2);
            writeDynamicHeader(bw, codes);
            emitTokens(bw, tokens, codes.litlen, codes.dist);
            ++res.dynamicBlocks;
        }
    }

    res.bytes = bw.take();
    return res;
}

DeflateResult
deflateCompressWithDict(std::span<const uint8_t> input,
                        std::span<const uint8_t> dict,
                        const DeflateOptions &opts)
{
    // The streaming compressor already implements window priming;
    // one-shot-with-dictionary is a Finish-only stream.
    DeflateResult res;
    // deflate_stream.h is not included here to avoid a cycle; the
    // window-primed tokenizer path is reproduced directly.
    LevelParams params = levelParams(opts.level);
    if (params.store || input.empty())
        return deflateCompress(input, opts);

    std::span<const uint8_t> window = dict;
    if (window.size() > static_cast<size_t>(kWindowSize))
        window = window.subspan(window.size() - kWindowSize);

    util::BitWriter bw;
    Lz77Matcher matcher(params);
    std::vector<uint8_t> buf;
    buf.reserve(window.size() + opts.blockBytes);

    size_t pos = 0;
    while (pos < input.size()) {
        size_t n = std::min(opts.blockBytes, input.size() - pos);
        bool final = pos + n >= input.size();

        buf.assign(window.begin(), window.end());
        buf.insert(buf.end(), input.begin() + static_cast<long>(pos),
                   input.begin() + static_cast<long>(pos + n));
        auto tokens = matcher.tokenize(buf, window.size());
        res.tokenCount += tokens.size();
        res.chainSteps += matcher.chainSteps();

        SymbolFreqs freqs;
        freqs.accumulate(tokens);
        uint64_t fixed_cost = 3 + tokenCostBits(
            freqs, HuffmanCode::fixedLitLen(), HuffmanCode::fixedDist());
        BlockCodes codes = buildDynamicCodes(freqs);
        util::BitWriter scratch;
        uint64_t dyn_cost = 3 + writeDynamicHeader(scratch, codes) +
            tokenCostBits(freqs, codes.litlen, codes.dist);

        bw.writeBits(final ? 1 : 0, 1);
        if (fixed_cost <= dyn_cost) {
            bw.writeBits(nx::checked_cast<uint32_t>(
                             BlockType::FixedHuffman), 2);
            emitTokens(bw, tokens, HuffmanCode::fixedLitLen(),
                       HuffmanCode::fixedDist());
            ++res.fixedBlocks;
        } else {
            bw.writeBits(nx::checked_cast<uint32_t>(
                             BlockType::DynamicHuffman), 2);
            writeDynamicHeader(bw, codes);
            emitTokens(bw, tokens, codes.litlen, codes.dist);
            ++res.dynamicBlocks;
        }

        pos += n;
        // Subsequent blocks see the tail of everything emitted so far.
        window = std::span<const uint8_t>(input).subspan(
            pos > static_cast<size_t>(kWindowSize)
                ? pos - kWindowSize : 0,
            std::min<size_t>(pos, kWindowSize));
    }

    res.bytes = bw.take();
    return res;
}

} // namespace deflate
