#include "deflate/zlib_stream.h"

#include "util/adler32.h"
#include "util/taint.h"

#include <algorithm>
#include "util/checked.h"

namespace deflate {

std::vector<uint8_t>
zlibWrap(std::span<const uint8_t> deflate_stream,
         std::span<const uint8_t> original, int level)
{
    return zlibWrap(deflate_stream, util::adler32(original), level);
}

std::vector<uint8_t>
zlibWrap(std::span<const uint8_t> deflate_stream, uint32_t adler,
         int level)
{
    std::vector<uint8_t> out;
    out.reserve(deflate_stream.size() + 6);
    // CMF: method 8, 32K window (CINFO=7).
    uint8_t cmf = 0x78;
    // FLEVEL from the nominal level.
    uint8_t flevel = level >= 7 ? 3 : level >= 5 ? 2 : level >= 2 ? 1 : 0;
    uint8_t flg = nx::checked_cast<uint8_t>(flevel << 6);
    // FCHECK makes (cmf*256 + flg) a multiple of 31.
    unsigned rem = (nx::checked_cast<unsigned>(cmf) * 256 + flg) % 31;
    if (rem != 0)
        flg = nx::checked_cast<uint8_t>(flg + (31 - rem));
    out.push_back(cmf);
    out.push_back(flg);
    out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());
    for (int i = 3; i >= 0; --i)    // Adler is stored big-endian
        out.push_back(nx::checked_cast<uint8_t>((adler >> (8 * i)) & 0xff));
    return out;
}

ZlibUnwrapResult
zlibUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> stream)
{
    ZlibUnwrapResult res;
    if (stream.size() < 6) {
        res.error = "stream too short";
        return res;
    }
    uint8_t cmf = stream[0];
    uint8_t flg = stream[1];
    if ((cmf & 0x0f) != 8) {
        res.error = "unsupported method";
        return res;
    }
    if ((nx::checked_cast<unsigned>(cmf) * 256 + flg) % 31 != 0) {
        res.error = "FCHECK failed";
        return res;
    }
    if (flg & 0x20) {
        res.error = "preset dictionary unsupported";
        return res;
    }

    res.inflate = inflateDecompress(stream.subspan(2, stream.size() - 6));
    if (!res.inflate.ok()) {
        res.error = std::string("inflate: ") +
            toString(res.inflate.status);
        return res;
    }
    size_t tpos = 2 + res.inflate.consumedBytes;
    if (tpos + 4 > stream.size()) {
        res.error = "trailer overlaps payload";
        return res;
    }
    uint32_t adler = (nx::checked_cast<uint32_t>(stream[tpos]) << 24) |
        (nx::checked_cast<uint32_t>(stream[tpos + 1]) << 16) |
        (nx::checked_cast<uint32_t>(stream[tpos + 2]) << 8) |
        nx::checked_cast<uint32_t>(stream[tpos + 3]);
    res.checksum = util::adler32(res.inflate.bytes);
    if (adler != res.checksum) {
        res.error = "Adler-32 mismatch";
        return res;
    }
    res.ok = true;
    return res;
}

std::vector<uint8_t>
zlibWrapWithDict(std::span<const uint8_t> deflate_stream,
                 std::span<const uint8_t> original,
                 std::span<const uint8_t> dict, int level)
{
    std::vector<uint8_t> out;
    out.reserve(deflate_stream.size() + 10);
    uint8_t cmf = 0x78;
    uint8_t flevel = level >= 7 ? 3 : level >= 5 ? 2 : level >= 2 ? 1
                                                                  : 0;
    uint8_t flg = nx::checked_cast<uint8_t>((flevel << 6) | 0x20);  // FDICT
    unsigned rem = (nx::checked_cast<unsigned>(cmf) * 256 + flg) % 31;
    if (rem != 0)
        flg = nx::checked_cast<uint8_t>(flg + (31 - rem));
    out.push_back(cmf);
    out.push_back(flg);
    uint32_t dictid = util::adler32(dict);
    for (int i = 3; i >= 0; --i)
        out.push_back(nx::checked_cast<uint8_t>((dictid >> (8 * i)) & 0xff));
    out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());
    uint32_t adler = util::adler32(original);
    for (int i = 3; i >= 0; --i)
        out.push_back(nx::checked_cast<uint8_t>((adler >> (8 * i)) & 0xff));
    return out;
}

ZlibUnwrapResult
zlibUnwrapWithDict(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
                   std::span<const uint8_t> dict)
{
    ZlibUnwrapResult res;
    if (stream.size() < 6) {
        res.error = "stream too short";
        return res;
    }
    uint8_t cmf = stream[0];
    uint8_t flg = stream[1];
    if ((cmf & 0x0f) != 8) {
        res.error = "unsupported method";
        return res;
    }
    if ((nx::checked_cast<unsigned>(cmf) * 256 + flg) % 31 != 0) {
        res.error = "FCHECK failed";
        return res;
    }
    size_t payload = 2;
    if (flg & 0x20) {
        if (stream.size() < 10) {
            res.error = "truncated DICTID";
            return res;
        }
        uint32_t dictid = (nx::checked_cast<uint32_t>(stream[2]) << 24) |
            (nx::checked_cast<uint32_t>(stream[3]) << 16) |
            (nx::checked_cast<uint32_t>(stream[4]) << 8) |
            nx::checked_cast<uint32_t>(stream[5]);
        if (dict.empty()) {
            res.error = "dictionary required";
            return res;
        }
        if (dictid != util::adler32(dict)) {
            res.error = "DICTID mismatch";
            return res;
        }
        payload = 6;
    }

    res.inflate = inflateDecompressWithDict(
        stream.subspan(payload, stream.size() - payload - 4),
        (flg & 0x20) ? dict : std::span<const uint8_t>{});
    if (!res.inflate.ok()) {
        res.error = std::string("inflate: ") +
            toString(res.inflate.status);
        return res;
    }
    size_t tpos = payload + res.inflate.consumedBytes;
    if (tpos + 4 > stream.size()) {
        res.error = "trailer overlaps payload";
        return res;
    }
    uint32_t adler = (nx::checked_cast<uint32_t>(stream[tpos]) << 24) |
        (nx::checked_cast<uint32_t>(stream[tpos + 1]) << 16) |
        (nx::checked_cast<uint32_t>(stream[tpos + 2]) << 8) |
        nx::checked_cast<uint32_t>(stream[tpos + 3]);
    res.checksum = util::adler32(res.inflate.bytes);
    if (adler != res.checksum) {
        res.error = "Adler-32 mismatch";
        return res;
    }
    res.ok = true;
    return res;
}

} // namespace deflate
