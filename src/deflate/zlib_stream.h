/**
 * @file
 * zlib (RFC 1950) container framing: 2-byte CMF/FLG header and Adler-32
 * trailer around a raw DEFLATE stream.
 */

#ifndef NXSIM_DEFLATE_ZLIB_STREAM_H
#define NXSIM_DEFLATE_ZLIB_STREAM_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deflate/inflate_decoder.h"
#include "util/taint.h"

namespace deflate {

/** Wrap a raw DEFLATE stream in a zlib container. */
std::vector<uint8_t> zlibWrap(std::span<const uint8_t> deflate_stream,
                              std::span<const uint8_t> original,
                              int level = 6);

/**
 * Wrap a raw DEFLATE stream whose payload Adler-32 the caller already
 * computed, so the payload is not read a second time.
 */
std::vector<uint8_t> zlibWrap(std::span<const uint8_t> deflate_stream,
                              uint32_t adler, int level = 6);

/** Result of unwrapping a zlib stream. */
struct ZlibUnwrapResult
{
    bool ok = false;
    std::string error;
    InflateResult inflate;
    /** Adler-32 of the payload, as checked against the trailer. */
    uint32_t checksum = 0;
};

/** Parse header, inflate, verify Adler-32. */
[[nodiscard]] ZlibUnwrapResult
zlibUnwrap(NXSIM_UNTRUSTED std::span<const uint8_t> stream);

/**
 * Wrap a preset-dictionary stream (RFC 1950 FDICT): the header
 * carries DICTID = Adler-32 of @p dict, and the payload must have
 * been produced by deflateCompressWithDict(input, dict).
 */
std::vector<uint8_t> zlibWrapWithDict(
    std::span<const uint8_t> deflate_stream,
    std::span<const uint8_t> original, std::span<const uint8_t> dict,
    int level = 6);

/**
 * Unwrap a possibly-FDICT stream. When the header demands a
 * dictionary, @p dict is checked against DICTID and used for the
 * inflate history; a mismatch or a missing dictionary fails.
 */
[[nodiscard]] ZlibUnwrapResult
zlibUnwrapWithDict(NXSIM_UNTRUSTED std::span<const uint8_t> stream,
                   std::span<const uint8_t> dict);

} // namespace deflate

#endif // NXSIM_DEFLATE_ZLIB_STREAM_H
