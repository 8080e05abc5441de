/**
 * @file
 * Common-prefix length of two byte strings, eight bytes per step.
 *
 * The LZ77 match extension of both the engine's match pipe and the
 * software tokenizer: XOR two 64-bit words and locate the first
 * differing byte from the lowest set bit, then finish the last
 * (< 8) bytes one at a time. A word load happens only while eight
 * bytes remain below the cap, so nothing past @p max_len is read.
 */

#ifndef NXSIM_UTIL_MATCH_LENGTH_H
#define NXSIM_UTIL_MATCH_LENGTH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace util {

/**
 * Number of leading bytes @p a and @p b share, at most @p max_len.
 * Both must have @p max_len readable bytes; they may overlap.
 */
inline size_t
matchLength(const uint8_t *a, const uint8_t *b, size_t max_len)
{
    size_t len = 0;
    for (; len + 8 <= max_len; len += 8) {
        uint64_t x = 0;
        uint64_t y = 0;
        std::memcpy(&x, a + len, sizeof x);
        std::memcpy(&y, b + len, sizeof y);
        if (uint64_t diff = x ^ y) {
            // The first byte in memory is the low byte on a
            // little-endian host and the high byte on a big-endian one.
            int bit = std::endian::native == std::endian::little
                ? std::countr_zero(diff) : std::countl_zero(diff);
            return len + static_cast<size_t>(bit / 8);
        }
    }
    while (len < max_len && a[len] == b[len])
        ++len;
    return len;
}

} // namespace util

#endif // NXSIM_UTIL_MATCH_LENGTH_H
