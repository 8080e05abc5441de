/**
 * @file
 * The match engine's candidate store: a set-associative, banked hash
 * table of recent window positions.
 *
 * This is where the hardware diverges from software zlib. Software keeps
 * unbounded hash *chains* and walks up to thousands of links per
 * position; hardware keeps a fixed number of ways per set (so lookup is
 * one SRAM access) and banks the table so several positions can be
 * looked up in the same cycle. The cost is match quality — the table
 * forgets all but the `ways` most recent positions per hash — which is
 * exactly the compression-ratio-for-throughput trade the paper
 * describes.
 */

#ifndef NXSIM_NX_HASH_TABLE_H
#define NXSIM_NX_HASH_TABLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "nx/nx_config.h"
#include "util/stats.h"
#include "util/checked.h"

namespace nx {

/** Banked, set-associative position store. */
class BankedHashTable
{
  public:
    explicit BankedHashTable(const HashConfig &cfg);

    /** Forget everything (engine reset between CRBs). */
    void clear();

    /** Hash of the @p minMatch-byte prefix at @p p. */
    uint32_t
    hashAt(const uint8_t *p) const
    {
        uint32_t v = nx::checked_cast<uint32_t>(p[0]) |
            (nx::checked_cast<uint32_t>(p[1]) << 8) |
            (nx::checked_cast<uint32_t>(p[2]) << 16);
        if (cfg_.minMatch >= 4)
            v ^= nx::checked_cast<uint32_t>(p[3]) << 20;
        return (v * 0x9e3779b1u) >> (32 - cfg_.indexBits);
    }

    /** Bank a set index maps to (low bits, as hardware would). */
    int
    bankOf(uint32_t set) const
    {
        return nx::checked_cast<int>(set & (nx::checked_cast<uint32_t>(
            cfg_.banks) - 1));
    }

    /**
     * Read the candidate positions stored in @p set (most recent
     * first), in place. Entries may be stale (outside the window);
     * the match comparators filter those. The view is valid until the
     * next insert() or clear().
     */
    std::span<const uint32_t> lookup(uint32_t set) const;

    /** Insert @p pos into @p set, evicting the oldest way (FIFO). */
    void insert(uint32_t set, uint32_t pos);

    const HashConfig &config() const { return cfg_; }

    /** Total SRAM bits the table occupies (for the area model). */
    uint64_t sramBits() const;

  private:
    HashConfig cfg_;
    // Per set, a ring of `ways` position entries stored twice over
    // (2 x ways slots; see insert()), plus its fill count and the slot
    // of its newest entry.
    std::vector<uint32_t> entries_;
    std::vector<uint8_t> fill_;
    std::vector<uint8_t> head_;
};

} // namespace nx

#endif // NXSIM_NX_HASH_TABLE_H
