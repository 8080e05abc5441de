#include "nx/hash_table.h"

#include <algorithm>
#include "util/checked.h"

namespace nx {

BankedHashTable::BankedHashTable(const HashConfig &cfg) : cfg_(cfg)
{
    size_t sets = size_t{1} << cfg_.indexBits;
    entries_.assign(sets * 2 * static_cast<size_t>(cfg_.ways), 0);
    fill_.assign(sets, 0);
    head_.assign(sets, 0);
}

void
BankedHashTable::clear()
{
    // An empty set may start its ring anywhere, so head_ keeps its value.
    std::fill(fill_.begin(), fill_.end(), 0);
}

std::span<const uint32_t>
BankedHashTable::lookup(uint32_t set) const
{
    const uint32_t *base = entries_.data() +
        static_cast<size_t>(set) * 2 * static_cast<size_t>(cfg_.ways);
    return {base + head_[set], fill_[set]};
}

void
BankedHashTable::insert(uint32_t set, uint32_t pos)
{
    auto ways = static_cast<size_t>(cfg_.ways);
    uint32_t *base = entries_.data() + static_cast<size_t>(set) * 2 * ways;
    // The ring grows downwards, so the newest entry sits at head_ and
    // older ones follow it; every entry is also written one ring length
    // further on, so the `fill` entries from head_ are contiguous and
    // lookup() hands them out in place. Replacement is FIFO: once the
    // set is full, the new entry overwrites the oldest.
    size_t head = head_[set] == 0 ? ways - 1 : head_[set] - 1u;
    base[head] = pos;
    base[head + ways] = pos;
    head_[set] = nx::checked_cast<uint8_t>(head);
    if (fill_[set] < cfg_.ways)
        ++fill_[set];
}

uint64_t
BankedHashTable::sramBits() const
{
    uint64_t sets = uint64_t{1} << cfg_.indexBits;
    // Each entry stores a 16-bit window-relative position plus a valid
    // bit; per-set FIFO pointer is log2(ways) bits.
    uint64_t entry_bits = 17;
    uint64_t ptr_bits = 1;
    while ((1u << ptr_bits) < nx::checked_cast<unsigned>(cfg_.ways))
        ++ptr_bits;
    return sets * (static_cast<uint64_t>(cfg_.ways) * entry_bits +
                   ptr_bits);
}

} // namespace nx
