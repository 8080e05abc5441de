/**
 * @file
 * Reference results and output checks for the benchmark.
 *
 * For every plan item the benchmark computes, outside the timed run,
 * what each backend must produce: the engine model's output and
 * modelled time (through the same core::runCompressJob /
 * runDecompressJob the JobServer workers call, on engines the
 * benchmark owns) and the software codec's output. The run compares
 * each Session result against them; the modelled metrics come from
 * them, so they repeat exactly for one seed.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/session.h"
#include "nx/nx_config.h"
#include "perfbench/plan.h"

namespace perfbench {

/** What one item must produce, and what it costs the modelled engine. */
struct Reference
{
    /** The session policy sends this item to the accelerator. */
    bool accelRoute = false;

    /** Compress items: the engine's and the software codec's stream. */
    std::vector<uint8_t> accelOutput;
    std::vector<uint8_t> softwareOutput;

    /** Modelled engine time of the item (SessionResult::seconds). */
    double modelSeconds = 0.0;
    uint64_t cycles = 0;

    /** Deflate compress items: LZ77 match-pipe counters. */
    uint64_t lookups = 0;
    uint64_t matches = 0;
    uint64_t bankStallCycles = 0;
    uint64_t matchCycles = 0;

    /** Deflate compress items: software LZ77 chain steps. */
    uint64_t chainSteps = 0;

    const std::vector<uint8_t> &
    output(nx::Backend b) const
    {
        return b == nx::Backend::Accelerator ? accelOutput
                                             : softwareOutput;
    }
};

/** References for every item of @p plan, indexed by item id. */
std::vector<Reference> computeReferences(const Plan &plan,
                                         const nx::NxConfig &cfg);

/**
 * Decode @p stream with the software decoders: gzip or zlib unwrap
 * (container checksum and length checked) with the inflater, or the
 * 842 decoder. Empty when the stream is malformed.
 */
std::optional<std::vector<uint8_t>> softwareDecode(
    nx::SessionFormat format, std::span<const uint8_t> stream);

/** True when @p stream decodes to exactly @p original. */
bool roundTrips(nx::SessionFormat format, std::span<const uint8_t> stream,
                std::span<const uint8_t> original);

/**
 * The raw DEFLATE body of a gzip or zlib stream written by this
 * repository's wrappers (no optional gzip header fields).
 */
std::span<const uint8_t> deflateBody(nx::SessionFormat format,
                                     std::span<const uint8_t> stream);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
