/**
 * @file
 * Seeded request plans for the repository benchmark.
 *
 * A plan is everything a run sends, fixed before the clock starts: the
 * distinct request items (payload, stream format, operation, and for
 * decompress the stream to replay), the per-client order of a closed
 * loop or the arrival schedule of an open loop, and the server
 * geometry. Payloads come from the workloads::make* corpus generators.
 * The same seed gives the same plan, pinned by digest().
 */

#ifndef PERFBENCH_PLAN_H
#define PERFBENCH_PLAN_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/job_server.h"
#include "core/session.h"

namespace perfbench {

enum class Workload
{
    BulkAccel,   ///< closed loop, large gzip/zlib requests, accelerator
    SmallSw,     ///< closed loop, requests below the crossover, software
    OpenMix,     ///< open-loop Poisson serving mix on one engine
};

const char *toString(Workload w);
std::optional<Workload> parseWorkload(std::string_view name);

/** Software codec level of every session and of the set-up streams. */
inline constexpr int kLevel = 6;

/** Session routing threshold the benchmark runs with (the default). */
inline constexpr uint64_t kAccelThreshold =
    nx::SessionPolicy{}.accelThresholdBytes;

/**
 * Open-mix offered rate. About a sixth of the ~1220 rps the open-mix
 * rig serves when saturated with 3 clients (most of that in software
 * fallback), not the half the design aimed for: at 300 rps lat_p99
 * spread 0.39 of its median over seeds, and at 450-600 rps p99 jumped
 * 8x on some seeds, so the metrics tracked queue collapse, not code.
 */
inline constexpr double kOpenMixRateRps = 200.0;

/** CRB framing of the gzip and zlib session formats. */
nx::Framing framingOf(nx::SessionFormat f);

/** One distinct request: a payload and what to do with it. */
struct Item
{
    uint32_t id = 0;
    nx::SessionFormat format = nx::SessionFormat::Gzip;
    core::JobKind kind = core::JobKind::Compress;
    std::vector<uint8_t> original;        ///< uncompressed payload
    std::vector<uint8_t> stream;          ///< decompress input, else empty
    uint64_t originalHash = 0;            ///< FNV-1a of original

    /** Bytes handed to the Session call. */
    std::span<const uint8_t>
    input() const
    {
        return kind == core::JobKind::Compress
            ? std::span<const uint8_t>(original)
            : std::span<const uint8_t>(stream);
    }
};

/** One open-loop arrival: when it is due and which item it sends. */
struct Arrival
{
    int64_t dueNs = 0;   ///< offset from the start of the phase
    uint32_t item = 0;
};

struct Plan
{
    Workload workload = Workload::BulkAccel;
    uint64_t seed = 0;
    int clients = 1;
    int workers = 1;
    int windows = 1;
    int fifoDepth = 16;
    std::vector<Item> items;
    std::vector<std::vector<uint32_t>> order;     ///< closed: per client
    std::vector<Arrival> arrivals;                ///< open: global

    bool openLoop() const { return workload == Workload::OpenMix; }
};

/**
 * Build the plan of @p w for @p seed. @p seconds sizes the open-loop
 * schedule (ignored for closed loops).
 */
Plan buildPlan(Workload w, uint64_t seed, double seconds);

/**
 * Digest of a plan: payload identities and sizes, formats, operations,
 * order and arrival offsets.
 */
uint64_t digest(const Plan &plan);

/** 64-bit FNV-1a, chained through @p h. */
uint64_t fnv1a(std::span<const uint8_t> bytes,
               uint64_t h = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // PERFBENCH_PLAN_H
