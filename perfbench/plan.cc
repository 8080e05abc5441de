#include "perfbench/plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/device.h"
#include "e842/e842.h"
#include "util/prng.h"
#include "workloads/corpus.h"

namespace perfbench {

namespace {

constexpr size_t kOrderLength = 1u << 14;  // closed-loop steps per client

/** A request class: one size range, shared by its items. */
struct ClassSpec
{
    std::vector<const char *> contents;       ///< rotated over items
    std::vector<nx::SessionFormat> formats;   ///< rotated over items
    double weight;                            ///< open-loop share
    size_t minBytes;
    size_t maxBytes;
    double decompressFraction;
    size_t items;
    /** Grow decompress payloads until their stream reaches the crossover. */
    bool streamsAtCrossover = false;
};

const std::vector<ClassSpec> &
classesOf(Workload w)
{
    using F = nx::SessionFormat;
    // bulk-accel: 16-256 KiB so staged inputs straddle the 64 KiB
    // BufferPool slab; every request reaches the accelerator.
    static const std::vector<ClassSpec> bulk = {
        {{"log", "json", "text"}, {F::Gzip, F::Zlib}, 1.0, 16 * 1024,
         256 * 1024, 0.5, 64, true},
    };
    // small-sw: everything below the crossover.
    static const std::vector<ClassSpec> small = {
        {{"text", "json", "log"}, {F::Gzip, F::Zlib}, 1.0, 256,
         kAccelThreshold - 1, 0.5, 256},
    };
    // open-mix: the shape of load::defaultServingMix(), copied so that
    // changes to src/load cannot move the benchmark: small hot text
    // below the crossover, bulk logs, JSON across the crossover, 842
    // pages and an incompressible tail. Small text weighs 8, not 3:
    // with 3 the median request, and with 5 the median compress
    // request, sat on the gap between the software and the engine
    // route, where run-to-run host noise moved the p50 latencies by up
    // to 3x. Bulk logs have 128 items, not 32: p99 is set by the
    // largest log compress requests, and with 32 items only three of
    // them were at the top, so the seed's content for those three
    // moved p99 by up to 30 %.
    static const std::vector<ClassSpec> serving = {
        {{"text"}, {F::Gzip}, 8.0, 512, 4 * 1024, 0.25, 32},
        {{"log"}, {F::Gzip}, 2.0, 32 * 1024, 256 * 1024, 0.25, 128},
        {{"json"}, {F::Zlib}, 2.0, 2 * 1024, 64 * 1024, 0.5, 32},
        {{"binary"}, {F::E842}, 1.5, 4 * 1024, 64 * 1024, 0.5, 32},
        {{"random"}, {F::Gzip}, 0.5, 8 * 1024, 32 * 1024, 0.0, 32},
    };
    switch (w) {
      case Workload::BulkAccel: return bulk;
      case Workload::SmallSw: return small;
      case Workload::OpenMix: break;
    }
    return serving;
}

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    return seed ^ (0x9e3779b97f4a7c15ull * (salt + 1));
}

std::vector<uint8_t>
generate(std::string_view content, size_t bytes, uint64_t seed)
{
    if (content == "text")
        return workloads::makeText(bytes, seed);
    if (content == "log")
        return workloads::makeLog(bytes, seed);
    if (content == "json")
        return workloads::makeJson(bytes, seed);
    if (content == "binary")
        return workloads::makeBinary(bytes, seed);
    if (content == "random")
        return workloads::makeRandom(bytes, seed);
    throw std::invalid_argument("unknown content family");
}

/** The stream a decompress item replays, made by the software path. */
std::vector<uint8_t>
streamFor(nx::SessionFormat format, std::span<const uint8_t> original)
{
    if (format == nx::SessionFormat::E842)
        return e842::compress(original).bytes;
    auto r = core::SoftwareCodec(kLevel).compress(original,
                                                  framingOf(format));
    if (!r.ok())
        throw std::runtime_error("set-up: software compress failed");
    return std::move(r.data);
}

Item
makeItem(uint32_t id, const char *content, nx::SessionFormat format,
         core::JobKind kind, size_t bytes, uint64_t seed)
{
    Item it;
    it.id = id;
    it.format = format;
    it.kind = kind;
    it.original = generate(content, bytes, seed);
    if (kind == core::JobKind::Decompress)
        it.stream = streamFor(format, it.original);
    it.originalHash = fnv1a(it.original);
    return it;
}

/**
 * The items of one class. Item k takes the k-th of `items` equal
 * log-size strata (seeded position inside it), so every seed sees the
 * same size spread; operation, format and content are spread evenly
 * over the strata.
 */
void
classItems(Plan &p, const ClassSpec &cs, util::Xoshiro256 &rng)
{
    const double lo = std::log(static_cast<double>(cs.minBytes));
    const double hi = std::log(static_cast<double>(cs.maxBytes));
    const auto n = static_cast<double>(cs.items);
    for (size_t k = 0; k < cs.items; ++k) {
        auto id = static_cast<uint32_t>(p.items.size());
        const auto kd = static_cast<double>(k);
        bool decompress = std::floor((kd + 1) * cs.decompressFraction) >
            std::floor(kd * cs.decompressFraction);
        auto kind = decompress ? core::JobKind::Decompress
                               : core::JobKind::Compress;
        auto format = cs.formats[(k / 2) % cs.formats.size()];
        const char *content = cs.contents[k % cs.contents.size()];
        auto bytes = std::clamp(
            static_cast<size_t>(std::exp(
                lo + (kd + rng.uniform()) / n * (hi - lo))),
            cs.minBytes, cs.maxBytes);
        uint64_t seed = mix(p.seed, id);
        Item it = makeItem(id, content, format, kind, bytes, seed);
        while (cs.streamsAtCrossover && decompress &&
               it.stream.size() < kAccelThreshold && bytes < cs.maxBytes) {
            bytes = std::min(bytes * 2, cs.maxBytes);
            it = makeItem(id, content, format, kind, bytes, seed);
        }
        p.items.push_back(std::move(it));
    }
}

void
shuffle(std::vector<uint32_t> &v, util::Xoshiro256 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Indices first..first+n-1, repeated as seeded permutations. */
class Deck
{
  public:
    Deck(uint32_t first, size_t n) : cards_(n)
    {
        for (size_t i = 0; i < n; ++i)
            cards_[i] = first + static_cast<uint32_t>(i);
    }

    uint32_t
    draw(util::Xoshiro256 &rng)
    {
        if (next_ == 0)
            shuffle(cards_, rng);
        uint32_t c = cards_[next_];
        next_ = (next_ + 1) % cards_.size();
        return c;
    }

  private:
    std::vector<uint32_t> cards_;
    size_t next_ = 0;
};

/** Each client walks every item once per pass, in seeded order. */
void
closedOrder(Plan &p)
{
    p.order.resize(static_cast<size_t>(p.clients));
    for (size_t c = 0; c < p.order.size(); ++c) {
        util::Xoshiro256 rng(mix(p.seed, 1000 + c));
        Deck deck(0, p.items.size());
        p.order[c].resize(kOrderLength);
        for (auto &idx : p.order[c])
            idx = deck.draw(rng);
    }
}

/**
 * Poisson arrivals. Classes come in shuffled blocks that hold each
 * class in exact proportion to its weight, and each class deals its
 * items as seeded permutations, so the mix does not drift by seed.
 */
void
openSchedule(Plan &p, double seconds)
{
    const auto &classes = classesOf(p.workload);
    util::Xoshiro256 rng(mix(p.seed, 2000));
    double unit = classes.front().weight;
    for (const ClassSpec &cs : classes)
        unit = std::min(unit, cs.weight);
    std::vector<uint32_t> block;
    std::vector<Deck> decks;
    uint32_t first = 0;
    for (size_t c = 0; c < classes.size(); ++c) {
        block.insert(block.end(),
                     static_cast<size_t>(std::lround(classes[c].weight / unit)),
                     static_cast<uint32_t>(c));
        decks.emplace_back(first, classes[c].items);
        first += static_cast<uint32_t>(classes[c].items);
    }
    double t = 0.0;
    for (size_t n = 0;; ++n) {
        t += rng.exponential(1.0 / kOpenMixRateRps);
        if (t >= seconds)
            break;
        if (n % block.size() == 0)
            shuffle(block, rng);
        p.arrivals.push_back({static_cast<int64_t>(t * 1e9),
                              decks[block[n % block.size()]].draw(rng)});
    }
}

} // namespace

nx::Framing
framingOf(nx::SessionFormat f)
{
    return f == nx::SessionFormat::Zlib ? nx::Framing::Zlib
                                        : nx::Framing::Gzip;
}

const char *
toString(Workload w)
{
    switch (w) {
      case Workload::BulkAccel: return "bulk-accel";
      case Workload::SmallSw: return "small-sw";
      case Workload::OpenMix: return "open-mix";
    }
    return "?";
}

std::optional<Workload>
parseWorkload(std::string_view name)
{
    for (auto w : {Workload::BulkAccel, Workload::SmallSw,
                   Workload::OpenMix}) {
        if (name == toString(w))
            return w;
    }
    return std::nullopt;
}

uint64_t
fnv1a(std::span<const uint8_t> bytes, uint64_t h)
{
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

Plan
buildPlan(Workload w, uint64_t seed, double seconds)
{
    Plan p;
    p.workload = w;
    p.seed = seed;
    // The closed loops run one client. With two clients on two engines,
    // four back-to-back runs of one bulk-accel plan on a shared 4-vCPU
    // host read 63-76 MB/s; with one client on one engine, 33.8-34.8.
    // small-sw follows for the same reason: each client is a busy
    // thread.
    switch (w) {
      case Workload::BulkAccel:
        p.clients = 1;
        p.workers = 1;
        p.windows = 1;
        break;
      case Workload::SmallSw:
        p.clients = 1;
        p.workers = 1;   // idle: nothing reaches the crossover
        p.windows = 1;
        break;
      case Workload::OpenMix:
        p.clients = 3;
        p.workers = 1;
        p.windows = 1;
        p.fifoDepth = 1;   // shallow: queued requests get busy-rejected
        break;
    }
    util::Xoshiro256 rng(mix(seed, 0));
    for (const ClassSpec &cs : classesOf(w))
        classItems(p, cs, rng);
    if (p.openLoop())
        openSchedule(p, seconds);
    else
        closedOrder(p);
    return p;
}

uint64_t
digest(const Plan &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](uint64_t v) {
        uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<uint8_t>(v >> (8 * i));
        h = fnv1a(b, h);
    };
    add(static_cast<uint64_t>(p.workload));
    add(p.seed);
    add(static_cast<uint64_t>(p.clients));
    add(static_cast<uint64_t>(p.workers));
    add(static_cast<uint64_t>(p.windows));
    add(static_cast<uint64_t>(p.fifoDepth));
    for (const Item &it : p.items) {
        add(it.id);
        add(static_cast<uint64_t>(it.format));
        add(static_cast<uint64_t>(it.kind));
        add(it.original.size());
        add(it.originalHash);
        add(it.stream.size());
        add(fnv1a(it.stream));
    }
    for (const auto &seq : p.order) {
        for (uint32_t idx : seq)
            add(idx);
    }
    for (const Arrival &a : p.arrivals) {
        add(static_cast<uint64_t>(a.dueNs));
        add(a.item);
    }
    return h;
}

} // namespace perfbench
