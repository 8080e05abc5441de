#include "perfbench/reference.h"

#include <algorithm>

#include "core/device.h"
#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "e842/e842.h"
#include "e842/e842_engine.h"
#include "nx/match_pipeline.h"

namespace perfbench {

namespace {

constexpr size_t kGzipHeader = 10;   // no optional fields
constexpr size_t kGzipTrailer = 8;
constexpr size_t kZlibHeader = 2;
constexpr size_t kZlibTrailer = 4;

/** The software codec's output, as core::SoftwareCodec frames it. */
std::vector<uint8_t>
softwareCompress(const Item &it, Reference &ref)
{
    if (it.format == nx::SessionFormat::E842)
        return e842::compress(it.original).bytes;
    deflate::DeflateOptions opts;
    opts.level = kLevel;
    auto raw = deflate::deflateCompress(it.original, opts);
    ref.chainSteps = raw.chainSteps;
    return it.format == nx::SessionFormat::Zlib
        ? deflate::zlibWrap(raw.bytes, it.original)
        : deflate::gzipWrap(raw.bytes, it.original);
}

} // namespace

std::vector<Reference>
computeReferences(const Plan &plan, const nx::NxConfig &cfg)
{
    nx::CompressEngine comp(cfg);
    nx::DecompressEngine decomp(cfg);
    nx::MatchPipeline match(cfg);
    e842::E842Engine e842eng(core::JobServerConfig{}.e842);

    std::vector<Reference> refs(plan.items.size());
    uint64_t seq = 0;
    for (const Item &it : plan.items) {
        Reference &ref = refs[it.id];
        ref.accelRoute = it.input().size() >= kAccelThreshold;
        bool compress = it.kind == core::JobKind::Compress;
        if (it.format == nx::SessionFormat::E842) {
            auto job = compress ? e842eng.compressJob(it.original)
                                : e842eng.decompressJob(it.stream);
            ref.cycles = job.cycles;
            ref.modelSeconds = job.seconds;
            if (compress)
                ref.accelOutput = std::move(job.output);
        } else if (compress) {
            auto job = core::runCompressJob(comp, cfg, it.original,
                                            framingOf(it.format),
                                            core::Mode::Auto, seq++);
            ref.cycles = job.engineCycles;
            ref.modelSeconds = job.seconds;
            ref.accelOutput = std::move(job.data);
            auto m = match.run(it.original);
            ref.lookups = m.lookups;
            ref.matches = m.matches;
            ref.bankStallCycles = m.bankStallCycles;
            ref.matchCycles = m.cycles;
        } else {
            auto job = core::runDecompressJob(decomp, cfg, it.stream,
                                              framingOf(it.format),
                                              uint64_t{1} << 30, seq++);
            ref.cycles = job.engineCycles;
            ref.modelSeconds = job.seconds;
        }
        if (compress)
            ref.softwareOutput = softwareCompress(it, ref);
    }
    return refs;
}

std::span<const uint8_t>
deflateBody(nx::SessionFormat format, std::span<const uint8_t> stream)
{
    size_t head = format == nx::SessionFormat::Zlib ? kZlibHeader
                                                    : kGzipHeader;
    size_t tail = format == nx::SessionFormat::Zlib ? kZlibTrailer
                                                    : kGzipTrailer;
    if (stream.size() < head + tail)
        return {};
    return stream.subspan(head, stream.size() - head - tail);
}

std::optional<std::vector<uint8_t>>
softwareDecode(nx::SessionFormat format, std::span<const uint8_t> stream)
{
    switch (format) {
      case nx::SessionFormat::E842: {
        auto r = e842::decompress(stream);
        if (!r.ok)
            return std::nullopt;
        return std::move(r.bytes);
      }
      case nx::SessionFormat::Gzip: {
        auto r = deflate::gzipUnwrap(stream);
        if (!r.ok || r.memberBytes != stream.size())
            return std::nullopt;
        return std::move(r.inflate.bytes);
      }
      case nx::SessionFormat::Zlib: {
        auto r = deflate::zlibUnwrap(stream);
        if (!r.ok || kZlibHeader + r.inflate.consumedBytes +
                         kZlibTrailer != stream.size())
            return std::nullopt;
        return std::move(r.inflate.bytes);
      }
      case nx::SessionFormat::RawDeflate:
        break;
    }
    return std::nullopt;
}

bool
roundTrips(nx::SessionFormat format, std::span<const uint8_t> stream,
           std::span<const uint8_t> original)
{
    auto out = softwareDecode(format, stream);
    return out && std::equal(out->begin(), out->end(), original.begin(),
                             original.end());
}

} // namespace perfbench
