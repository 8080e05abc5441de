#include "nx/decompress_engine.h"

#include "nx/memory_image.h"

#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "util/crc32.h"

namespace nx {

DecompressEngine::DecompressEngine(const NxConfig &cfg)
    : cfg_(cfg), dmaIn_(cfg.dmaIn), dmaOut_(cfg.dmaOut)
{
}

UnframedStream
unframeStream(Framing framing, NXSIM_UNTRUSTED std::span<const uint8_t> stream)
{
    UnframedStream out;
    switch (framing) {
      case Framing::Raw:
        out.inflate = deflate::inflateDecompress(stream);
        out.ok = out.inflate.ok();
        if (out.ok)
            out.checksum = util::crc32(out.inflate.bytes);
        break;
      case Framing::Gzip: {
        auto res = deflate::gzipUnwrap(stream);
        out.ok = res.ok;
        out.checksum = res.checksum;
        out.inflate = std::move(res.inflate);
        break;
      }
      case Framing::Zlib: {
        auto res = deflate::zlibUnwrap(stream);
        out.ok = res.ok;
        out.checksum = res.checksum;
        out.inflate = std::move(res.inflate);
        break;
      }
    }
    return out;
}

DecompressJobResult
DecompressEngine::run(const Crb &crb, std::span<const uint8_t> source)
{
    DecompressJobResult job;

    CondCode cc = validateCrb(crb);
    if (cc != CondCode::Success || crb.func != FuncCode::Decompress) {
        job.csb.cc = cc != CondCode::Success ? cc : CondCode::BadCrb;
        job.csb.valid = true;
        stats_.inc("bad_crbs");
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());
    dmaIn_.recordTransfer(source.size());

    UnframedStream un = unframeStream(crb.framing, source);
    if (!un.ok) {
        job.csb.cc = CondCode::BadData;
        job.csb.valid = true;
        stats_.inc("bad_data");
        return job;
    }
    deflate::InflateResult &inf = un.inflate;

    if (inf.bytes.size() > crb.target.totalBytes()) {
        job.csb.cc = CondCode::OutputOverflow;
        job.csb.valid = true;
        stats_.inc("output_overflows");
        return job;
    }

    // Timing from the decoded stream's statistics.
    const auto &st = inf.stats;
    job.timing.decode = sim::ceilDiv(st.symbols(),
        static_cast<uint64_t>(cfg_.decodeSymbolsPerCycle));
    job.timing.copyOut = sim::ceilDiv(inf.bytes.size(),
        static_cast<uint64_t>(cfg_.decompressBytesPerCycle));
    // Each dynamic block header serializes a table build in front of
    // its symbols; model a fixed cost per table (two tables per block).
    job.timing.tableLoads = (st.dynamicBlocks * 2) * 512;
    job.timing.dmaOut = dmaOut_.transferCycles(inf.bytes.size());
    dmaOut_.recordTransfer(inf.bytes.size());

    job.csb.cc = CondCode::Success;
    job.csb.valid = true;
    job.csb.processedBytes = source.size();
    job.csb.producedBytes = inf.bytes.size();
    job.csb.checksum = un.checksum;
    job.output = std::move(inf.bytes);

    stats_.inc("jobs");
    stats_.inc("source_bytes", source.size());
    stats_.inc("output_bytes", job.output.size());
    stats_.inc("cycles", job.timing.total());
    return job;
}

DecompressJobResult
DecompressEngine::runDma(const Crb &crb, MemoryImage &mem)
{
    auto all = mem.gather(crb.source);
    std::span<const uint8_t> source(all);
    if (crb.sourceOffset <= all.size())
        source = source.subspan(crb.sourceOffset);

    DecompressJobResult job = run(crb, source);

    constexpr sim::Tick kSgSetup = 64;
    auto extra = [&](const DdeList &l) {
        return l.entries.size() > 1
            ? kSgSetup * (l.entries.size() - 1) : 0;
    };
    job.timing.dmaIn += extra(crb.source);
    job.timing.dmaOut += extra(crb.target);

    if (job.csb.cc == CondCode::Success) {
        if (!mem.scatter(crb.target, job.output)) {
            job.csb.cc = CondCode::OutputOverflow;
            job.output.clear();
        }
    }
    return job;
}

} // namespace nx
