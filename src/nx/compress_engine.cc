#include "nx/compress_engine.h"

#include <algorithm>

#include "nx/memory_image.h"

#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "util/adler32.h"
#include "util/bitstream.h"
#include "util/crc32.h"
#include "util/checked.h"

namespace nx {

CompressEngine::CompressEngine(const NxConfig &cfg)
    : cfg_(cfg), matchPipe_(cfg), dhtGen_(cfg), huffman_(cfg),
      dmaIn_(cfg.dmaIn), dmaOut_(cfg.dmaOut)
{
}

namespace {

/** Emit stored blocks for the Wrap function code. */
EncodeResult
encodeStored(std::span<const uint8_t> data, const NxConfig &cfg)
{
    EncodeResult res;
    util::BitWriter bw;
    size_t off = 0;
    do {
        size_t n = std::min<size_t>(data.size() - off, 65535);
        bool final = off + n >= data.size();
        bw.writeBits(final ? 1 : 0, 1);
        bw.writeBits(0, 2);
        bw.alignToByte();
        auto len = nx::checked_cast<uint16_t>(n);
        bw.writeU16le(len);
        bw.writeU16le(nx::truncate_cast<uint16_t>(~len));
        bw.writeBytes(data.subspan(off, n));
        off += n;
    } while (off < data.size());
    res.bits = bw.bitsWritten();
    res.bytes = bw.take();
    // Stored blocks drain at the output DMA width, not the bit packer.
    res.cycles = sim::ceilDiv(res.bytes.size(),
        static_cast<uint64_t>(cfg.compressBytesPerCycle));
    return res;
}

} // namespace

FramedStream
frameStream(Framing framing, std::vector<uint8_t> deflate_stream,
            std::span<const uint8_t> source)
{
    FramedStream out;
    switch (framing) {
      case Framing::Raw:
        out.checksum = util::crc32(source);
        out.bytes = std::move(deflate_stream);
        break;
      case Framing::Gzip:
        out.checksum = util::crc32(source);
        out.bytes = deflate::gzipWrap(deflate_stream, out.checksum,
                                      source.size());
        break;
      case Framing::Zlib:
        out.checksum = util::adler32(source);
        out.bytes = deflate::zlibWrap(deflate_stream, out.checksum);
        break;
    }
    return out;
}

CompressJobResult
CompressEngine::run(const Crb &crb, std::span<const uint8_t> source,
                    DhtMode dht_mode, uint64_t dht_sample_bytes)
{
    CompressJobResult job;

    CondCode cc = validateCrb(crb);
    if (cc != CondCode::Success || crb.func == FuncCode::Decompress) {
        job.csb.cc = cc != CondCode::Success ? cc : CondCode::BadCrb;
        job.csb.valid = true;
        stats_.inc("bad_crbs");
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());
    dmaIn_.recordTransfer(source.size());

    EncodeResult enc;
    if (crb.func == FuncCode::Wrap) {
        enc = encodeStored(source, cfg_);
        job.timing.match = sim::ceilDiv(source.size(),
            static_cast<uint64_t>(cfg_.compressBytesPerCycle));
    } else {
        job.matchInfo = matchPipe_.run(source);
        job.timing.match = job.matchInfo.cycles;

        if (crb.func == FuncCode::CompressDht) {
            DhtResult dht = dhtGen_.generate(job.matchInfo.tokens,
                source.size(), dht_mode, dht_sample_bytes);
            job.timing.dhtGen = dht.cycles;
            enc = huffman_.encodeDynamic(job.matchInfo.tokens,
                                         dht.codes);
        } else {
            enc = huffman_.encodeFixed(job.matchInfo.tokens);
        }
    }
    job.timing.encode = enc.cycles;

    // Framing + checksum, computed inline with the data pipe (no extra
    // cycles beyond the streaming floor already counted).
    FramedStream framed = frameStream(crb.framing, std::move(enc.bytes),
                                      source);
    job.csb.checksum = framed.checksum;

    if (framed.bytes.size() > crb.target.totalBytes()) {
        job.csb.cc = CondCode::OutputOverflow;
        job.csb.valid = true;
        job.csb.processedBytes = 0;
        job.csb.producedBytes = 0;
        stats_.inc("output_overflows");
        return job;
    }

    job.timing.dmaOut = dmaOut_.transferCycles(framed.bytes.size());
    dmaOut_.recordTransfer(framed.bytes.size());

    job.csb.cc = CondCode::Success;
    job.csb.valid = true;
    job.csb.processedBytes = source.size();
    job.csb.producedBytes = framed.bytes.size();
    job.output = std::move(framed.bytes);

    stats_.inc("jobs");
    stats_.inc("source_bytes", source.size());
    stats_.inc("output_bytes", job.output.size());
    stats_.inc("cycles", job.timing.total());
    return job;
}

CompressJobResult
CompressEngine::runDma(const Crb &crb, MemoryImage &mem,
                       DhtMode dht_mode, uint64_t dht_sample_bytes)
{
    // Gather the source, skipping the resume offset.
    auto all = mem.gather(crb.source);
    std::span<const uint8_t> source(all);
    if (crb.sourceOffset <= all.size())
        source = source.subspan(crb.sourceOffset);

    CompressJobResult job = run(crb, source, dht_mode,
                                dht_sample_bytes);

    // Per-DDE-entry DMA setup beyond the first of each list.
    constexpr sim::Tick kSgSetup = 64;
    auto extra = [&](const DdeList &l) {
        return l.entries.size() > 1
            ? kSgSetup * (l.entries.size() - 1) : 0;
    };
    job.timing.dmaIn += extra(crb.source);
    job.timing.dmaOut += extra(crb.target);

    if (job.csb.cc == CondCode::Success) {
        bool fit = mem.scatter(crb.target, job.output);
        if (!fit) {
            job.csb.cc = CondCode::OutputOverflow;
            job.output.clear();
        }
    }
    return job;
}

} // namespace nx
