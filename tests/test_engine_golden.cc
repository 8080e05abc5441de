/**
 * @file
 * Golden digests of the engine model's output and timing.
 *
 * Every job in a fixed grid — POWER9 and z15; FHT, sampled DHT,
 * two-pass DHT and Wrap; raw, gzip and zlib framing; log, JSON, text,
 * random and zero inputs from 1 B to 256 KiB — is hashed: the output
 * bytes, the CSB (including the checksum), every timing field and the
 * match pipe's event counters. The decompress engine is then run on
 * that output and on software-encoded streams (stored, L1, L6), and
 * its output, CSB and timing are hashed the same way.
 *
 * The expected digests were recorded from the byte-at-a-time kernels
 * (before the word-compare match, slice-by-8 CRC and word-flush
 * BitWriter), so a pass proves the fast path is bit- and
 * cycle-identical. On a mismatch the test prints the new table row.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/zlib_stream.h"
#include "nx/compress_engine.h"
#include "nx/decompress_engine.h"
#include "workloads/corpus.h"

using nx::CompressEngine;
using nx::Crb;
using nx::DdeList;
using nx::DecompressEngine;
using nx::DhtMode;
using nx::Framing;
using nx::FuncCode;
using nx::NxConfig;

namespace {

/** FNV-1a over 64-bit words and byte strings. */
class Digest
{
  public:
    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    bytes(std::span<const uint8_t> b)
    {
        word(b.size());
        for (uint8_t c : b) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

// Sizes cover 1..7 mod 8 (word-load tails), runs longer than a
// 258-byte match and one 256 KiB job.
const std::vector<size_t> kSizes = {1, 2, 3, 12, 5, 6, 7, 9, 259, 517,
                                    1027, 4093, 16389, 65541, 262144};

const std::vector<std::string> kKinds = {"log", "json", "text", "random",
                                         "zeros"};

std::vector<uint8_t>
makeInput(const std::string &kind, size_t n)
{
    uint64_t seed = 7 + n;
    if (kind == "log")
        return workloads::makeLog(n, seed);
    if (kind == "json")
        return workloads::makeJson(n, seed);
    if (kind == "text")
        return workloads::makeText(n, seed);
    if (kind == "random")
        return workloads::makeRandom(n, seed);
    return workloads::makeZeros(n);
}

/** Every input of one kind, built once per process. */
const std::vector<std::vector<uint8_t>> &
inputs(const std::string &kind)
{
    static std::map<std::string, std::vector<std::vector<uint8_t>>> cache;
    auto &v = cache[kind];
    if (v.empty())
        for (size_t n : kSizes)
            v.push_back(makeInput(kind, n));
    return v;
}

Crb
makeCrb(FuncCode func, Framing framing, size_t source_bytes,
        size_t target_bytes)
{
    Crb crb;
    crb.func = func;
    crb.framing = framing;
    crb.source = DdeList::direct(0x10000,
        static_cast<uint32_t>(source_bytes));
    crb.target = DdeList::direct(0x20000,
        static_cast<uint32_t>(target_bytes));
    return crb;
}

void
hashCsb(Digest &d, const nx::Csb &csb)
{
    d.word(static_cast<uint64_t>(csb.cc));
    d.word(csb.valid ? 1 : 0);
    d.word(csb.processedBytes);
    d.word(csb.producedBytes);
    d.word(csb.checksum);
}

/** Decompress @p stream on the engine, check it and fold it in. */
void
hashDecompress(Digest &d, DecompressEngine &eng, Framing framing,
               std::span<const uint8_t> stream,
               std::span<const uint8_t> original)
{
    auto crb = makeCrb(FuncCode::Decompress, framing, stream.size(),
                       original.size() + 64);
    auto job = eng.run(crb, stream);
    ASSERT_EQ(job.csb.cc, nx::CondCode::Success);
    ASSERT_TRUE(std::equal(job.output.begin(), job.output.end(),
                           original.begin(), original.end()));
    d.bytes(job.output);
    hashCsb(d, job.csb);
    const auto &t = job.timing;
    for (sim::Tick v : {t.dispatch, t.dmaIn, t.tableLoads, t.decode,
                        t.copyOut, t.dmaOut, t.completion})
        d.word(v);
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
    return buf;
}

/** Compare against the recorded table; print the row on mismatch. */
void
expectDigest(const std::map<std::string, uint64_t> &table,
             const std::string &key, uint64_t got)
{
    auto it = table.find(key);
    ASSERT_NE(it, table.end()) << "no golden for " << key
        << "; new row: {\"" << key << "\", " << hex(got) << "},";
    EXPECT_EQ(it->second, got) << key << " changed; new row: {\"" << key
        << "\", " << hex(got) << "},";
}

// Recorded from the byte-at-a-time kernels; see the file comment.
const std::map<std::string, uint64_t> kEngineGolden = {
    {"power9/fht/raw/log", 0xf9f2e341f7d9454dull},
    {"power9/fht/raw/json", 0xb1c6244e7d9dbeabull},
    {"power9/fht/raw/text", 0xcc7f6b21225b0bc2ull},
    {"power9/fht/raw/random", 0xc447fd827ee486a9ull},
    {"power9/fht/raw/zeros", 0x04d01dcb88474496ull},
    {"power9/fht/gzip/log", 0x63968e80adb07453ull},
    {"power9/fht/gzip/json", 0x66b786fbd095be70ull},
    {"power9/fht/gzip/text", 0xa86c9bed514c9d0aull},
    {"power9/fht/gzip/random", 0x8cbafc58eda1a49eull},
    {"power9/fht/gzip/zeros", 0x34e902e670def135ull},
    {"power9/fht/zlib/log", 0xff2ab737aa0a1ce4ull},
    {"power9/fht/zlib/json", 0x4117f851d38c9a8full},
    {"power9/fht/zlib/text", 0xc46588fc59dd8748ull},
    {"power9/fht/zlib/random", 0x757b73fcc8a9a18aull},
    {"power9/fht/zlib/zeros", 0x9134413300503ea3ull},
    {"power9/dht/raw/log", 0xb7286e63c65e368cull},
    {"power9/dht/raw/json", 0xe649680a1c43b271ull},
    {"power9/dht/raw/text", 0xd994cacbaf36e431ull},
    {"power9/dht/raw/random", 0x8536cc3b6a1bb8bfull},
    {"power9/dht/raw/zeros", 0xfb59a44e8262e84eull},
    {"power9/dht/gzip/log", 0x1af006cf05b5a9bcull},
    {"power9/dht/gzip/json", 0xbac796e6d14fd6a8ull},
    {"power9/dht/gzip/text", 0xb246570192b59312ull},
    {"power9/dht/gzip/random", 0xedc701f7e13ef50eull},
    {"power9/dht/gzip/zeros", 0x35244623009383c7ull},
    {"power9/dht/zlib/log", 0x31846440ac67e4b5ull},
    {"power9/dht/zlib/json", 0x80bb610bc4ad8e7dull},
    {"power9/dht/zlib/text", 0x79d27c19c605c56bull},
    {"power9/dht/zlib/random", 0x0c978854a09ab468ull},
    {"power9/dht/zlib/zeros", 0x0cae8c9806e65d2dull},
    {"power9/dht2/raw/log", 0x15fd63f2e32f4a70ull},
    {"power9/dht2/raw/json", 0xc4171552d5e26313ull},
    {"power9/dht2/raw/text", 0x28eb5980e06edb5aull},
    {"power9/dht2/raw/random", 0xa0ac9898411b96e5ull},
    {"power9/dht2/raw/zeros", 0xf5d546e787b21fdfull},
    {"power9/dht2/gzip/log", 0xa947db46b98d959bull},
    {"power9/dht2/gzip/json", 0x134ac45c8ab84154ull},
    {"power9/dht2/gzip/text", 0x0900e5f02f9186e1ull},
    {"power9/dht2/gzip/random", 0xb87aaa5e3521eec4ull},
    {"power9/dht2/gzip/zeros", 0xf5119a09357909a0ull},
    {"power9/dht2/zlib/log", 0x6268057b24eff868ull},
    {"power9/dht2/zlib/json", 0xd1b77ffc9ace5221ull},
    {"power9/dht2/zlib/text", 0xce55a8b6bc6fc16cull},
    {"power9/dht2/zlib/random", 0xe98fc4c474593a22ull},
    {"power9/dht2/zlib/zeros", 0x0dbd1d6aa6c5c966ull},
    {"power9/wrap/raw/log", 0xbc1114e0781607afull},
    {"power9/wrap/raw/json", 0x8644cd7ded69428full},
    {"power9/wrap/raw/text", 0x763b0ba61216cc1bull},
    {"power9/wrap/raw/random", 0x3b78a5bad30eb3bfull},
    {"power9/wrap/raw/zeros", 0x7f371deaf2037739ull},
    {"power9/wrap/gzip/log", 0x80e87b18d2f4872bull},
    {"power9/wrap/gzip/json", 0xa43944a717957c7eull},
    {"power9/wrap/gzip/text", 0xdcdccb11c96f39a6ull},
    {"power9/wrap/gzip/random", 0x8822fc8b18ed0e08ull},
    {"power9/wrap/gzip/zeros", 0x3e0d45baca6d78deull},
    {"power9/wrap/zlib/log", 0xc2ba186262c3d88aull},
    {"power9/wrap/zlib/json", 0x26e72c94d64e1467ull},
    {"power9/wrap/zlib/text", 0x85dcb404dcc50a0dull},
    {"power9/wrap/zlib/random", 0x3134cac04ca00aa0ull},
    {"power9/wrap/zlib/zeros", 0x8a1937dde89abf9aull},
    {"z15/fht/raw/log", 0x1a0485b12ef3be57ull},
    {"z15/fht/raw/json", 0xfcc40d1cd717ff4cull},
    {"z15/fht/raw/text", 0x79bd4332a68e0f93ull},
    {"z15/fht/raw/random", 0xfbb1343160eec2c4ull},
    {"z15/fht/raw/zeros", 0x2e1269889413b43cull},
    {"z15/fht/gzip/log", 0x8c258b83265fe9d4ull},
    {"z15/fht/gzip/json", 0xa4e4523799d9763bull},
    {"z15/fht/gzip/text", 0xd008f11dbbefa00full},
    {"z15/fht/gzip/random", 0x8ad08bc14a6d4af1ull},
    {"z15/fht/gzip/zeros", 0xb95b58c2b92b7ecbull},
    {"z15/fht/zlib/log", 0xaf061a098c705014ull},
    {"z15/fht/zlib/json", 0xc8be644bd114a014ull},
    {"z15/fht/zlib/text", 0x16a7a363272adfdbull},
    {"z15/fht/zlib/random", 0x2b9feb9a94297d49ull},
    {"z15/fht/zlib/zeros", 0x750e2135ff2cbb11ull},
    {"z15/dht/raw/log", 0xc1e5f2bc0b378996ull},
    {"z15/dht/raw/json", 0xd131098329c240a8ull},
    {"z15/dht/raw/text", 0xfc8ae5f738a77d1cull},
    {"z15/dht/raw/random", 0x368a97b255cbecf5ull},
    {"z15/dht/raw/zeros", 0x64a611ff3295c14bull},
    {"z15/dht/gzip/log", 0x530f109589e21e92ull},
    {"z15/dht/gzip/json", 0xa75ce84aed377835ull},
    {"z15/dht/gzip/text", 0x474c4c3f8e677939ull},
    {"z15/dht/gzip/random", 0x4bceec5387232ab2ull},
    {"z15/dht/gzip/zeros", 0x06e013bb9b1e9f8cull},
    {"z15/dht/zlib/log", 0xb1d4ce82a68b90dfull},
    {"z15/dht/zlib/json", 0x097e314fe01fa506ull},
    {"z15/dht/zlib/text", 0x27f434c4c10bfdeeull},
    {"z15/dht/zlib/random", 0x50992942d68c3a16ull},
    {"z15/dht/zlib/zeros", 0xfe148ad13ea01c88ull},
    {"z15/dht2/raw/log", 0x5eec5aaa1b5a3ac4ull},
    {"z15/dht2/raw/json", 0x8e517cbc15be39c1ull},
    {"z15/dht2/raw/text", 0x78ee197269094747ull},
    {"z15/dht2/raw/random", 0xa13dd95d0bdaaeb9ull},
    {"z15/dht2/raw/zeros", 0x3249dc919dd20742ull},
    {"z15/dht2/gzip/log", 0x5acefb61e2c808a7ull},
    {"z15/dht2/gzip/json", 0x77ac14a19311585cull},
    {"z15/dht2/gzip/text", 0xc7df8c14ed614c46ull},
    {"z15/dht2/gzip/random", 0xd6cfc980fc67427cull},
    {"z15/dht2/gzip/zeros", 0x59fee0848ea3b1d1ull},
    {"z15/dht2/zlib/log", 0x4871783c9c358b6eull},
    {"z15/dht2/zlib/json", 0xd96d3d7722f1db8bull},
    {"z15/dht2/zlib/text", 0x01dc43d8707a563full},
    {"z15/dht2/zlib/random", 0x8213db64006cf1e0ull},
    {"z15/dht2/zlib/zeros", 0x2d583f856b6b7b8bull},
    {"z15/wrap/raw/log", 0x3e4001d1abfacffbull},
    {"z15/wrap/raw/json", 0xa7712a346c240c1full},
    {"z15/wrap/raw/text", 0xc5e927c87f775277ull},
    {"z15/wrap/raw/random", 0xcfef18cd0eebb4dfull},
    {"z15/wrap/raw/zeros", 0x40dc238a26f6e9e9ull},
    {"z15/wrap/gzip/log", 0x6e374cab477747ebull},
    {"z15/wrap/gzip/json", 0xf08057faca983576ull},
    {"z15/wrap/gzip/text", 0x7b2736e06741e98aull},
    {"z15/wrap/gzip/random", 0x5c8e603bf65e7600ull},
    {"z15/wrap/gzip/zeros", 0x681c6ae14bdf1432ull},
    {"z15/wrap/zlib/log", 0xccc1c345aa9ddf0eull},
    {"z15/wrap/zlib/json", 0x006e96bf00ea027bull},
    {"z15/wrap/zlib/text", 0xdbbcbe26959f0645ull},
    {"z15/wrap/zlib/random", 0x5dbe54a1d6b4e214ull},
    {"z15/wrap/zlib/zeros", 0xbbaac41e2366233eull},
};

const std::map<std::string, uint64_t> kSoftwareGolden = {
    {"power9/raw/log", 0x0f44d3cf7084f812ull},
    {"power9/raw/json", 0xa57314675af7ac9bull},
    {"power9/raw/text", 0x9f233e00af9bc728ull},
    {"power9/raw/random", 0x06ed53e98ae43056ull},
    {"power9/raw/zeros", 0xc1a94ff6fa587d44ull},
    {"power9/gzip/log", 0xb456c0702618a4d5ull},
    {"power9/gzip/json", 0xf294909a3b7888e5ull},
    {"power9/gzip/text", 0x6cfd8ebd69129560ull},
    {"power9/gzip/random", 0x5109b2cf1e0b38e9ull},
    {"power9/gzip/zeros", 0x7a0b5f894083a915ull},
    {"power9/zlib/log", 0xf17d8e341fefddf2ull},
    {"power9/zlib/json", 0x851e2d544d4f9727ull},
    {"power9/zlib/text", 0xe2402f7a063db12full},
    {"power9/zlib/random", 0x2f8371b124594eb6ull},
    {"power9/zlib/zeros", 0x71c87ff49ceaae2aull},
    {"z15/raw/log", 0xfa0615dc1ac4a366ull},
    {"z15/raw/json", 0x06ec7afaa2d82040ull},
    {"z15/raw/text", 0xc67f75cae1df1d69ull},
    {"z15/raw/random", 0x273a01d8ccc6b741ull},
    {"z15/raw/zeros", 0x6fed6a32f845c4bdull},
    {"z15/gzip/log", 0x459ce3300bffb781ull},
    {"z15/gzip/json", 0x92c3ca708c4359a0ull},
    {"z15/gzip/text", 0xb781006447a7afeeull},
    {"z15/gzip/random", 0x91b2ea97cc8bc4deull},
    {"z15/gzip/zeros", 0x775645627a6a3660ull},
    {"z15/zlib/log", 0x111510a470beef4aull},
    {"z15/zlib/json", 0x19940c2801131104ull},
    {"z15/zlib/text", 0x58379e3595bacf47ull},
    {"z15/zlib/random", 0xbfec2b6da7fa4ce1ull},
    {"z15/zlib/zeros", 0x113a350d392684cbull},
};

struct EngineCell
{
    std::string chip;
    std::string mode;    // fht | dht | dht2 | wrap
    Framing framing;
};

std::string
framingName(Framing f)
{
    switch (f) {
      case Framing::Raw: return "raw";
      case Framing::Gzip: return "gzip";
      case Framing::Zlib: return "zlib";
    }
    return "?";
}

NxConfig
chipConfig(const std::string &chip)
{
    return chip == "z15" ? NxConfig::z15() : NxConfig::power9();
}

std::vector<EngineCell>
engineCells()
{
    std::vector<EngineCell> cells;
    for (const char *chip : {"power9", "z15"})
        for (const char *mode : {"fht", "dht", "dht2", "wrap"})
            for (Framing f : {Framing::Raw, Framing::Gzip, Framing::Zlib})
                cells.push_back({chip, mode, f});
    return cells;
}

std::string
cellName(const ::testing::TestParamInfo<EngineCell> &p)
{
    return p.param.chip + "_" + p.param.mode + "_" +
        framingName(p.param.framing);
}

using SoftwareCell = std::tuple<const char *, Framing>;

std::string
softwareCellName(const ::testing::TestParamInfo<SoftwareCell> &p)
{
    return std::string(std::get<0>(p.param)) + "_" +
        framingName(std::get<1>(p.param));
}

} // namespace

class EngineGolden : public ::testing::TestWithParam<EngineCell>
{
};

TEST_P(EngineGolden, OutputAndTimingMatchRecordedDigests)
{
    const EngineCell &cell = GetParam();
    NxConfig cfg = chipConfig(cell.chip);
    FuncCode func = cell.mode == "fht" ? FuncCode::CompressFht
        : cell.mode == "wrap"          ? FuncCode::Wrap
                                       : FuncCode::CompressDht;
    DhtMode dmode = cell.mode == "dht2" ? DhtMode::TwoPass
                                        : DhtMode::Sampled;

    for (const auto &kind : kKinds) {
        CompressEngine comp(cfg);
        DecompressEngine decomp(cfg);
        Digest d;
        for (const auto &input : inputs(kind)) {
            auto crb = makeCrb(func, cell.framing, input.size(),
                               input.size() * 2 + 1024);
            auto job = comp.run(crb, input, dmode);
            ASSERT_EQ(job.csb.cc, nx::CondCode::Success);
            d.bytes(job.output);
            hashCsb(d, job.csb);
            const auto &t = job.timing;
            for (sim::Tick v : {t.dispatch, t.dmaIn, t.dhtGen, t.match,
                                t.encode, t.dmaOut, t.completion})
                d.word(v);
            const auto &m = job.matchInfo;
            for (uint64_t v : {m.cycles, m.rows, m.bankStallCycles,
                               m.lookups, m.candidatesTried, m.matches,
                               m.matchedBytes})
                d.word(v);
            d.word(m.tokens.size());
            hashDecompress(d, decomp, cell.framing, job.output, input);
        }
        expectDigest(kEngineGolden, cell.chip + "/" + cell.mode + "/" +
                         framingName(cell.framing) + "/" + kind,
                     d.value());
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, EngineGolden,
                         ::testing::ValuesIn(engineCells()), cellName);

class SoftwareStreamGolden : public ::testing::TestWithParam<SoftwareCell>
{
};

TEST_P(SoftwareStreamGolden, EngineDecodesSoftwareStreamsIdentically)
{
    auto [chip, framing] = GetParam();
    NxConfig cfg = chipConfig(chip);
    for (const auto &kind : kKinds) {
        DecompressEngine decomp(cfg);
        Digest d;
        for (int level : {0, 1, 6}) {
            for (const auto &input : inputs(kind)) {
                deflate::DeflateOptions opts;
                opts.level = level;
                auto raw = deflate::deflateCompress(input, opts).bytes;
                std::vector<uint8_t> stream =
                    framing == Framing::Gzip
                        ? deflate::gzipWrap(raw, input)
                    : framing == Framing::Zlib
                        ? deflate::zlibWrap(raw, input, level)
                        : raw;
                d.bytes(stream);
                hashDecompress(d, decomp, framing, stream, input);
            }
        }
        expectDigest(kSoftwareGolden, std::string(chip) + "/" +
                         framingName(framing) + "/" + kind,
                     d.value());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SoftwareStreamGolden,
    ::testing::Combine(::testing::Values("power9", "z15"),
                       ::testing::Values(Framing::Raw, Framing::Gzip,
                                         Framing::Zlib)),
    softwareCellName);
