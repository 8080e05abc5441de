/**
 * @file
 * The repository benchmark: drives a seeded plan through nx::Session
 * over a shared core::JobServer (POWER9 model), checks every output
 * and prints end-to-end metrics, or, with --trace 1, per-layer metrics
 * from a traced run that replays each request through the layer entry
 * points it used.
 *
 *   perfbench --workload bulk-accel|small-sw|open-mix --seed N
 *             --seconds S --trace 0|1 [--out DIR]
 *   perfbench --plan-only --workload W --seed N [--seconds S]
 *   perfbench --self-test
 *
 * The last line of standard output is one JSON object. The exit code
 * is 0 only when every output checked out.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_pool.h"
#include "core/device.h"
#include "core/job_server.h"
#include "core/session.h"
#include "deflate/deflate_encoder.h"
#include "deflate/inflate_decoder.h"
#include "e842/e842.h"
#include "nx/nx_config.h"
#include "perfbench/plan.h"
#include "perfbench/reference.h"
#include "perfbench/trace.h"
#include "util/adler32.h"
#include "util/checked.h"
#include "util/crc32.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr size_t kMaxTraceSpans = 50000;
constexpr size_t kMaxDiagnostics = 8;
/** Closed-loop throughput is the median over windows of this length. */
constexpr int64_t kWindowNs = 1'000'000'000;
/**
 * Latency percentiles are the median over windows of this length: each
 * holds >= 1000 requests, so its p99 has >= 10 samples beyond it.
 */
constexpr int64_t kLatencyWindowNs = 5'000'000'000;
/** The open-loop generator spins, instead of sleeping, this close to due. */
constexpr auto kSpinBeforeDue = std::chrono::microseconds(300);
/** Closed-loop warm-up before each measured phase. */
constexpr double kWarmUpSeconds = 1.0;
/**
 * The latency limit behind slo_frac, in every workload. It sits above
 * open-mix's p99 (11-13 ms at kOpenMixRateRps on a 4-vCPU VM, set by
 * the engine time of the largest log compress requests), so slo_frac
 * counts the requests that also waited behind one of those, backed
 * off, or failed.
 */
constexpr double kSloSeconds = 0.020;


/** Every metric the benchmark prints, with its unit and clock. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *clock;   ///< host, modelled, or exact (a count or ratio)
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"host_mbps", "MB/s", "host"},
    {"host_rps", "1/s", "host"},
    {"lat_p50_ms", "ms", "host"},
    {"lat_p99_ms", "ms", "host"},
    {"comp_p50_ms", "ms", "host"},
    {"decomp_p50_ms", "ms", "host"},
    {"slo_frac", "fraction", "host"},
    {"model_gbps", "GB/s", "modelled"},
    {"ratio", "x", "exact"},
    {"ok_frac", "fraction", "exact"},
    {"rss_mb", "MB", "host"},
};

constexpr MetricDef kPerLayer[] = {
    {"nx.compress.host_mbps", "MB/s", "host"},
    {"nx.decompress.host_mbps", "MB/s", "host"},
    {"nx.compress.cycles_per_kb", "cycles/KiB", "modelled"},
    {"nx.decompress.cycles_per_kb", "cycles/KiB", "modelled"},
    {"nx.match.match_frac", "fraction", "modelled"},
    {"nx.match.bank_stall_frac", "fraction", "modelled"},
    {"deflate.compress.us_per_call", "us", "host"},
    {"deflate.inflate.us_per_call", "us", "host"},
    {"deflate.inflate.host_mbps", "MB/s", "host"},
    {"deflate.lz77.chain_steps_per_kb", "steps/KiB", "exact"},
    {"util.crc32.host_mbps", "MB/s", "host"},
    {"util.adler32.host_mbps", "MB/s", "host"},
    {"core.buffer_pool.hit_frac", "fraction", "exact"},
    {"core.buffer_pool.stage_us_per_mb", "us/MB", "host"},
    {"core.overhead_us_p50", "us", "host"},
    {"core.job_server.wait_p50_us", "us", "host"},
    {"core.job_server.wait_p99_us", "us", "host"},
    {"core.job_server.reject_frac", "fraction", "host"},
    {"core.job_server.queue_hw", "count", "host"},
    {"core.session.fallback_frac", "fraction", "host"},
    {"e842.compress.host_mbps", "MB/s", "host"},
    {"e842.decompress.host_mbps", "MB/s", "host"},
    {"bench.gen_late_p99_ms", "ms", "host"},
    {"bench.trace_overhead_frac", "fraction", "host"},
};

struct Options
{
    Workload workload = Workload::BulkAccel;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    bool planOnly = false;
    bool selfTest = false;
};

int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Median of @p v (sorted in place); 0 when empty. */
double
median(std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratioOf(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Threads of this process, from /proc (0 where unavailable). */
int
processThreads()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return 0;
}

/** Keeps replayed results observable so no leg is optimised away. */
std::atomic<uint64_t> g_sink{0};

void
sink(uint64_t v)
{
    g_sink.fetch_add(v, std::memory_order_relaxed);
}

/** A compress output that differs from its reference: checked later. */
struct Unmatched
{
    uint32_t item;
    std::vector<uint8_t> bytes;
    uint64_t count = 1;
};

/** One request's latency and when it completed. */
struct Latency
{
    double seconds = 0.0;
    int64_t endNs = 0;
    bool compress = false;
};

/** One client's completions in one throughput window. */
struct Window
{
    uint64_t completed = 0;
    uint64_t bytes = 0;
    int64_t asideNs = 0;
};

/** A Session call of the traced phase, replayed after it. */
struct TracedCall
{
    uint32_t item = 0;
    nx::Backend backend = nx::Backend::Software;
    uint64_t request = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Everything one client thread measured in one phase. */
struct ClientLog
{
    std::vector<Latency> latencies;
    std::vector<double> genLate;       ///< seconds, open loop
    std::vector<double> overheadUs;    ///< traced phase
    uint64_t attempted = 0;
    uint64_t completed = 0;            ///< returned output that checked
    uint64_t failed = 0;
    uint64_t withinSlo = 0;
    uint64_t bytes = 0;                ///< uncompressed payload bytes
    int64_t wallNs = 0;
    std::vector<Window> windows;       ///< by completion time
    std::vector<TracedCall> traced;
    std::vector<Unmatched> unmatched;
    std::vector<std::string> diagnostics;
    SpanLog spans;

    void
    diagnose(std::string msg)
    {
        if (diagnostics.size() < kMaxDiagnostics)
            diagnostics.push_back(std::move(msg));
    }
};

/** The system under test: one JobServer, one Session per format and client. */
class Rig
{
  public:
    Rig(const Plan &plan, const nx::NxConfig &cfg)
        : server_(cfg, serverConfig(plan))
    {
        for (int c = 0; c < plan.clients; ++c) {
            for (const Item &it : plan.items) {
                auto key = std::make_pair(c, it.format);
                if (sessions_.count(key))
                    continue;
                nx::SessionPolicy pol;
                pol.format = it.format;
                pol.level = kLevel;
                pol.window = c % plan.windows;
                sessions_[key] =
                    std::make_unique<nx::Session>(server_, pol);
            }
        }
    }

    nx::Session &
    session(int client, nx::SessionFormat f)
    {
        return *sessions_.at(std::make_pair(client, f));
    }

    core::JobServer &server() { return server_; }

    /** Summed session counters (pool, routing, fallback). */
    nx::SessionStats
    sessionTotals() const
    {
        nx::SessionStats t;
        for (const auto &kv : sessions_) {
            nx::SessionStats s = kv.second->stats();
            t.accelRouted += s.accelRouted;
            t.fallbacks += s.fallbacks;
            t.pool.acquires += s.pool.acquires;
            t.pool.poolHits += s.pool.poolHits;
        }
        return t;
    }

  private:
    static core::JobServerConfig
    serverConfig(const Plan &plan)
    {
        core::JobServerConfig j;
        j.workers = plan.workers;
        j.windows = plan.windows;
        j.window.fifoDepth = plan.fifoDepth;
        return j;
    }

    core::JobServer server_;
    // Declared after server_: sessions close before the server stops.
    std::map<std::pair<int, nx::SessionFormat>,
             std::unique_ptr<nx::Session>> sessions_;
};

/** Engines and a staging pool a client replays its requests on. */
struct Replayer
{
    explicit Replayer(const nx::NxConfig &c)
        : cfg(c), comp(c), decomp(c)
    {
    }

    const nx::NxConfig &cfg;
    nx::CompressEngine comp;
    nx::DecompressEngine decomp;
    nx::BufferPool pool;   ///< the Session's default geometry
    uint64_t seq = 0;
};

/** Shared, read-only state of one phase. */
struct PhaseContext
{
    const Plan &plan;
    const std::vector<Reference> &refs;
    Rig &rig;
    Clock::time_point origin;
    int64_t phaseNs = 0;
    bool traced = false;
    size_t arrivals = 0;                    ///< open loop: in this phase
    std::atomic<size_t> *cursor = nullptr;  ///< open loop: next arrival
};

enum class Verdict
{
    Ok,
    Failed,
    Unmatched,   ///< differs from the reference; round-tripped later
};

Verdict
check(const Item &it, const Reference &ref, nx::SessionResult &r,
      ClientLog &log)
{
    if (!r.ok) {
        log.diagnose("item " + std::to_string(it.id) + ": " + r.error);
        return Verdict::Failed;
    }
    if (r.backend == nx::Backend::Accelerator &&
        r.seconds != ref.modelSeconds) {
        log.diagnose("item " + std::to_string(it.id) +
                     ": modelled time differs from the engine path");
        return Verdict::Failed;
    }
    if (it.kind == core::JobKind::Decompress) {
        if (r.data == it.original)
            return Verdict::Ok;
        log.diagnose("item " + std::to_string(it.id) +
                     ": decompressed bytes differ from the original");
        return Verdict::Failed;
    }
    if (r.data == ref.output(r.backend))
        return Verdict::Ok;
    for (Unmatched &u : log.unmatched) {
        if (u.item == it.id && u.bytes == r.data) {
            ++u.count;
            return Verdict::Unmatched;
        }
    }
    log.unmatched.push_back({it.id, std::move(r.data), 1});
    return Verdict::Unmatched;
}

/**
 * Check one output and count it in @p log as failed or completed (an
 * unmatched compress output counts as completed until verifyUnmatched
 * decides). Returns whether it counted as completed.
 */
bool
account(const Item &it, const Reference &ref, nx::SessionResult &r,
        ClientLog &log)
{
    ++log.attempted;
    if (check(it, ref, r, log) == Verdict::Failed) {
        ++log.failed;
        return false;
    }
    ++log.completed;
    log.bytes += it.original.size();
    return true;
}

/** Run @p body(c) for every client c, the calling thread being client 0. */
template <typename F>
void
forEachClient(int clients, F &&body, int *threads = nullptr)
{
    std::vector<std::exception_ptr> errors(static_cast<size_t>(clients));
    auto guarded = [&](int c) {
        try {
            body(c);
        } catch (...) {
            errors[static_cast<size_t>(c)] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> others;
        for (int c = 1; c < clients; ++c)
            others.emplace_back(guarded, c);
        if (threads)
            *threads = processThreads();
        guarded(0);
    }
    for (auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/** Time @p f as a leg of request @p req. */
template <typename F>
int64_t
leg(Clock::time_point origin, ClientLog &log, const char *name,
    uint64_t req, uint64_t bytes, bool covers, F &&f)
{
    auto t0 = Clock::now();
    f();
    auto t1 = Clock::now();
    log.spans.spans.push_back({name, req, nsBetween(origin, t0),
                               nsBetween(origin, t1), bytes, false,
                               covers});
    return nsBetween(t0, t1);
}

/**
 * Replay a traced request through the layer entry points its Session
 * call used, each in its own span. Returns the time of the legs that
 * cover the Session path; the checksum after an engine leg is a probe
 * (the engine computed it already) and is not counted.
 */
int64_t
replay(Clock::time_point origin, ClientLog &log, Replayer &rp,
       const Item &it, nx::Backend backend, uint64_t req)
{
    const bool compress = it.kind == core::JobKind::Compress;
    const auto in = it.input();
    const uint64_t n = it.original.size();
    int64_t covered = 0;

    if (in.size() >= kAccelThreshold) {
        covered += leg(origin, log, "core.buffer_pool.stage", req,
                       in.size(), true, [&] {
            auto lease = rp.pool.acquire(in.size());
            nx::copyBytes(lease.data(), in.data(), in.size());
            sink(lease.data()[in.size() - 1]);
        });
    }

    if (it.format == nx::SessionFormat::E842) {
        return covered + leg(origin, log,
                             compress ? "e842.compress" : "e842.decompress",
                             req, n, true, [&] {
            sink(compress ? e842::compress(it.original).bytes.size()
                          : e842::decompress(it.stream).bytes.size());
        });
    }

    const bool engine = backend == nx::Backend::Accelerator;
    if (engine && compress) {
        covered += leg(origin, log, "nx.compress", req, n, true, [&] {
            sink(core::runCompressJob(rp.comp, rp.cfg, it.original,
                                      framingOf(it.format),
                                      core::Mode::Auto, rp.seq++)
                     .data.size());
        });
    } else if (engine) {
        covered += leg(origin, log, "nx.decompress", req, n, true, [&] {
            sink(core::runDecompressJob(rp.decomp, rp.cfg, it.stream,
                                        framingOf(it.format),
                                        uint64_t{1} << 30, rp.seq++)
                     .data.size());
        });
    } else if (compress) {
        covered += leg(origin, log, "deflate.compress", req, n, true, [&] {
            deflate::DeflateOptions opts;
            opts.level = kLevel;
            sink(deflate::deflateCompress(it.original, opts).bytes.size());
        });
    } else {
        covered += leg(origin, log, "deflate.inflate", req, n, true, [&] {
            auto body = deflateBody(it.format, it.stream);
            sink(deflate::inflateDecompress(body).bytes.size());
        });
    }

    const bool zlib = it.format == nx::SessionFormat::Zlib;
    return covered + leg(origin, log, zlib ? "util.adler32" : "util.crc32",
                         req, n, !engine, [&] {
        sink(zlib ? util::adler32(it.original) : util::crc32(it.original));
    });
}

/**
 * Send one request and check its output. Latency runs from @p due,
 * less @p overslept_ns: the time the open-loop generator itself lost
 * waking up, which is the host timer's, not the program's.
 */
void
serve(const PhaseContext &ctx, int client, ClientLog &log, const Item &it,
      Clock::time_point due, int64_t overslept_ns)
{
    nx::Session &s = ctx.rig.session(client, it.format);
    auto t0 = Clock::now();
    nx::SessionResult r = it.kind == core::JobKind::Compress
        ? s.compress(it.original) : s.decompress(it.stream);
    auto t1 = Clock::now();

    double lat =
        static_cast<double>(nsBetween(due, t1) - overslept_ns) / 1e9;
    log.latencies.push_back({lat, nsBetween(ctx.origin, t1),
                             it.kind == core::JobKind::Compress});
    if (ctx.traced) {
        log.traced.push_back({it.id, r.backend,
                              log.attempted * 16 +
                                  static_cast<uint64_t>(client),
                              nsBetween(ctx.origin, t0),
                              nsBetween(ctx.origin, t1)});
    }

    auto w = static_cast<size_t>(nsBetween(ctx.origin, t1) / kWindowNs);
    if (log.windows.size() <= w)
        log.windows.resize(w + 1);
    Window &win = log.windows[w];
    if (account(it, ctx.refs[it.id], r, log)) {
        ++win.completed;
        win.bytes += it.original.size();
        if (lat <= kSloSeconds)
            ++log.withinSlo;
    }
    win.asideNs += nsBetween(t1, Clock::now());
}

void
closedClient(const PhaseContext &ctx, int client, ClientLog &log)
{
    const auto &order = ctx.plan.order[static_cast<size_t>(client)];
    const auto deadline = ctx.origin + std::chrono::nanoseconds(ctx.phaseNs);
    size_t k = 0;
    while (Clock::now() < deadline) {
        const Item &it = ctx.plan.items[order[k++ % order.size()]];
        serve(ctx, client, log, it, Clock::now(), 0);
    }
    log.wallNs = nsBetween(ctx.origin, Clock::now());
}

/**
 * Open loop: clients take the next due arrival from a shared cursor,
 * so a request waits for a client only when all of them are busy.
 * Latency runs from the due time, so that wait counts (no coordinated
 * omission). The generator's own lateness, how long after
 * max(due, taken) the request was issued, is recorded and taken out.
 */
void
openClient(const PhaseContext &ctx, int client, ClientLog &log)
{
    size_t i = 0;
    while ((i = ctx.cursor->fetch_add(1)) < ctx.arrivals) {
        const Arrival &a = ctx.plan.arrivals[i];
        auto taken = Clock::now();
        auto due = ctx.origin + std::chrono::nanoseconds(a.dueNs);
        // Sleep, then spin the last kSpinBeforeDue: a sleeping thread
        // wakes 0.1 ms late at the median on a virtual machine. The
        // spin is kept short because spinning clients take CPU from the
        // engine worker they are measuring, and a longer one does not
        // cut the tail: a virtual machine also preempts a spinning
        // thread for milliseconds. What lateness is left is taken out
        // of the request's latency.
        if (due - kSpinBeforeDue > taken)
            std::this_thread::sleep_until(due - kSpinBeforeDue);
        auto issued = Clock::now();
        while (issued < due)
            issued = Clock::now();
        int64_t overslept = nsBetween(std::max(due, taken), issued);
        log.genLate.push_back(static_cast<double>(overslept) / 1e9);
        serve(ctx, client, log, ctx.plan.items[a.item], due, overslept);
    }
    log.wallNs = nsBetween(ctx.origin, Clock::now());
}

struct Phase
{
    std::vector<ClientLog> logs;
    Clock::time_point origin;
    int64_t wallNs = 0;
    int threads = 0;
};

/** Round-trip every unmatched output; move failures into `failed`. */
void
verifyUnmatched(const Plan &plan, Phase &ph)
{
    for (ClientLog &log : ph.logs) {
        for (const Unmatched &u : log.unmatched) {
            const Item &it = plan.items[u.item];
            if (roundTrips(it.format, u.bytes, it.original))
                continue;
            log.diagnose("item " + std::to_string(u.item) +
                         ": compressed output does not round-trip");
            log.failed += u.count;
            log.completed -= u.count;
        }
    }
}

/**
 * Run one measured phase of @p seconds on @p rig, then round-trip its
 * unmatched outputs, so every phase returns checked.
 */
Phase
runPhase(const Plan &plan, const std::vector<Reference> &refs, Rig &rig,
         double seconds, bool traced)
{
    std::atomic<size_t> cursor{0};
    PhaseContext ctx{plan, refs, rig, Clock::now(),
                     static_cast<int64_t>(seconds * 1e9), traced,
                     0, &cursor};
    if (plan.openLoop()) {
        ctx.arrivals = static_cast<size_t>(std::lower_bound(
            plan.arrivals.begin(), plan.arrivals.end(), ctx.phaseNs,
            [](const Arrival &a, int64_t t) { return a.dueNs < t; }) -
            plan.arrivals.begin());
    }

    Phase ph;
    ph.logs.resize(static_cast<size_t>(plan.clients));
    for (int c = 0; c < plan.clients; ++c)
        ph.logs[static_cast<size_t>(c)].spans.thread = c;

    // The calling thread is client 0, so the process runs exactly
    // clients + workers threads.
    ctx.origin = ph.origin = Clock::now();
    forEachClient(plan.clients, [&](int c) {
        ClientLog &log = ph.logs[static_cast<size_t>(c)];
        if (plan.openLoop())
            openClient(ctx, c, log);
        else
            closedClient(ctx, c, log);
    }, &ph.threads);
    for (const ClientLog &log : ph.logs)
        ph.wallNs = std::max(ph.wallNs, log.wallNs);
    verifyUnmatched(plan, ph);
    return ph;
}

/**
 * After a traced phase, replay its Session calls in start order on one
 * thread, for at most @p budget_s seconds, and record each call as the
 * parent span of its legs. One thread, so that the legs are timed
 * without the CPU contention of concurrent clients.
 */
void
replayPhase(const Plan &plan, const nx::NxConfig &cfg, Phase &ph,
            double budget_s)
{
    struct Ref
    {
        ClientLog *log;
        const TracedCall *call;
    };
    std::vector<Ref> calls;
    for (ClientLog &log : ph.logs) {
        for (const TracedCall &t : log.traced)
            calls.push_back({&log, &t});
    }
    std::sort(calls.begin(), calls.end(), [](const Ref &a, const Ref &b) {
        return a.call->startNs < b.call->startNs;
    });

    Replayer rp(cfg);
    auto deadline = Clock::now() +
        std::chrono::nanoseconds(static_cast<int64_t>(budget_s * 1e9));
    for (const Ref &r : calls) {
        if (Clock::now() >= deadline)
            break;
        const TracedCall &t = *r.call;
        const Item &it = plan.items[t.item];
        int64_t covered = replay(ph.origin, *r.log, rp, it, t.backend,
                                 t.request);
        r.log->spans.spans.push_back(
            {it.kind == core::JobKind::Compress ? "core.session.compress"
                                                : "core.session.decompress",
             t.request, t.startNs, t.endNs, it.original.size(), true,
             false});
        r.log->overheadUs.push_back(
            static_cast<double>(t.endNs - t.startNs - covered) / 1e3);
    }
}

/**
 * Serve every item once, one at a time from client 0. The first rig of
 * a run gets this before its warm-up: it settles process-wide state
 * (heap growth for the largest buffers, first touch of every payload),
 * which otherwise made open-mix's first latency window the slowest of
 * the run, since one second of its schedule sends only some items.
 */
void
touchItems(const Plan &plan, Rig &rig)
{
    for (const Item &it : plan.items) {
        nx::Session &s = rig.session(0, it.format);
        auto r = it.kind == core::JobKind::Compress
            ? s.compress(it.original) : s.decompress(it.stream);
        sink(r.data.size());
    }
}

/**
 * Unmeasured warm-up of @p rig with the traffic of the phase that
 * follows, so that the rig's statistics, which count the warm-up too,
 * see one traffic shape: open-mix serves the first kWarmUpSeconds of
 * its schedule; in a closed loop every client walks the items for at
 * least kWarmUpSeconds, and together they touch every item.
 */
void
warmUp(const Plan &plan, const std::vector<Reference> &refs, Rig &rig)
{
    if (plan.openLoop()) {
        runPhase(plan, refs, rig, kWarmUpSeconds, false);
        return;
    }
    auto deadline = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kWarmUpSeconds));
    forEachClient(plan.clients, [&](int c) {
        auto step = static_cast<size_t>(plan.clients);
        for (size_t i = static_cast<size_t>(c);
             i < plan.items.size() || Clock::now() < deadline; i += step) {
            const Item &it = plan.items[i % plan.items.size()];
            nx::Session &s = rig.session(c, it.format);
            auto r = it.kind == core::JobKind::Compress
                ? s.compress(it.original) : s.decompress(it.stream);
            sink(r.data.size());
        }
    });
}

struct Totals
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

Totals
totals(const Phase &ph)
{
    Totals t;
    for (const ClientLog &log : ph.logs) {
        t.attempted += log.attempted;
        t.failed += log.failed;
    }
    return t;
}

/** A run is correct when no output failed its check. */
bool
passes(const Totals &t)
{
    return t.failed == 0;
}

using Metrics = std::map<std::string, double>;

/**
 * How often the plan sends each item: over the open-loop schedule, or
 * over the closed-loop orders (every item equally often).
 */
std::vector<double>
occurrences(const Plan &plan)
{
    std::vector<double> n(plan.items.size(), 0.0);
    for (const Arrival &a : plan.arrivals)
        n[a.item] += 1.0;
    for (const auto &seq : plan.order) {
        for (uint32_t idx : seq)
            n[idx] += 1.0;
    }
    return n;
}

/**
 * Modelled and exact metrics: functions of the plan alone. Each item
 * counts as often as the plan sends it, so the figures follow the mix
 * being served.
 */
void
modelledMetrics(const Plan &plan, const std::vector<Reference> &refs,
                Metrics &e2e, Metrics &layer)
{
    const std::vector<double> sent = occurrences(plan);
    // The modelled set is what the policy sends to the engines; a plan
    // with none (small-sw) is modelled as if all of it were sent.
    bool anyAccel = std::any_of(refs.begin(), refs.end(),
                                [](const Reference &r) {
        return r.accelRoute;
    });
    double modelBytes = 0, modelSeconds = 0;
    double compIn = 0, compOut = 0;
    double cyc[2] = {0, 0}, kib[2] = {0, 0};
    double lookups = 0, matches = 0, stalls = 0, matchCycles = 0;
    double chainSteps = 0, chainKib = 0;
    for (const Item &it : plan.items) {
        const Reference &ref = refs[it.id];
        const double k = sent[it.id];
        const bool compress = it.kind == core::JobKind::Compress;
        const auto n = k * static_cast<double>(it.original.size());
        const bool deflate = it.format != nx::SessionFormat::E842;
        if (compress) {
            compIn += n;
            compOut += k * static_cast<double>(
                ref.output(ref.accelRoute ? nx::Backend::Accelerator
                                          : nx::Backend::Software)
                    .size());
            if (deflate && !ref.accelRoute) {
                chainSteps += k * static_cast<double>(ref.chainSteps);
                chainKib += n / 1024.0;
            }
        }
        if (anyAccel && !ref.accelRoute)
            continue;
        modelBytes += n;
        modelSeconds += k * ref.modelSeconds;
        if (!deflate)
            continue;
        cyc[compress] += k * static_cast<double>(ref.cycles);
        kib[compress] += n / 1024.0;
        if (compress) {
            lookups += k * static_cast<double>(ref.lookups);
            matches += k * static_cast<double>(ref.matches);
            stalls += k * static_cast<double>(ref.bankStallCycles);
            matchCycles += k * static_cast<double>(ref.matchCycles);
        }
    }
    e2e["model_gbps"] = ratioOf(modelBytes, modelSeconds) / 1e9;
    e2e["ratio"] = ratioOf(compIn, compOut);
    layer["nx.compress.cycles_per_kb"] = ratioOf(cyc[1], kib[1]);
    layer["nx.decompress.cycles_per_kb"] = ratioOf(cyc[0], kib[0]);
    layer["nx.match.match_frac"] = ratioOf(matches, lookups);
    layer["nx.match.bank_stall_frac"] = ratioOf(stalls, matchCycles);
    layer["deflate.lz77.chain_steps_per_kb"] =
        ratioOf(chainSteps, chainKib);
}

/** Host-clock end-to-end metrics of one phase. */
void
hostMetrics(const Plan &plan, Phase &ph, double seconds, Metrics &m,
            std::map<std::string, uint64_t> &samples)
{
    // Per latency window: all requests, compress, decompress. Requests
    // that complete after the phase join its last window.
    const auto nwin = static_cast<size_t>(std::max<int64_t>(
        1, static_cast<int64_t>(seconds * 1e9) / kLatencyWindowNs));
    std::vector<std::array<std::vector<double>, 3>> byWindow(nwin);
    uint64_t completed = 0, bytes = 0, within = 0, attempted = 0;
    for (const ClientLog &log : ph.logs) {
        for (const Latency &l : log.latencies) {
            auto w = std::min(nwin - 1, static_cast<size_t>(
                                            l.endNs / kLatencyWindowNs));
            byWindow[w][0].push_back(l.seconds);
            byWindow[w][l.compress ? 1 : 2].push_back(l.seconds);
        }
        completed += log.completed;
        bytes += log.bytes;
        within += log.withinSlo;
        attempted += log.attempted;
    }
    double rps = 0, mbps = 0;
    if (plan.openLoop()) {
        // The schedule sets the pace: completions over the whole phase.
        double wall = std::max(seconds,
                               static_cast<double>(ph.wallNs) / 1e9);
        rps = static_cast<double>(completed) / wall;
        mbps = static_cast<double>(bytes) / wall / 1e6;
    } else {
        // Closed loop: the median over whole windows of the summed
        // client rates, each over the client's time inside Session
        // calls (the checks between calls are not timed).
        std::vector<double> wr, wm;
        for (int64_t w = 0; (w + 1) * kWindowNs <= ph.wallNs; ++w) {
            double r = 0, b = 0;
            for (const ClientLog &log : ph.logs) {
                if (log.windows.size() <= static_cast<size_t>(w))
                    continue;
                const Window &win = log.windows[static_cast<size_t>(w)];
                double busy =
                    static_cast<double>(kWindowNs - win.asideNs) / 1e9;
                r += ratioOf(static_cast<double>(win.completed), busy);
                b += ratioOf(static_cast<double>(win.bytes), busy);
            }
            wr.push_back(r);
            wm.push_back(b / 1e6);
        }
        rps = median(wr);
        mbps = median(wm);
    }
    // The median over windows keeps a host hiccup in one window from
    // setting the whole run's percentiles.
    std::vector<double> p50, p99, c50, d50;
    for (auto &w : byWindow) {
        samples["latency"] += w[0].size();
        samples["comp"] += w[1].size();
        samples["decomp"] += w[2].size();
        p50.push_back(percentile(w[0], 50));
        p99.push_back(percentile(w[0], 99));
        c50.push_back(percentile(w[1], 50));
        d50.push_back(percentile(w[2], 50));
    }
    samples["windows"] = nwin;
    m["host_mbps"] = mbps;
    m["host_rps"] = rps;
    m["lat_p50_ms"] = median(p50) * 1e3;
    m["lat_p99_ms"] = median(p99) * 1e3;
    m["comp_p50_ms"] = median(c50) * 1e3;
    m["decomp_p50_ms"] = median(d50) * 1e3;
    m["slo_frac"] = ratioOf(static_cast<double>(within),
                            static_cast<double>(attempted));
    m["ok_frac"] = ratioOf(static_cast<double>(completed),
                           static_cast<double>(attempted));
}

/** Per-layer metrics of the traced phase. */
void
layerMetrics(const Phase &traced, Rig &rig, Metrics &m,
             std::map<std::string, LayerTotals> &table)
{
    std::vector<SpanLog> logs;
    std::vector<double> overhead;
    for (const ClientLog &log : traced.logs) {
        logs.push_back(log.spans);
        overhead.insert(overhead.end(), log.overheadUs.begin(),
                        log.overheadUs.end());
    }
    table = layerTotals(logs);
    auto mbps = [&](const char *name) {
        const LayerTotals &t = table[name];
        return ratioOf(static_cast<double>(t.bytes) * 1e3,
                       static_cast<double>(t.totalNs));
    };
    auto usPerCall = [&](const char *name) {
        const LayerTotals &t = table[name];
        return ratioOf(static_cast<double>(t.totalNs) / 1e3,
                       static_cast<double>(t.count));
    };
    m["nx.compress.host_mbps"] = mbps("nx.compress");
    m["nx.decompress.host_mbps"] = mbps("nx.decompress");
    m["deflate.compress.us_per_call"] = usPerCall("deflate.compress");
    m["deflate.inflate.us_per_call"] = usPerCall("deflate.inflate");
    m["deflate.inflate.host_mbps"] = mbps("deflate.inflate");
    m["util.crc32.host_mbps"] = mbps("util.crc32");
    m["util.adler32.host_mbps"] = mbps("util.adler32");
    m["e842.compress.host_mbps"] = mbps("e842.compress");
    m["e842.decompress.host_mbps"] = mbps("e842.decompress");
    const LayerTotals &stage = table["core.buffer_pool.stage"];
    m["core.buffer_pool.stage_us_per_mb"] =
        ratioOf(static_cast<double>(stage.totalNs) / 1e3,
                static_cast<double>(stage.bytes) / 1e6);
    m["core.overhead_us_p50"] = percentile(overhead, 50);

    nx::SessionStats ss = rig.sessionTotals();
    m["core.buffer_pool.hit_frac"] =
        ratioOf(static_cast<double>(ss.pool.poolHits),
                static_cast<double>(ss.pool.acquires));
    m["core.session.fallback_frac"] =
        ratioOf(static_cast<double>(ss.fallbacks),
                static_cast<double>(ss.accelRouted));
    core::JobServerStats js = rig.server().stats();
    m["core.job_server.wait_p50_us"] = js.wait.p50 * 1e6;
    m["core.job_server.wait_p99_us"] = js.wait.p99 * 1e6;
    m["core.job_server.reject_frac"] =
        ratioOf(static_cast<double>(js.busyRejects),
                static_cast<double>(js.busyRejects + js.submitted));
    m["core.job_server.queue_hw"] =
        static_cast<double>(js.queueDepthHighWater);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/** The catalogue entries as JSON: value, unit and clock per metric. */
template <size_t N>
std::string
metricsJson(const MetricDef (&defs)[N], const Metrics &m)
{
    std::string out = "{";
    for (const MetricDef &d : defs) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\","
                      "\"clock\":\"%s\"}",
                      out.size() > 1 ? "," : "", d.name, m.at(d.name),
                      d.unit, d.clock);
        out += buf;
    }
    return out + "}";
}

template <size_t N>
void
printTable(const char *title, const MetricDef (&defs)[N], const Metrics &m)
{
    std::printf("\n%s\n", title);
    std::printf("  %-34s %14s  %-10s %s\n", "metric", "value", "unit",
                "clock");
    for (const MetricDef &d : defs)
        std::printf("  %-34s %14.6g  %-10s %s\n", d.name, m.at(d.name),
                    d.unit, d.clock);
}

void
printLayerTable(const std::map<std::string, LayerTotals> &table)
{
    int64_t all = 0;
    for (const auto &kv : table)
        all += kv.second.selfNs;
    std::printf("\nper-layer spans (traced phase)\n");
    std::printf("  %-26s %10s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
    for (const auto &kv : table) {
        const LayerTotals &t = kv.second;
        if (t.count == 0)
            continue;
        std::printf("  %-26s %10" PRIu64 " %12.3f %12.3f %6.1f%%\n",
                    kv.first.c_str(), t.count,
                    static_cast<double>(t.totalNs) / 1e6,
                    static_cast<double>(t.selfNs) / 1e6,
                    100.0 * ratioOf(static_cast<double>(t.selfNs),
                                    static_cast<double>(all)));
    }
}

void
printDiagnostics(const Phase &ph)
{
    for (const ClientLog &log : ph.logs) {
        for (const std::string &d : log.diagnostics)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         d.c_str());
    }
}

/** A captured Session result: @p data as @p backend produced it. */
nx::SessionResult
captured(const Reference &ref, nx::Backend backend,
         std::vector<uint8_t> data)
{
    nx::SessionResult r;
    r.ok = true;
    r.backend = backend;
    r.data = std::move(data);
    if (backend == nx::Backend::Accelerator)
        r.seconds = ref.modelSeconds;
    return r;
}

/**
 * Feed captured outputs through the checks a run makes, account() and
 * then verifyUnmatched(), on a one-client phase log; once per format,
 * operation and backend. The clean outputs (for compress, also the
 * other backend's valid stream, which is unmatched and so is
 * round-tripped) must pass. Each of them with one byte flipped, sent
 * twice so that the deduplicated copy counts too, must count as
 * failed and must fail the run. A flip that leaves a compress output
 * decoding to the original (an unused bit of an 842 stream) makes a
 * valid output, which must pass instead.
 */
int
selfTest()
{
    int failures = 0;
    // A bulk plan gives gzip and zlib items; open-mix adds 842 ones.
    for (Workload w : {Workload::BulkAccel, Workload::OpenMix}) {
        Plan plan = buildPlan(w, 3, 1.0);
        auto refs = computeReferences(plan, nx::NxConfig::power9());
        std::set<std::pair<nx::SessionFormat, core::JobKind>> seen;
        for (const Item &it : plan.items) {
            if (!seen.insert({it.format, it.kind}).second)
                continue;
            const Reference &ref = refs[it.id];
            const bool compress = it.kind == core::JobKind::Compress;
            for (auto backend : {nx::Backend::Software,
                                 nx::Backend::Accelerator}) {
                auto other = backend == nx::Backend::Software
                    ? nx::Backend::Accelerator : nx::Backend::Software;
                std::vector<std::vector<uint8_t>> clean = {it.original};
                if (compress)
                    clean = {ref.output(backend), ref.output(other)};
                Phase ph;
                ph.logs.resize(1);
                ClientLog &log = ph.logs[0];
                uint64_t flipped = 0;
                for (const auto &out : clean) {
                    nx::SessionResult r = captured(ref, backend, out);
                    account(it, ref, r, log);
                    for (size_t pos : {out.size() / 2, out.size() - 1}) {
                        std::vector<uint8_t> bytes = out;
                        bytes[pos] ^= 0x01;
                        const bool corrupt = !compress ||
                            !roundTrips(it.format, bytes, it.original);
                        for (int copy = 0; copy < 2; ++copy) {
                            nx::SessionResult bad =
                                captured(ref, backend, bytes);
                            account(it, ref, bad, log);
                            flipped += corrupt;
                        }
                    }
                }
                verifyUnmatched(plan, ph);
                Totals t = totals(ph);
                bool caught = t.failed == flipped && !passes(t);
                std::printf("self-test %-4s %-10s %-11s outputs=%" PRIu64
                            " flipped=%" PRIu64 " failed=%" PRIu64
                            " run=%s %s\n",
                            nx::toString(it.format),
                            compress ? "compress" : "decompress",
                            nx::toString(backend), t.attempted, flipped,
                            t.failed, passes(t) ? "passes" : "fails",
                            caught ? "caught" : "MISSED");
                failures += !caught;
            }
        }
    }
    std::printf("{\"self_test_failures\": %d}\n", failures);
    return failures == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--plan-only") {
            o.planOnly = true;
        } else if (a == "--self-test") {
            o.selfTest = true;
        } else if (!(v = value())) {
            return false;
        } else if (a == "--workload") {
            auto w = parseWorkload(v);
            if (!w)
                return false;
            o.workload = *w;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v);
        } else if (a == "--trace") {
            o.trace = std::atoi(v) != 0;
        } else if (a == "--out") {
            o.outDir = v;
        } else {
            return false;
        }
    }
    return o.seconds > 0;
}

int
run(const Options &o)
{
    const nx::NxConfig cfg = nx::NxConfig::power9();

    // Set-up: payloads, pre-compressed streams, server start. Repeated
    // so the reported time is a median, not one sample.
    std::vector<double> setupTimes;
    Plan plan;
    std::unique_ptr<Rig> rig;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        rig.reset();
        auto t0 = Clock::now();
        plan = buildPlan(o.workload, o.seed, o.seconds);
        rig = std::make_unique<Rig>(plan, cfg);
        setupTimes.push_back(
            static_cast<double>(nsBetween(t0, Clock::now())) / 1e9);
    }
    const uint64_t planDigest = digest(plan);
    std::printf("perfbench %s seed=%" PRIu64 " plan=%s items=%zu "
                "clients=%d workers=%d windows=%d fifo=%d\n",
                toString(o.workload), o.seed, hex(planDigest).c_str(),
                plan.items.size(), plan.clients, plan.workers,
                plan.windows, plan.fifoDepth);
    if (o.planOnly)
        return 0;

    // Reference outputs, computed and round-tripped outside the timed
    // phases; a Session output equal to its reference needs no decode.
    auto refs = computeReferences(plan, cfg);
    int refFailures = 0;
    for (const Item &it : plan.items) {
        if (it.kind != core::JobKind::Compress)
            continue;
        for (auto b : {nx::Backend::Accelerator, nx::Backend::Software}) {
            if (!roundTrips(it.format, refs[it.id].output(b),
                            it.original)) {
                std::fprintf(stderr, "perfbench: reference %s output of "
                             "item %u does not round-trip\n",
                             nx::toString(b), it.id);
                ++refFailures;
            }
        }
    }

    touchItems(plan, *rig);
    warmUp(plan, refs, *rig);

    std::error_code ec;
    std::filesystem::create_directories(o.outDir, ec);

    const double measured = o.trace ? o.seconds / 2 : o.seconds;
    Phase untraced = runPhase(plan, refs, *rig, measured, false);

    Metrics e2e, layer;
    std::map<std::string, uint64_t> samples;
    e2e["setup_s"] = percentile(setupTimes, 50);
    hostMetrics(plan, untraced, measured, e2e, samples);
    modelledMetrics(plan, refs, e2e, layer);
    e2e["rss_mb"] = peakRssMb();

    Totals tot = totals(untraced);
    std::vector<double> genLate;
    for (const ClientLog &log : untraced.logs)
        genLate.insert(genLate.end(), log.genLate.begin(),
                       log.genLate.end());
    printDiagnostics(untraced);

    std::map<std::string, LayerTotals> table;
    if (o.trace) {
        Rig tracedRig(plan, cfg);
        warmUp(plan, refs, tracedRig);
        Phase traced = runPhase(plan, refs, tracedRig, measured, true);
        replayPhase(plan, cfg, traced, measured / 2);
        printDiagnostics(traced);
        Totals t2 = totals(traced);
        tot.attempted += t2.attempted;
        tot.failed += t2.failed;
        layerMetrics(traced, tracedRig, layer, table);
        Metrics tracedHost;
        std::map<std::string, uint64_t> ignored;
        hostMetrics(plan, traced, measured, tracedHost, ignored);
        layer["bench.gen_late_p99_ms"] = percentile(genLate, 99) * 1e3;
        layer["bench.trace_overhead_frac"] =
            ratioOf(tracedHost["lat_p50_ms"] - e2e["lat_p50_ms"],
                    e2e["lat_p50_ms"]);
        std::vector<SpanLog> logs;
        for (const ClientLog &log : traced.logs)
            logs.push_back(log.spans);
        std::string path = o.outDir + "/" + toString(o.workload) +
            "-seed" + std::to_string(o.seed) + ".trace.json";
        if (!writeChromeTrace(path, logs, kMaxTraceSpans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        else
            std::printf("trace: %s\n", path.c_str());
    }
    tot.failed += static_cast<uint64_t>(refFailures);

    std::printf("samples: latency=%" PRIu64 " comp=%" PRIu64
                " decomp=%" PRIu64 " in %" PRIu64 " latency windows; "
                "threads=%d (clients %d + workers %d)\n",
                samples["latency"], samples["comp"], samples["decomp"],
                samples["windows"], untraced.threads, plan.clients,
                plan.workers);
    printTable("end-to-end (untraced phase)", kEndToEnd, e2e);
    if (o.trace) {
        printTable("per-layer (traced phase; modelled rows from the "
                   "plan)", kPerLayer, layer);
        printLayerTable(table);
    }

    const bool correct = passes(tot);
    std::string detail = std::string("{\"workload\":\"") +
        toString(o.workload) + "\",\"seed\":" + std::to_string(o.seed) +
        ",\"digest\":\"" + hex(planDigest) + "\",\"threads\":" +
        std::to_string(untraced.threads) + ",\"end_to_end\":" +
        metricsJson(kEndToEnd, e2e) +
        (o.trace ? ",\"per_layer\":" + metricsJson(kPerLayer, layer)
                 : std::string()) + "}";
    std::string path = o.outDir + "/" + toString(o.workload) + "-seed" +
        std::to_string(o.seed) + "-trace" + std::to_string(o.trace) +
        ".json";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n", detail.c_str());
        std::fclose(f);
    }

    std::printf("{\"correct\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"metrics\":%s}\n",
                correct ? "true" : "false", tot.attempted, tot.failed,
                o.trace ? metricsJson(kPerLayer, layer).c_str()
                        : metricsJson(kEndToEnd, e2e).c_str());
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options o;
    if (!perfbench::parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload bulk-accel|small-sw|"
                     "open-mix --seed N --seconds S --trace 0|1 "
                     "[--out DIR] "
                     "[--plan-only] | --self-test\n");
        return 2;
    }
    if (o.selfTest)
        return perfbench::selfTest();
    try {
        return perfbench::run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
