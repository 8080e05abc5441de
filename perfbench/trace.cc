#include "perfbench/trace.h"

#include <cstdio>
#include <memory>
#include <unordered_map>

namespace perfbench {

std::map<std::string, LayerTotals>
layerTotals(const std::vector<SpanLog> &logs)
{
    std::unordered_map<uint64_t, int64_t> childNs;
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans) {
            if (s.covers)
                childNs[s.request] += s.durationNs();
        }
    }
    std::map<std::string, LayerTotals> out;
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans) {
            LayerTotals &t = out[s.name];
            ++t.count;
            t.totalNs += s.durationNs();
            t.selfNs += s.parent ? s.durationNs() - childNs[s.request]
                                 : s.durationNs();
            t.bytes += s.bytes;
        }
    }
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<SpanLog> &logs,
                 size_t max_spans)
{
    std::unique_ptr<FILE, int (*)(FILE *)> f(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f.get());
    size_t written = 0;
    // Session calls on one row per client, replayed legs on another.
    for (const SpanLog &log : logs) {
        for (int replay = 0; replay < 2; ++replay) {
            std::fprintf(f.get(),
                         "%s{\"name\":\"thread_name\",\"ph\":\"M\","
                         "\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
                         "\"%s %d\"}}",
                         written ? ",\n" : "", log.thread + 100 * replay,
                         replay ? "replay" : "client", log.thread);
            ++written;
        }
    }
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans) {
            if (written >= max_spans)
                break;
            std::fprintf(f.get(),
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"request\":%llu,\"bytes\":%llu}}",
                         written ? ",\n" : "", s.name,
                         s.parent ? "session" : "layer",
                         s.parent ? log.thread : log.thread + 100,
                         static_cast<double>(s.startNs) / 1e3,
                         static_cast<double>(s.durationNs()) / 1e3,
                         static_cast<unsigned long long>(s.request),
                         static_cast<unsigned long long>(s.bytes));
            ++written;
        }
    }
    std::fputs("\n]}\n", f.get());
    return std::ferror(f.get()) == 0;
}

} // namespace perfbench
