/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * Each client thread owns one SpanLog, so recording takes no lock.
 * The Session call of a request is a parent span. Its children are the
 * layer legs the benchmark replays after the traced phase, tagged with
 * the same request id, so replaying does not load the measured phase.
 * A parent's self time is its duration minus its covering children:
 * the dispatch, session and copy overhead around the layers. Spans are
 * written out as Chrome trace-event JSON (opens offline in Perfetto)
 * when the run ends, and summarised as a per-layer count and self-time
 * table.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";
    uint64_t request = 0;   ///< shared by the spans of one request
    int64_t startNs = 0;    ///< from the start of the traced phase
    int64_t endNs = 0;
    uint64_t bytes = 0;     ///< payload bytes the span worked on
    bool parent = false;    ///< a Session call
    /** A leg that is part of its parent's path (not a probe). */
    bool covers = false;

    int64_t durationNs() const { return endNs - startNs; }
};

/** One client thread's spans, in completion order. */
struct SpanLog
{
    int thread = 0;
    std::vector<Span> spans;
};

/** Totals of every span with one name. */
struct LayerTotals
{
    uint64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;     ///< total minus time covered by children
    uint64_t bytes = 0;
};

/** Per-name totals; a parent's self time excludes covering legs. */
std::map<std::string, LayerTotals> layerTotals(
    const std::vector<SpanLog> &logs);

/**
 * Write @p logs as Chrome trace-event JSON to @p path, at most
 * @p max_spans of them. Returns false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanLog> &logs, size_t max_spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
