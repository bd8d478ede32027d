#pragma once

// Traced-run plumbing: an obs::Session with tracing on, drained at quiescent
// points into a per-span-name table (count, total, self time), plus the
// benchmark's own client-side spans laid out on synthetic tracks.

#include "common.hpp"

#include "obs/session.hpp"
#include "obs/trace.hpp"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct SpanTotal {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0; ///< total minus the time covered by direct children
};

using SpanTable = std::map<std::string, SpanTotal>;

/// One asynchronous client operation of an open or multi-client loop, in
/// steady-clock time: due -> parse -> submit -> response observed -> render.
struct ClientOp {
    Clock::time_point due, parse_start, parse_end, observed, render_end;
};

/// Owns the traced session.  collect() must run while the program is
/// quiescent (no request in flight, no solve running): it snapshots every
/// ring, folds it into the table and resets the tracer, so ring capacity
/// only has to hold one segment.
class TraceCollector {
public:
    explicit TraceCollector(std::size_t capacity_per_thread);
    ~TraceCollector();
    TraceCollector(const TraceCollector&) = delete;
    TraceCollector& operator=(const TraceCollector&) = delete;

    /// Folds the program's spans plus `client_ops` (rendered as bench.op ->
    /// wire.parse / service.call / wire.render on one synthetic track per
    /// concurrent client) into the table.
    void collect(const std::vector<ClientOp>& client_ops = {});

    /// True when some ring was more than half full at the last collect: the
    /// caller should shorten its segments.
    bool nearly_full() const { return nearly_full_; }
    std::uint64_t dropped() const { return dropped_; }
    /// CPU the collections themselves spent (excluded from the traced
    /// run's cpu_ms_per_op).
    double collect_cpu_s() const { return collect_cpu_s_; }
    const SpanTable& table() const { return table_; }

    /// Writes the first collected segment as a Chrome trace.
    bool export_first(const std::string& path) const;

private:
    std::unique_ptr<lph::obs::Session> session_;
    std::size_t capacity_;
    SpanTable table_;
    std::uint64_t dropped_ = 0;
    bool nearly_full_ = false;
    double collect_cpu_s_ = 0;
    std::int64_t clock_offset_us_ = 0; ///< tracer time minus steady-clock time
    std::vector<lph::obs::Tracer::ThreadTrack> first_segment_;
    bool have_first_ = false;
};

/// Sum of `total_ms` / `count` over span names (0 when absent).
double span_ms(const SpanTable& table, const std::string& name);
std::uint64_t span_count(const SpanTable& table, const std::string& name);

/// Span-derived per-layer metrics (hierarchy, dtm) shared by every workload,
/// from the program's existing game.solve / game.compile / dtm.run_local
/// spans.
void span_layer_metrics(const SpanTable& table, Report& report);

/// Appends the per-layer table (count, total ms, self ms) to `notes`.
void render_span_table(const SpanTable& table, std::vector<std::string>& notes);

/// The two halves of a traced run: the same phase untraced (the overhead
/// baseline) and traced, plus the traced half's span table.
template <class Phase>
struct TracedHalves {
    Phase plain, traced;
    SpanTable table;
};

/// Runs `run(prepare(), nullptr)`, then `run(prepare(), &collector)` under a
/// fresh collector whose rings hold `ring_capacity` events per thread.
/// `prepare` builds what a phase needs (a warmed core, say) before tracing
/// starts.  Records trace.dropped_spans and the span-derived per-layer
/// metrics, appends the span table to the notes and exports the first traced
/// segment to options.trace_out.
template <class Prepare, class Run>
auto traced_halves(const Options& options, std::size_t ring_capacity, Report& report,
                   Prepare prepare, Run run) {
    using Phase = decltype(run(prepare(), nullptr));
    TracedHalves<Phase> out;
    out.plain = run(prepare(), nullptr);
    {
        auto ready = prepare();
        TraceCollector collector(ring_capacity);
        out.traced = run(std::move(ready), &collector);
        out.table = collector.table();
        report.set("trace.dropped_spans", static_cast<double>(collector.dropped()));
        if (!options.trace_out.empty() && !collector.export_first(options.trace_out)) {
            report.fail("cannot write trace to " + options.trace_out);
        }
    }
    span_layer_metrics(out.table, report);
    render_span_table(out.table, report.notes);
    return out;
}

} // namespace perfbench
