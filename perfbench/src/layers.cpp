#include "layers.hpp"

#include "obs/chrome_trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

using lph::obs::SpanRecord;
using lph::obs::Tracer;

namespace {

/// Folds one track into the table.  Spans on one track nest by interval
/// containment; a child's time is clamped to its parent's end, as the
/// Chrome exporter does.
void fold_track(const std::vector<SpanRecord>& input, SpanTable& table) {
    std::vector<SpanRecord> spans;
    spans.reserve(input.size());
    for (const SpanRecord& span : input) {
        if (span.dur_us != lph::obs::kInstantDur && span.name != nullptr) {
            spans.push_back(span);
        }
    }
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                         if (a.start_us != b.start_us) {
                             return a.start_us < b.start_us;
                         }
                         return a.dur_us > b.dur_us;
                     });
    struct Open {
        const SpanRecord* span;
        std::uint64_t end;
        std::uint64_t children_us;
    };
    std::vector<Open> stack;
    const auto close = [&] {
        const Open& top = stack.back();
        SpanTotal& total = table[top.span->name];
        const double dur_us = static_cast<double>(top.span->dur_us);
        total.count += 1;
        total.total_ms += dur_us / 1000.0;
        total.self_ms +=
            std::max(0.0, dur_us - static_cast<double>(top.children_us)) / 1000.0;
        stack.pop_back();
    };
    for (const SpanRecord& span : spans) {
        while (!stack.empty() && stack.back().end <= span.start_us) {
            close();
        }
        std::uint64_t end = span.start_us + span.dur_us;
        if (!stack.empty()) {
            end = std::min(end, stack.back().end);
            stack.back().children_us += end - span.start_us;
        }
        stack.push_back({&span, end, 0});
    }
    while (!stack.empty()) {
        close();
    }
}

/// Lays client ops out on the fewest synthetic tracks with no overlap on a
/// track, each op as bench.op with its three children.
std::vector<Tracer::ThreadTrack> client_tracks(const std::vector<ClientOp>& ops,
                                               std::int64_t offset_us) {
    const auto us = [offset_us](Clock::time_point t) {
        const auto since = std::chrono::duration_cast<std::chrono::microseconds>(
                               t.time_since_epoch())
                               .count();
        return static_cast<std::uint64_t>(std::max<std::int64_t>(0, since + offset_us));
    };
    std::vector<Tracer::ThreadTrack> tracks;
    std::vector<std::uint64_t> busy_until;
    std::vector<std::size_t> order(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ops[a].due < ops[b].due; });
    for (const std::size_t i : order) {
        const ClientOp& op = ops[i];
        const std::uint64_t start = us(op.due);
        const std::uint64_t end = std::max(start, us(op.render_end));
        std::size_t slot = 0;
        while (slot < tracks.size() && busy_until[slot] > start) {
            ++slot;
        }
        if (slot == tracks.size()) {
            tracks.emplace_back();
            tracks.back().tid = 1000 + static_cast<unsigned>(slot);
            busy_until.push_back(0);
        }
        busy_until[slot] = end;
        auto& spans = tracks[slot].spans;
        const auto add = [&](const char* name, std::uint64_t a, std::uint64_t b) {
            a = std::clamp(a, start, end);
            b = std::clamp(b, a, end);
            spans.push_back({"bench", name, a, b - a, nullptr, 0});
        };
        add("bench.op", start, end);
        add("wire.parse", us(op.parse_start), us(op.parse_end));
        add("service.call", us(op.parse_end), us(op.observed));
        add("wire.render", us(op.observed), us(op.render_end));
        tracks[slot].emitted += 4;
    }
    return tracks;
}

} // namespace

TraceCollector::TraceCollector(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread) {
    lph::obs::Session::Options options;
    options.tracing = true;
    options.trace_capacity_per_thread = capacity_per_thread;
    session_ = std::make_unique<lph::obs::Session>(options);
    const auto steady_us = std::chrono::duration_cast<std::chrono::microseconds>(
                               Clock::now().time_since_epoch())
                               .count();
    clock_offset_us_ =
        static_cast<std::int64_t>(Tracer::instance().now_us()) - steady_us;
}

TraceCollector::~TraceCollector() = default;

void TraceCollector::collect(const std::vector<ClientOp>& client_ops) {
    const double cpu0 = thread_cpu_s();
    Tracer& tracer = Tracer::instance();
    std::vector<Tracer::ThreadTrack> tracks = tracer.snapshot();
    tracer.reset();
    nearly_full_ = false;
    for (const Tracer::ThreadTrack& track : tracks) {
        dropped_ += track.dropped;
        if (track.emitted > capacity_ / 2) {
            nearly_full_ = true;
        }
    }
    std::vector<Tracer::ThreadTrack> clients =
        client_tracks(client_ops, clock_offset_us_);
    tracks.insert(tracks.end(), clients.begin(), clients.end());
    for (const Tracer::ThreadTrack& track : tracks) {
        fold_track(track.spans, table_);
    }
    if (!have_first_) {
        first_segment_ = std::move(tracks);
        have_first_ = true;
    }
    collect_cpu_s_ += thread_cpu_s() - cpu0;
}

bool TraceCollector::export_first(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << lph::obs::chrome_trace_json(first_segment_, getpid(),
                                       Tracer::instance().epoch_realtime_us(),
                                       "lph_perfbench");
    return static_cast<bool>(out);
}

double span_ms(const SpanTable& table, const std::string& name) {
    const auto it = table.find(name);
    return it != table.end() ? it->second.total_ms : 0.0;
}

std::uint64_t span_count(const SpanTable& table, const std::string& name) {
    const auto it = table.find(name);
    return it != table.end() ? it->second.count : 0;
}

void span_layer_metrics(const SpanTable& table, Report& report) {
    const double solve_ms = span_ms(table, "game.solve");
    const double compile_ms = span_ms(table, "game.compile");
    report.set("game.solve_count", static_cast<double>(span_count(table, "game.solve")));
    report.set("game.solve_ms", solve_ms);
    report.set("game.compile_count",
               static_cast<double>(span_count(table, "game.compile")));
    report.set("game.compile_ms", compile_ms);
    report.set("game.compile_share", solve_ms + compile_ms > 0
                                         ? compile_ms / (solve_ms + compile_ms)
                                         : 0.0);
    report.set("dtm.run_local_count",
               static_cast<double>(span_count(table, "dtm.run_local")));
    report.set("dtm.run_local_ms", span_ms(table, "dtm.run_local"));
}

void render_span_table(const SpanTable& table, std::vector<std::string>& notes) {
    notes.push_back("per-layer spans (count, total ms, self ms):");
    for (const auto& [name, total] : table) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-22s %10llu %12.3f %12.3f", name.c_str(),
                      static_cast<unsigned long long>(total.count), total.total_ms,
                      total.self_ms);
        notes.push_back(line);
    }
}

} // namespace perfbench
