#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double windowed_percentile(const std::vector<Timed>& samples, double window_s, double q,
                           std::size_t min_count) {
    std::map<long, std::vector<double>> windows;
    std::vector<double> all;
    for (const Timed& t : samples) {
        windows[static_cast<long>(std::floor(t.at_s / window_s))].push_back(t.value);
        all.push_back(t.value);
    }
    std::vector<double> per_window;
    for (auto& [index, values] : windows) {
        if (values.size() >= min_count) {
            per_window.push_back(percentile(std::move(values), q));
        }
    }
    return per_window.empty() ? percentile(std::move(all), q) : median(std::move(per_window));
}

namespace {

double timeval_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double cpu_ms_per_op(double cpu_s, std::size_t ops) {
    return ops == 0 ? 0.0 : 1000.0 * cpu_s / static_cast<double>(ops);
}

void Report::fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},
        {"latency_p50_ms", "ms"},
        {"throughput_ops", "1/s"},
        {"slo_ratio", "ratio"},
        {"cpu_ms_per_op", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        // bench generator (validity)
        {"gen.lag_p99_ms", "ms"},
        {"fail_ratio", "ratio"},
        // service/wire
        {"wire.parse_us_p50", "us"},
        {"wire.render_us_p50", "us"},
        {"wire.bytes_in_per_op", "bytes"},
        {"wire.bytes_out_per_op", "bytes"},
        // service/core, from the response timing envelope
        {"service.queue_us_p50", "us"},
        {"service.queue_us_p99", "us"},
        {"service.batch_us_p99", "us"},
        {"service.exec_us_p50", "us"},
        {"service.exec_us_p99", "us"},
        {"service.write_us_p99", "us"},
        {"service.avg_batch", "count"},
        {"service.unattributed_share", "ratio"},
        // exec time by request type
        {"service.exec_ms.game", "ms"},
        {"service.exec_ms.logic", "ms"},
        {"service.exec_ms.eval", "ms"},
        {"service.exec_ms.decide", "ms"},
        {"service.exec_ms.patch", "ms"},
        // service/memo
        {"memo.hit_ratio", "ratio"},
        {"memo.invalidated", "count"},
        // service/graph_store
        {"patch_p50_ms", "ms"},
        {"patch_p99_ms", "ms"},
        {"patch.incremental_ratio", "ratio"},
        {"patch.dirty_fraction", "ratio"},
        // hierarchy
        {"game.solve_count", "count"},
        {"game.solve_ms", "ms"},
        {"game.compile_count", "count"},
        {"game.compile_ms", "ms"},
        {"game.compile_share", "ratio"},
        {"game.tables_ms", "ms"},
        {"game.machine_runs", "count"},
        {"game.leaves", "count"},
        {"game.speculative_ratio", "ratio"},
        // dtm
        {"dtm.run_local_count", "count"},
        {"dtm.run_local_ms", "ms"},
        {"view_cache.hit_ratio", "ratio"},
        {"view_cache.evictions", "count"},
        // core/thread_pool
        {"pool.utilization", "ratio"},
        {"pool.chunks", "count"},
        // obs
        {"trace.overhead_ratio", "ratio"},
        {"trace.dropped_spans", "count"},
    };
    return names;
}

namespace {

/// All digits a double carries, in JSON number syntax.
std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

} // namespace

int emit(const Options& options, Report report) {
    if (report.failed > 0) {
        report.fail(std::to_string(report.failed) + " of " +
                    std::to_string(report.attempted) +
                    " operations failed (error, rejection or fault)");
    }
    const double fail_ratio =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 0.0;
    if (options.trace) {
        report.set("fail_ratio", fail_ratio);
    }
    const auto& catalogue =
        options.trace ? per_layer_catalogue() : end_to_end_catalogue();
    std::cout << "workload " << options.workload << "  seed " << options.seed
              << "  seconds " << options.seconds << "  trace "
              << (options.trace ? 1 : 0) << "\n"
              << "fingerprint " << fingerprint(options) << "\n";
    for (const std::string& note : report.notes) {
        std::cout << note << "\n";
    }
    std::cout << (options.trace ? "per-layer metrics" : "end-to-end metrics")
              << ":\n";
    for (const auto& [name, unit] : catalogue) {
        const auto it = report.values.find(name);
        const double value = it != report.values.end() ? it->second : 0.0;
        char line[160];
        std::snprintf(line, sizeof(line), "  %-28s %14.6g %s\n", name.c_str(),
                      value, unit.c_str());
        std::cout << line;
    }
    // Printed, but not in the JSON metrics: latency tails and client-side
    // latencies (README.md, "Steadiness"), and fail_ratio, which is 0 on a
    // healthy run (the JSON carries it as failed / attempted).
    if (!options.trace) {
        for (const auto& [name, value] : report.values) {
            const bool listed =
                std::any_of(catalogue.begin(), catalogue.end(),
                            [&](const auto& entry) { return entry.first == name; });
            if (!listed) {
                char line[160];
                std::snprintf(line, sizeof(line),
                              "  %-28s %14.6g ms (reported, not bounded)\n", name.c_str(),
                              value);
                std::cout << line;
            }
        }
    }
    std::cout << "  fail_ratio " << fail_ratio << " ratio (" << report.failed
              << " of " << report.attempted << " attempted)\n";
    for (const std::string& failure : report.failures) {
        std::cout << "CHECK FAILED: " << failure << "\n";
    }
    std::cout << "correctness: " << (report.correct ? "pass" : "FAIL") << "\n";

    std::ostringstream json;
    json << "{\"correct\":" << (report.correct ? "true" : "false")
         << ",\"attempted\":" << report.attempted
         << ",\"failed\":" << report.failed << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, unit] : catalogue) {
        const auto it = report.values.find(name);
        const double value = it != report.values.end() ? it->second : 0.0;
        json << (first ? "" : ",") << json_string(name) << ":{\"value\":"
             << json_number(value) << ",\"unit\":" << json_string(unit) << "}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return report.correct ? 0 : 1;
}

std::string fingerprint(const Options& options) {
    std::ostringstream out;
    out << "nproc=" << std::thread::hardware_concurrency() << " compiler=\""
#if defined(__clang__)
        << "clang " << __clang_version__
#elif defined(__GNUC__)
        << "gcc " << __VERSION__
#else
        << "unknown"
#endif
        << "\" build_type=" << PERFBENCH_BUILD_TYPE
        << " revision=" << options.revision;
    return out.str();
}

} // namespace perfbench
