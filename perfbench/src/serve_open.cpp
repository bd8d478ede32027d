// serve_open: seeded game/logic/eval/decide wire lines over a Zipf-popular
// pool of graphs arrive at a fixed offered rate (Poisson), each timed from
// when it was due to its rendered response line.  The request mix is
// described, with where each parameter comes from, in workload_gen.cpp.

#include "layers.hpp"
#include "service_client.hpp"
#include "workload_gen.hpp"
#include "workloads.hpp"

#include <sys/prctl.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>

namespace perfbench {

using namespace lph::service;

namespace {

constexpr unsigned kWorkers = 3; // plus this generator thread: 4 in all
/// Offered rate (requests per second): a quarter of the burst capacity the
/// generator thread's parse_request allows on a 4-core machine (README.md).
constexpr double kRate = 1500;
constexpr int kSetupRepeats = 9;
constexpr double kWarmupS = 2.0;
/// Latency percentiles are medians over windows of this many seconds; at the
/// benchmark's rate each window holds thousands of requests.
constexpr double kWindowS = 1.0;

ServiceOptions serving_options() {
    ServiceOptions options;
    options.threads = kWorkers;
    options.queue_capacity = 1 << 16; // the offered load, not the queue, sets the pace
    return options;
}

/// Core construction plus registration of the pool's resident graphs.
std::unique_ptr<ServiceCore> set_up(const ServeWorkload& workload, Report& report) {
    auto core = std::make_unique<ServiceCore>(serving_options());
    const WireLimits limits;
    std::vector<std::future<Response>> registered;
    for (const std::string& line : workload.register_lines) {
        registered.push_back(core->submit(parse_request(line, 1, limits)));
    }
    for (auto& future : registered) {
        const Response response = future.get();
        if (response.status != "ok") {
            report.fail("graph_register failed: " + response.detail);
        }
    }
    return core;
}

struct PhaseResult {
    std::vector<Sample> samples;
    std::vector<double> lag_ms;
    double wall_s = 0;
    double cpu_s = 0; ///< process CPU minus the generator's own overhead
    ServiceStats stats;
    ResultMemoStats memo;
    lph::ViewCacheStats cache;
};

/// Runs the schedule open-loop.  With a collector, the schedule is cut into
/// segments: at each cut the generator stops sending, lets the in-flight
/// requests finish, drains the trace rings, and resumes with the next
/// request due immediately.
PhaseResult run_open_loop(ServiceCore& core, const std::vector<ServeRequest>& requests,
                          TraceCollector* collector) {
    const WireLimits limits;
    PhaseResult result;
    result.samples.reserve(requests.size());
    std::deque<Inflight> inflight;

    double segment_s = 0.5;
    double segment_end = segment_s;
    std::size_t segment_first = 0;
    const auto cut = [&](std::size_t next) {
        while (!inflight.empty()) {
            harvest(inflight, Clock::now() + std::chrono::seconds(1), result.samples);
        }
        std::vector<ClientOp> ops;
        for (std::size_t i = segment_first; i < result.samples.size(); ++i) {
            ops.push_back(result.samples[i].t);
        }
        collector->collect(ops);
        segment_first = result.samples.size();
        if (collector->nearly_full()) {
            segment_s /= 2;
        }
        if (next < requests.size()) {
            segment_end = requests[next].due_s + segment_s;
        }
    };

    // The generator sleeps until each request is due; the default 50 us
    // timer slack would add that much lag to every send.  Only this thread's
    // slack changes: the core's workers already exist.
    const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const ServiceStats stats0 = core.stats();
    const ResultMemoStats memo0 = core.memo_stats();
    const lph::ViewCacheStats cache0 = core.view_cache_stats();
    const double cpu0 = process_cpu_s();
    const double gen_cpu0 = thread_cpu_s();
    const Clock::time_point start = Clock::now();
    Clock::time_point base = start;
    const auto due_of = [&](std::size_t i) {
        return base + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(requests[i].due_s));
    };
    std::size_t next = 0;
    while (next < requests.size() || !inflight.empty()) {
        if (collector != nullptr && next < requests.size() &&
            requests[next].due_s >= segment_end) {
            cut(next);
            base = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(requests[next].due_s));
            continue;
        }
        const Clock::time_point now = Clock::now();
        if (next < requests.size() && now >= due_of(next)) {
            const Clock::time_point due = due_of(next);
            result.lag_ms.push_back(ms_between(due, now));
            inflight.push_back(
                submit_line(core, requests[next].line, limits, due, requests[next].key,
                            false));
            ++next;
            continue;
        }
        harvest(inflight,
                next < requests.size() ? due_of(next) : now + std::chrono::seconds(1),
                result.samples);
    }
    if (collector != nullptr) {
        cut(requests.size());
    }
    const Clock::time_point end = Clock::now();
    const double gen_cpu = thread_cpu_s() - gen_cpu0;
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);
    result.wall_s = ms_between(start, end) / 1000.0;
    result.cpu_s = process_cpu_s() - cpu0 -
                   generator_overhead_cpu_s(gen_cpu, result.samples) -
                   (collector != nullptr ? collector->collect_cpu_s() : 0.0);
    result.stats = since(core.stats(), stats0);
    result.memo = since(core.memo_stats(), memo0);
    result.cache = since(core.view_cache_stats(), cache0);
    return result;
}

/// Re-serves every distinct request on a fresh core with memo, batching and
/// view-cache sharing off and the interpreted backend, and compares each
/// served verdict with it.  Requests that failed are counted in
/// Report::failed, which fails the run on its own.
void check_verdicts(const ServeWorkload& workload, const PhaseResult& phase,
                    Report& report) {
    const WireLimits limits;
    ServiceCore reference(reference_options(limits));
    std::map<std::size_t, std::optional<bool>> golden; // key -> reference verdict
    std::size_t mismatches = 0;
    for (const Sample& s : phase.samples) {
        auto it = golden.find(s.key);
        if (it == golden.end()) {
            it = golden
                     .emplace(s.key, reference_verdict(reference,
                                                       workload.distinct_lines.at(s.key),
                                                       limits))
                     .first;
            if (!it->second.has_value()) {
                report.fail("reference serve of distinct request " +
                            std::to_string(s.key) + " gave no verdict");
            }
        }
        if (s.ok() && (!s.has_verdict || s.verdict != it->second)) {
            ++mismatches;
        }
    }
    if (mismatches > 0) {
        report.fail(std::to_string(mismatches) +
                    " served verdicts differ from the unbatched interpreted reference");
    }
    if (phase.cache.verdict_mismatches != 0) {
        report.fail("view cache verdict_mismatches = " +
                    std::to_string(phase.cache.verdict_mismatches));
    }
    report.notes.push_back("check: " + std::to_string(phase.samples.size()) +
                           " responses against " + std::to_string(golden.size()) +
                           " distinct reference verdicts, " +
                           std::to_string(mismatches) + " mismatched");
}

double cpu_ms_per_op(const PhaseResult& phase) {
    return perfbench::cpu_ms_per_op(phase.cpu_s, phase.samples.size());
}

/// A core ready to measure: constructed, pool registered, warm-up played.
std::unique_ptr<ServiceCore> ready_core(const ServeWorkload& workload, Report& report) {
    std::unique_ptr<ServiceCore> core = set_up(workload, report);
    const PhaseResult warm = run_open_loop(*core, workload.warmup, nullptr);
    for (const Sample& s : warm.samples) {
        if (!s.ok()) {
            report.fail("warm-up request failed: " + s.error);
            break;
        }
    }
    return core;
}

} // namespace

Report run_serve_open(const Options& options) {
    Report report;
    const auto limit = options.slo_ms.find("serve_open");
    const double limit_ms = limit != options.slo_ms.end() ? limit->second : 0;

    if (!options.trace) {
        const ServeWorkload workload =
            make_serve_open(options.seed, kRate, kWarmupS, options.seconds);
        std::vector<double> setup_s;
        for (int i = 0; i < kSetupRepeats; ++i) {
            const Clock::time_point t0 = Clock::now();
            const std::unique_ptr<ServiceCore> core = set_up(workload, report);
            setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        }
        std::unique_ptr<ServiceCore> core = ready_core(workload, report);
        const PhaseResult phase = run_open_loop(*core, workload.requests, nullptr);
        core->stop();

        // The bounded latency is the request's time in the program: wire
        // parse, the server's queue/batch/exec/write stages (the response
        // timing envelope) and rendering.  The client-observed latency, due
        // time to rendered line, adds the generator's own send lag and
        // response pick-up, which on a shared VM follow the host's
        // scheduling more than the program; it is printed beside it.
        std::vector<Timed> service, client;
        std::size_t ok = 0, within = 0;
        const Clock::time_point t0 = phase.samples.empty() ? Clock::now()
                                                           : phase.samples.front().t.due;
        for (const Sample& s : phase.samples) {
            const double at_s = ms_between(t0, s.t.due) / 1000.0;
            service.push_back({at_s, s.service_ms()});
            client.push_back({at_s, s.latency_ms()});
            if (s.ok()) {
                ++ok;
                if (s.service_ms() <= limit_ms) {
                    ++within;
                }
            }
        }
        count_outcomes(phase.samples, report);
        report.set("setup_s", median(setup_s));
        report.set("latency_p50_ms", windowed_percentile(service, kWindowS, 0.5, 1000));
        report.set("latency_p99_ms", windowed_percentile(service, kWindowS, 0.99, 1000));
        report.set("client_latency_p50_ms", windowed_percentile(client, kWindowS, 0.5, 1000));
        report.set("client_latency_p99_ms",
                   windowed_percentile(client, kWindowS, 0.99, 1000));
        report.set("throughput_ops", static_cast<double>(ok) / phase.wall_s);
        report.set("slo_ratio", static_cast<double>(within) /
                                    std::max<double>(1.0, static_cast<double>(service.size())));
        report.set("cpu_ms_per_op", cpu_ms_per_op(phase));
        report.set("peak_rss_mb", peak_rss_mb());
        report.notes.push_back(
            "requests " + std::to_string(service.size()) +
            " (latency percentiles: median over " + std::to_string(kWindowS) +
            " s windows of >= 1000), offered rate " + std::to_string(kRate) +
            "/s, slo limit " + std::to_string(limit_ms) + " ms, memo hit ratio " +
            std::to_string(phase.memo.hit_rate()) + ", gen lag p99 " +
            std::to_string(percentile(phase.lag_ms, 0.99)) + " ms");
        check_verdicts(workload, phase, report);
        return report;
    }

    // Traced run: each half on a fresh warmed core with the same seed's
    // schedule.
    const ServeWorkload workload =
        make_serve_open(options.seed, kRate, kWarmupS, options.seconds / 2);
    const auto halves = traced_halves(
        options, 1 << 18, report, [&] { return ready_core(workload, report); },
        [&](std::unique_ptr<ServiceCore> core, TraceCollector* collector) {
            PhaseResult phase = run_open_loop(*core, workload.requests, collector);
            core->stop();
            return phase;
        });
    count_outcomes(halves.plain.samples, report);
    count_outcomes(halves.traced.samples, report);
    const PhaseResult& traced = halves.traced;
    service_layer_metrics(traced.samples, traced.stats, traced.memo, traced.cache, report);
    report.set("gen.lag_p99_ms", percentile(traced.lag_ms, 0.99));
    const double base_cpu = cpu_ms_per_op(halves.plain);
    report.set("trace.overhead_ratio", base_cpu > 0 ? cpu_ms_per_op(traced) / base_cpu : 0.0);
    check_verdicts(workload, halves.plain, report);
    check_verdicts(workload, traced, report);
    return report;
}

} // namespace perfbench
