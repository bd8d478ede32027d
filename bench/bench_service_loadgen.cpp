// Load generator for the serving layer (src/service): replays an open-loop
// mixed workload of wire requests against an in-process ServiceCore and
// compares batched serving (same-graph micro-batching + cross-request memo +
// per-machine shared view cache) against the one-engine-call-per-request
// baseline (all three off, same worker pool).
//
// The headline BENCH row reports p50/p95/p99 end-to-end latency, throughput,
// rejection rate, and the memo / view-cache hit rates, absorbed from the
// same ServiceStats/ResultMemoStats/ViewCacheStats lists `lphd --metrics=`
// exports — one schema across the daemon and the bench.

#include "core/rng.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "service/core.hpp"
#include "service/retry.hpp"

#include "bench_report.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <vector>

namespace {

using namespace lph;
using namespace lph::service;

/// An unlabelled graph's wire payload: its canonical text, JSON-escaped.
std::string payload(const LabeledGraph& g) {
    return obs::json_escape(graph_to_text(g));
}

/// The small pool the mixed workloads draw from: cycles and paths on 5-7
/// nodes.
std::vector<std::string> graph_pool() {
    std::vector<std::string> graphs;
    for (std::size_t n = 5; n <= 7; ++n) {
        graphs.push_back(payload(cycle_graph(n, "")));
        graphs.push_back(payload(path_graph(n, "")));
    }
    return graphs;
}

/// A shared-graph workload: many requests over a small graph pool, built by
/// parsing real wire lines so the bench exercises the same path as lphd.
std::vector<Request> make_workload(std::size_t count, std::uint64_t seed) {
    const std::vector<std::string> graphs = graph_pool();
    const std::vector<std::string> machines = {"allsel", "eulerian",
                                               "coloring2", "coloring3"};
    const std::vector<std::string> problems = {"eulerian", "coloring",
                                               "hamiltonian"};

    const WireLimits limits;
    std::vector<Request> requests;
    requests.reserve(count);
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < count; ++i) {
        const std::string& graph = graphs[splitmix64_next(state) % graphs.size()];
        std::ostringstream line;
        switch (splitmix64_next(state) % 8) {
        case 0:
        case 1:
            line << "{\"type\":\"decide\",\"id\":" << i << ",\"problem\":\""
                 << problems[splitmix64_next(state) % problems.size()]
                 << "\",\"k\":3,\"graph\":\"" << graph << "\"}";
            break;
        case 2:
            line << "{\"type\":\"logic\",\"id\":" << i
                 << ",\"formula\":\"two_colorable\",\"graph\":\"" << graph
                 << "\"}";
            break;
        default: {
            const std::string& machine =
                machines[splitmix64_next(state) % machines.size()];
            const bool decider = machine == "allsel" || machine == "eulerian";
            line << "{\"type\":\"game\",\"id\":" << i << ",\"machine\":\""
                 << machine << "\",\"layers\":" << (decider ? 0 : 1)
                 << ",\"graph\":\"" << graph << "\"}";
            break;
        }
        }
        requests.push_back(parse_request(line.str(), i + 1, limits));
    }
    return requests;
}

struct LoadResult {
    double wall_ms = 0;
    std::vector<double> latency_ms; ///< submit-to-resolution, per request
    /// Server-side stage breakdown harvested from each response's timing
    /// envelope — the same bucketing lphd exports, so the BENCH row's server
    /// percentiles are comparable with lph_top's cluster view.
    obs::LogHistogram queue_us, batch_us, exec_us, write_us, stage_us;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t rejected = 0;
    ServiceStats stats;
    ResultMemoStats memo;
    ViewCacheStats cache;
    SnapshotStats snapshot;

    double qps() const {
        return wall_ms > 0
                   ? 1000.0 * static_cast<double>(latency_ms.size()) / wall_ms
                   : 0.0;
    }
    double rejection_rate() const {
        const auto total = static_cast<double>(latency_ms.size());
        return total > 0 ? static_cast<double>(rejected) / total : 0.0;
    }
};

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    return values[static_cast<std::size_t>(rank + 0.5)];
}

/// Open-loop replay: submits the whole workload as fast as the queue admits,
/// then harvests completions by polling (latency = submit to resolution).
LoadResult run_load(const std::vector<Request>& workload,
                    const ServiceOptions& options) {
    using clock = std::chrono::steady_clock;
    LoadResult result;
    ServiceCore core(options);

    const auto start = clock::now();
    std::vector<std::future<Response>> futures;
    std::vector<clock::time_point> submitted;
    futures.reserve(workload.size());
    submitted.reserve(workload.size());
    for (const Request& request : workload) {
        submitted.push_back(clock::now());
        futures.push_back(core.submit(request));
    }

    result.latency_ms.assign(workload.size(), 0.0);
    std::vector<bool> done(workload.size(), false);
    std::size_t remaining = workload.size();
    while (remaining > 0) {
        for (std::size_t i = 0; i < futures.size(); ++i) {
            if (done[i] || futures[i].wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
                continue;
            }
            const Response response = futures[i].get();
            result.latency_ms[i] = std::chrono::duration<double, std::milli>(
                                       clock::now() - submitted[i])
                                       .count();
            if (response.timing.present) {
                result.queue_us.record(
                    static_cast<double>(response.timing.queue_us));
                result.batch_us.record(
                    static_cast<double>(response.timing.batch_us));
                result.exec_us.record(
                    static_cast<double>(response.timing.exec_us));
                result.write_us.record(
                    static_cast<double>(response.timing.write_us));
                result.stage_us.record(
                    static_cast<double>(response.timing.stage_sum_us()));
            }
            if (response.status == "ok") {
                ++result.ok;
            } else if (response.status == "rejected") {
                ++result.rejected;
            } else {
                ++result.errors;
            }
            done[i] = true;
            --remaining;
        }
        if (remaining > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
    result.wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count();

    // stop() before collecting so the counters include the shutdown snapshot
    // save (counters are monotone; nothing is reset by stop).
    core.stop();
    result.stats = core.stats();
    result.memo = core.memo_stats();
    result.cache = core.view_cache_stats();
    result.snapshot = core.snapshot_stats();
    return result;
}

ServiceOptions batched_options() {
    ServiceOptions options;
    options.threads = 4;
    options.queue_capacity = 4096;
    return options;
}

ServiceOptions baseline_options() {
    ServiceOptions options = batched_options();
    options.memoize_results = false;
    options.batch_by_graph = false;
    options.share_view_cache = false;
    return options;
}

void record_row(const std::string& instance, const LoadResult& result,
                double baseline_wall_ms, const RetryStats* retry = nullptr,
                const obs::MetricList* extra = nullptr) {
    report::Instance row;
    row.bench = "BM_ServiceLoadgen";
    row.instance = instance;
    row.outcome = "ok";
    row.wall_ms = result.wall_ms;
    obs::MetricsRegistry registry;
    registry.absorb("service.", result.stats.to_metrics());
    registry.absorb("service.", result.memo.to_metrics());
    registry.absorb("service.", result.cache.to_metrics());
    registry.absorb("service.", result.snapshot.to_metrics());
    if (retry != nullptr) {
        registry.absorb("client.", retry->to_metrics());
    }
    registry.set("requests", static_cast<double>(result.latency_ms.size()));
    registry.set("qps", result.qps());
    registry.set("p50_ms", percentile(result.latency_ms, 0.50));
    registry.set("p95_ms", percentile(result.latency_ms, 0.95));
    registry.set("p99_ms", percentile(result.latency_ms, 0.99));
    if (result.stage_us.count() > 0) {
        registry.set("server_p50_us", result.stage_us.percentile(0.50));
        registry.set("server_p99_us", result.stage_us.percentile(0.99));
        registry.set("server_queue_p99_us", result.queue_us.percentile(0.99));
        registry.set("server_batch_p99_us", result.batch_us.percentile(0.99));
        registry.set("server_exec_p99_us", result.exec_us.percentile(0.99));
        registry.set("server_write_p99_us", result.write_us.percentile(0.99));
    }
    registry.set("rejection_rate", result.rejection_rate());
    registry.set("memo_hit_rate", result.memo.hit_rate());
    registry.set("view_cache_hit_rate", result.cache.hit_rate());
    if (baseline_wall_ms > 0 && result.wall_ms > 0) {
        registry.set("speedup_vs_unbatched", baseline_wall_ms / result.wall_ms);
    }
    if (extra != nullptr) {
        registry.absorb("", *extra);
    }
    row.metrics = registry.snapshot();
    report::Recorder::global().record(std::move(row));
}

void BM_ServeBatched(benchmark::State& state) {
    const auto workload =
        make_workload(static_cast<std::size_t>(state.range(0)), 11);
    std::uint64_t served = 0;
    for (auto _ : state) {
        const LoadResult result = run_load(workload, batched_options());
        served = result.ok;
        sink(served);
    }
    state.counters["requests"] = static_cast<double>(workload.size());
    state.counters["ok"] = static_cast<double>(served);
}
BENCHMARK(BM_ServeBatched)->Arg(128)->Arg(384)->Unit(benchmark::kMillisecond);

void BM_ServeUnbatchedBaseline(benchmark::State& state) {
    const auto workload =
        make_workload(static_cast<std::size_t>(state.range(0)), 11);
    std::uint64_t served = 0;
    for (auto _ : state) {
        const LoadResult result = run_load(workload, baseline_options());
        served = result.ok;
        sink(served);
    }
    state.counters["requests"] = static_cast<double>(workload.size());
    state.counters["ok"] = static_cast<double>(served);
}
BENCHMARK(BM_ServeUnbatchedBaseline)
    ->Arg(128)
    ->Arg(384)
    ->Unit(benchmark::kMillisecond);

/// The acceptance comparison: one measured pass per configuration on the
/// same shared-graph workload, recorded as BENCH rows (batched row carries
/// speedup_vs_unbatched).
void BM_ServingComparison(benchmark::State& state) {
    const auto workload = make_workload(384, 11);
    for (auto _ : state) {
        const LoadResult baseline = run_load(workload, baseline_options());
        const LoadResult batched = run_load(workload, batched_options());
        record_row("unbatched_384", baseline, 0);
        record_row("batched_384", batched, baseline.wall_ms);
        report::note("BM_ServiceLoadgen", "batched_beats_unbatched",
                     batched.wall_ms < baseline.wall_ms,
                     "batched " + std::to_string(batched.wall_ms) +
                         " ms vs unbatched " +
                         std::to_string(baseline.wall_ms) + " ms");
        state.counters["speedup"] =
            batched.wall_ms > 0 ? baseline.wall_ms / batched.wall_ms : 0.0;
        sink(batched.ok + baseline.ok);
    }
}
BENCHMARK(BM_ServingComparison)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// Warm-start comparison (DESIGN.md "Resilience"): the same workload served
/// cold (empty caches, snapshot written on stop) and then warm (caches
/// restored from that snapshot at construction).  The warm row's memo hit
/// rate must be at least the cold row's — the point of snapshotting is that
/// a restarted worker does not pay the cold-cache tax again.
void BM_SnapshotWarmStart(benchmark::State& state) {
    const auto workload = make_workload(384, 11);
    const std::string snap =
        (std::filesystem::temp_directory_path() / "lph_loadgen_warm.snap")
            .string();
    for (auto _ : state) {
        std::filesystem::remove(snap);
        ServiceOptions options = batched_options();
        options.snapshot_path = snap;
        const LoadResult cold = run_load(workload, options);
        const LoadResult warm = run_load(workload, options);
        record_row("cold_start_384", cold, 0);
        record_row("warm_start_384", warm, cold.wall_ms);
        report::note("BM_ServiceLoadgen", "warm_memo_hit_rate_ge_cold",
                     warm.memo.hit_rate() >= cold.memo.hit_rate(),
                     "warm " + std::to_string(warm.memo.hit_rate()) +
                         " vs cold " + std::to_string(cold.memo.hit_rate()));
        state.counters["warm_memo_hit_rate"] = warm.memo.hit_rate();
        state.counters["cold_memo_hit_rate"] = cold.memo.hit_rate();
        sink(cold.ok + warm.ok);
    }
    std::filesystem::remove(snap);
}
BENCHMARK(BM_SnapshotWarmStart)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Retry-overhead row: the base workload plus 25% idempotent replays (what a
/// retrying client redelivers after timeouts).  Replays share memo keys with
/// their originals, so the marginal cost of redelivery should be far below
/// linear — the property that makes client-side retry safe to default on.
void BM_RetryReplayOverhead(benchmark::State& state) {
    const auto workload = make_workload(384, 11);
    std::vector<Request> with_replays = workload;
    std::uint64_t replay_state = 77;
    for (int k = 0; k < 96; ++k) {
        with_replays.push_back(
            workload[splitmix64_next(replay_state) % workload.size()]);
    }
    for (auto _ : state) {
        const LoadResult base = run_load(workload, batched_options());
        const LoadResult replayed = run_load(with_replays, batched_options());
        // The client-side retry ledger this scenario models: 96 of the 480
        // deliveries are redelivered duplicates, none are abandoned.
        RetryStats retry;
        retry.sent = workload.size();
        retry.retries = with_replays.size() - workload.size();
        retry.redelivered = with_replays.size() - workload.size();
        retry.abandoned =
            replayed.rejected + replayed.errors; // 0 on a healthy run
        record_row("retry_replay_480", replayed, base.wall_ms, &retry);
        report::note("BM_ServiceLoadgen", "replay_absorbed_by_memo",
                     replayed.stats.memo_served > base.stats.memo_served,
                     "memo served " +
                         std::to_string(replayed.stats.memo_served) +
                         " with replays vs " +
                         std::to_string(base.stats.memo_served) + " without");
        state.counters["replay_wall_ratio"] =
            base.wall_ms > 0 ? replayed.wall_ms / base.wall_ms : 0.0;
        sink(base.ok + replayed.ok);
    }
}
BENCHMARK(BM_RetryReplayOverhead)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// Patch storm (DESIGN.md "Incremental serving"): a 192-node cycle registered
/// once, then a chain of single-chord-toggle graph_patch requests each
/// carrying an eulerian decider query.  Every patch dirties only the
/// radius-(r+p) balls around the toggled chord (a few percent of the graph),
/// so the incremental path — retained per-node verdicts plus induced-ball
/// reruns — must beat the same chain served as full recomputes by >= 5x
/// while producing bit-identical verdicts.  The row's service.patch.* gauges
/// (applied/incremental/full/dirty_fraction) come from the same
/// ServiceStats::to_metrics schema lphd exports.
void BM_PatchStorm(benchmark::State& state) {
    constexpr int kNodes = 384;
    constexpr int kPatches = 120;
    WireLimits limits;
    limits.max_graph_nodes = 512; // the default 256 is sized for lphd lines

    Request reg = parse_request("{\"type\":\"graph_register\",\"graph\":\"" +
                                    payload(cycle_graph(kNodes, "")) + "\"}",
                                1, limits);

    // Pre-build the whole chain: every digest the patches reference is
    // mirrored locally (fnv1a64 over graph_to_text, the wire's own scheme),
    // and each step's full-recompute twin carries the post-patch graph
    // inline.
    LabeledGraph mirror = reg.graph;
    std::uint64_t digest = fnv1a64(reg.canonical_graph);
    std::vector<Request> patches;
    std::vector<Request> full_twins;
    patches.reserve(kPatches);
    full_twins.reserve(kPatches);
    for (int k = 0; k < kPatches; ++k) {
        const auto u = static_cast<NodeId>((k * 7) % kNodes);
        const auto v = static_cast<NodeId>((u + 2) % kNodes);
        const bool present = mirror.has_edge(u, v);
        std::ostringstream line;
        line << "{\"type\":\"graph_patch\",\"id\":" << k << ",\"digest\":\""
             << digest << "\",\"ops\":[{\"op\":\""
             << (present ? "remove_edge" : "add_edge") << "\",\"u\":"
             << std::min(u, v) << ",\"v\":" << std::max(u, v)
             << "}],\"machine\":\"eulerian\",\"layers\":0,\"sigma\":true,"
             << "\"ids\":\"global\"}";
        patches.push_back(parse_request(line.str(), k + 2, limits));
        if (present) {
            mirror.remove_edge(u, v);
        } else {
            mirror.add_edge(u, v);
        }
        const std::string canonical = graph_to_text(mirror);
        digest = fnv1a64(canonical);
        std::ostringstream twin;
        twin << "{\"type\":\"game\",\"id\":" << k
             << ",\"machine\":\"eulerian\",\"layers\":0,\"sigma\":true,"
             << "\"ids\":\"global\",\"graph\":\""
             << obs::json_escape(canonical) << "\"}";
        full_twins.push_back(parse_request(twin.str(), k + 2, limits));
    }

    ServiceOptions incremental_options;
    incremental_options.manual_drain = true; // call() pumps inline: FIFO chain
    incremental_options.wire = limits;
    ServiceOptions full_options = incremental_options;
    full_options.memoize_results = false;
    full_options.share_view_cache = false;

    using clock = std::chrono::steady_clock;
    double wall_inc = 0;
    double wall_full = 0;
    int mismatches = 0;
    ServiceStats stats;
    for (auto _ : state) {
        ServiceCore core(incremental_options);
        ServiceCore baseline(full_options);
        if (core.call(reg).status != "ok") {
            state.SkipWithError("graph_register failed");
            return;
        }
        LoadResult inc;
        inc.latency_ms.reserve(patches.size());
        const auto t0 = clock::now();
        std::vector<Response> served;
        served.reserve(patches.size());
        for (const Request& patch : patches) {
            const auto s = clock::now();
            served.push_back(core.call(patch));
            inc.latency_ms.push_back(
                std::chrono::duration<double, std::milli>(clock::now() - s)
                    .count());
        }
        wall_inc =
            std::chrono::duration<double, std::milli>(clock::now() - t0)
                .count();

        const auto t1 = clock::now();
        std::vector<Response> golden;
        golden.reserve(full_twins.size());
        for (const Request& twin : full_twins) {
            golden.push_back(baseline.serve_unbatched(twin));
        }
        wall_full =
            std::chrono::duration<double, std::milli>(clock::now() - t1)
                .count();

        mismatches = 0;
        for (std::size_t i = 0; i < served.size(); ++i) {
            const auto a = parse_verdict(served[i].to_json());
            const auto b = parse_verdict(golden[i].to_json());
            const bool agree = a.has_value() && b.has_value() &&
                               a->status == "ok" && b->status == "ok" &&
                               a->has_verdict && b->has_verdict &&
                               a->verdict == b->verdict;
            if (!agree) {
                ++mismatches;
            }
            if (served[i].status == "ok") {
                ++inc.ok;
            } else {
                ++inc.errors;
            }
        }

        core.stop();
        inc.wall_ms = wall_inc;
        inc.stats = core.stats();
        inc.memo = core.memo_stats();
        inc.cache = core.view_cache_stats();
        inc.snapshot = core.snapshot_stats();
        stats = inc.stats;
        record_row("patch_storm_384", inc, wall_full);
        report::note("BM_ServiceLoadgen", "patch_incremental_speedup_ge_5x",
                     wall_inc > 0 && wall_full / wall_inc >= 5.0,
                     "incremental " + std::to_string(wall_inc) +
                         " ms vs full recompute " + std::to_string(wall_full) +
                         " ms");
        report::note("BM_ServiceLoadgen", "patch_dirty_fraction_le_10pct",
                     inc.stats.patch_dirty_fraction() <= 0.10,
                     "dirty fraction " +
                         std::to_string(inc.stats.patch_dirty_fraction()));
        report::note("BM_ServiceLoadgen", "patch_verdicts_match_full",
                     mismatches == 0,
                     std::to_string(mismatches) + " of " +
                         std::to_string(served.size()) +
                         " verdicts diverged from full recompute");
        sink(inc.ok);
    }
    state.counters["speedup"] =
        wall_inc > 0 ? wall_full / wall_inc : 0.0;
    state.counters["dirty_fraction"] = stats.patch_dirty_fraction();
    state.counters["verdict_mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_PatchStorm)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Mixed interactive + big-job storm (DESIGN.md "Language frontend &
/// admission control"): a stream of cheap requests (layers-0 games, eulerian
/// decides, FO evals) with a user-written 7-quantifier eval formula injected
/// every 48th slot.  Each big job enumerates ~7^7 assignments (~hundreds of
/// ms); cost-model admission routes them to a dedicated big-job worker, so
/// the acceptance criterion is that the *interactive* p99 with admission on
/// is at most half the admission-off p99 on the same 3-worker budget.
struct MixedWorkload {
    std::vector<Request> requests;
    std::vector<bool> interactive; ///< per-index: not one of the big jobs
};

MixedWorkload make_admission_mixed(std::size_t count, std::uint64_t seed) {
    const std::vector<std::string> graphs = graph_pool();
    // Distinct bodies so the big jobs never share a memo slot; each is a
    // full-enumeration forall chain (no short-circuit) over a 7-node graph.
    const std::vector<std::string> big_bodies = {
        "(a = a | O1(b))", "(b = b | O1(a))", "(c = c | O1(a))",
        "(d = d | O1(a))", "(e = e | O1(a))", "(f = f | O1(a))"};
    const std::string big_graph = payload(cycle_graph(7, ""));

    const WireLimits limits;
    MixedWorkload workload;
    std::uint64_t state = seed;
    std::size_t big = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::string& graph = graphs[splitmix64_next(state) % graphs.size()];
        std::ostringstream line;
        bool is_big = false;
        if (i % 48 == 47) {
            is_big = true;
            line << "{\"type\":\"eval\",\"id\":" << i
                 << ",\"formula\":\"forall a. forall b. forall c. forall d. "
                 << "forall e. forall f. forall g. "
                 << big_bodies[big++ % big_bodies.size()]
                 << "\",\"graph\":\"" << big_graph << "\"}";
        } else {
            switch (splitmix64_next(state) % 4) {
            case 0:
                line << "{\"type\":\"decide\",\"id\":" << i
                     << ",\"problem\":\"eulerian\",\"graph\":\"" << graph
                     << "\"}";
                break;
            case 1:
                line << "{\"type\":\"eval\",\"id\":" << i
                     << ",\"formula\":\"exists x. O1(x)\",\"graph\":\"" << graph
                     << "\"}";
                break;
            default:
                line << "{\"type\":\"game\",\"id\":" << i << ",\"machine\":\""
                     << (splitmix64_next(state) % 2 ? "allsel" : "eulerian")
                     << "\",\"layers\":0,\"graph\":\"" << graph << "\"}";
                break;
            }
        }
        workload.requests.push_back(parse_request(line.str(), i + 1, limits));
        workload.interactive.push_back(!is_big);
    }
    return workload;
}

double interactive_percentile(const MixedWorkload& workload,
                              const LoadResult& result, double q) {
    std::vector<double> latencies;
    for (std::size_t i = 0; i < result.latency_ms.size(); ++i) {
        if (workload.interactive[i]) {
            latencies.push_back(result.latency_ms[i]);
        }
    }
    return percentile(std::move(latencies), q);
}

void BM_AdmissionMixed(benchmark::State& state) {
    const MixedWorkload workload = make_admission_mixed(288, 31);

    // Same 3-worker budget on both sides: admission-off serves everything
    // from one pool, admission-on splits it 2 interactive + 1 big-job.
    ServiceOptions off = batched_options();
    off.threads = 3;
    ServiceOptions on = batched_options();
    on.threads = 2;
    on.admission.enabled = true;
    on.admission.defer_cost_us = 1e5;
    on.admission.max_cost_us = 1e18; // route, never reject: all must complete
    on.admission.big_job_threads = 1;

    double p99_off = 0;
    double p99_on = 0;
    for (auto _ : state) {
        const LoadResult result_off = run_load(workload.requests, off);
        const LoadResult result_on = run_load(workload.requests, on);
        p99_off = interactive_percentile(workload, result_off, 0.99);
        p99_on = interactive_percentile(workload, result_on, 0.99);

        const obs::MetricList extra_off = {
            {"interactive_p50_ms",
             interactive_percentile(workload, result_off, 0.50)},
            {"interactive_p99_ms", p99_off}};
        const obs::MetricList extra_on = {
            {"interactive_p50_ms",
             interactive_percentile(workload, result_on, 0.50)},
            {"interactive_p99_ms", p99_on}};
        record_row("admission_off_mixed_288", result_off, 0, nullptr,
                   &extra_off);
        record_row("admission_on_mixed_288", result_on, result_off.wall_ms,
                   nullptr, &extra_on);
        report::note("BM_ServiceLoadgen", "admission_everything_served",
                     result_off.errors == 0 && result_on.errors == 0 &&
                         result_off.rejected == 0 && result_on.rejected == 0,
                     "off ok=" + std::to_string(result_off.ok) + " on ok=" +
                         std::to_string(result_on.ok));
        report::note(
            "BM_ServiceLoadgen", "admission_interactive_p99_halved",
            p99_on <= 0.5 * p99_off,
            "interactive p99 " + std::to_string(p99_on) +
                " ms with admission vs " + std::to_string(p99_off) +
                " ms without under the same big-job storm");
        sink(result_off.ok + result_on.ok);
    }
    state.counters["interactive_p99_off_ms"] = p99_off;
    state.counters["interactive_p99_on_ms"] = p99_on;
    state.counters["p99_ratio"] = p99_off > 0 ? p99_on / p99_off : 0.0;
}
BENCHMARK(BM_AdmissionMixed)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Overload behavior: an open-loop burst into a deliberately tiny queue must
/// produce structured rejections (admission control), never hangs.
void BM_ServeOverload(benchmark::State& state) {
    const auto workload = make_workload(256, 23);
    ServiceOptions options = batched_options();
    options.threads = 2;
    options.queue_capacity = 16;
    std::uint64_t rejected = 0;
    for (auto _ : state) {
        const LoadResult result = run_load(workload, options);
        rejected = result.rejected;
        sink(rejected);
    }
    state.counters["rejected"] = static_cast<double>(rejected);
    report::guarded("BM_ServeOverload", "queue_cap=16", [&] {
        const LoadResult result = run_load(workload, options);
        record_row("overload_q16", result, 0);
        return result.rejected;
    });
}
BENCHMARK(BM_ServeOverload)->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace
