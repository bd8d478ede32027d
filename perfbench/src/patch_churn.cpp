// patch_churn: resident graphs mutated beside reads.  Three graphs of about
// 200 nodes are registered once; each then runs a paced closed loop of one
// outstanding request at a time, interleaving graph_patch writes (each with
// a machine query) and digest-referenced reads in lph_client --patch's
// proportions (see ChurnStream).

#include "layers.hpp"
#include "service_client.hpp"
#include "workload_gen.hpp"
#include "workloads.hpp"

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>

namespace perfbench {

using namespace lph::service;

namespace {

constexpr unsigned kWorkers = 3; // plus this generator thread: 4 in all
constexpr std::size_t kGraphs = 3;
constexpr int kSetupRepeats = 15;
/// Ops per second per graph.  The three chains together offer 300 ops/s:
/// about a third of what the core completed unpaced on a quiet host (841/s)
/// and two thirds of it in the slowest host period seen (470/s).  Paced,
/// every run does the same work, so its throughput and peak RSS do not
/// follow how much of the machine the host grants.
constexpr double kPace = 100;
/// Read latency is the median over windows of this length: a stall on a
/// shared machine then spoils one window instead of the run.
constexpr double kWindowS = 1.0;

WireLimits churn_limits() {
    WireLimits limits;
    limits.max_graph_nodes = 512; // the default 256 is sized for small lphd lines
    return limits;
}

ServiceOptions churn_options() {
    ServiceOptions options;
    options.threads = kWorkers;
    options.wire = churn_limits();
    return options;
}

/// Core construction plus registration of the resident graphs.
std::unique_ptr<ServiceCore> set_up(std::uint64_t seed, Report& report) {
    auto core = std::make_unique<ServiceCore>(churn_options());
    std::vector<std::future<Response>> registered;
    for (std::size_t g = 0; g < kGraphs; ++g) {
        const ChurnStream stream(seed, g);
        registered.push_back(
            core->submit(parse_request(stream.register_line(), 1, churn_limits())));
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
    /// Per graph: the samples in op order and the digest each op must leave.
    std::vector<std::vector<std::size_t>> by_graph;
    std::vector<std::vector<std::uint64_t>> expected_digest;
    Clock::time_point start;
    double wall_s = 0;
    double cpu_s = 0;
    ServiceStats stats;
    ResultMemoStats memo;
    lph::ViewCacheStats cache;
};

/// Runs each graph's chain for `seconds`: one outstanding op per graph, the
/// next sent when the previous has answered and its slot has come (kPace
/// ops per second per graph, the graphs' slots staggered).  A chain that
/// falls behind its slots sends at once until it has caught up, so every
/// run does the same work.  Each caller waits for its answer, so an op's
/// latency runs from when it was sent.  With a collector, the loop pauses
/// every half second: no new op is issued until the in-flight ones finish,
/// then the trace rings are drained and the slots start afresh.
PhaseResult run_paced_loop(ServiceCore& core, std::uint64_t seed, double seconds,
                           TraceCollector* collector) {
    const WireLimits limits = churn_limits();
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kPace));
    std::vector<ChurnStream> streams;
    PhaseResult result;
    result.by_graph.resize(kGraphs);
    result.expected_digest.resize(kGraphs);
    for (std::size_t g = 0; g < kGraphs; ++g) {
        streams.emplace_back(seed, g);
    }
    std::vector<Clock::time_point> slot(kGraphs);
    std::vector<bool> waiting(kGraphs, false); ///< answered, next op not yet sent
    const auto restart_slots = [&](Clock::time_point from) {
        for (std::size_t g = 0; g < kGraphs; ++g) {
            slot[g] = from + interval * g / kGraphs;
            waiting[g] = true;
        }
    };
    std::deque<Inflight> inflight;
    const auto issue = [&](std::size_t g) {
        const std::size_t id = result.expected_digest[g].size() + 1;
        ChurnOp op = streams[g].next(id, false);
        result.expected_digest[g].push_back(op.digest);
        inflight.push_back(submit_line(core, op.line, limits, Clock::now(), g, op.patch));
        slot[g] += interval;
        waiting[g] = false;
    };

    const ServiceStats stats0 = core.stats();
    const ResultMemoStats memo0 = core.memo_stats();
    const lph::ViewCacheStats cache0 = core.view_cache_stats();
    const double cpu0 = process_cpu_s();
    const double gen_cpu0 = thread_cpu_s();
    const Clock::time_point start = Clock::now();
    result.start = start;
    const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(seconds));
    constexpr auto kSegment = std::chrono::milliseconds(500);
    Clock::time_point segment_end = start + kSegment;
    std::size_t segment_first = 0;
    restart_slots(start);
    const auto collect_segment = [&] {
        std::vector<ClientOp> ops;
        for (std::size_t i = segment_first; i < result.samples.size(); ++i) {
            ops.push_back(result.samples[i].t);
        }
        collector->collect(ops);
        segment_first = result.samples.size();
    };
    for (;;) {
        const Clock::time_point now = Clock::now();
        const bool pausing = collector != nullptr && now >= segment_end;
        if (pausing && inflight.empty()) {
            collect_segment();
            segment_end = Clock::now() + kSegment;
            restart_slots(Clock::now());
            continue;
        }
        Clock::time_point next_slot = now + std::chrono::seconds(1);
        for (std::size_t g = 0; g < kGraphs; ++g) {
            if (!waiting[g] || now >= stop || pausing) {
                continue;
            }
            if (slot[g] <= now) {
                issue(g);
            } else {
                next_slot = std::min(next_slot, slot[g]);
            }
        }
        if (inflight.empty() && now >= stop) {
            break;
        }
        const std::size_t before = result.samples.size();
        harvest(inflight, next_slot, result.samples);
        for (std::size_t i = before; i < result.samples.size(); ++i) {
            const std::size_t g = result.samples[i].key;
            result.by_graph[g].push_back(i);
            waiting[g] = true;
        }
    }
    if (collector != nullptr && segment_first < result.samples.size()) {
        collect_segment();
    }
    const Clock::time_point end = Clock::now();
    const double gen_cpu = thread_cpu_s() - gen_cpu0;
    result.wall_s = ms_between(start, end) / 1000.0;
    result.cpu_s = process_cpu_s() - cpu0 -
                   generator_overhead_cpu_s(gen_cpu, result.samples) -
                   (collector != nullptr ? collector->collect_cpu_s() : 0.0);
    result.stats = since(core.stats(), stats0);
    result.memo = since(core.memo_stats(), memo0);
    result.cache = since(core.view_cache_stats(), cache0);
    return result;
}

/// What the gate found on one graph's chain.
struct ChainCheck {
    std::size_t digest_mismatches = 0, verdict_mismatches = 0, compared = 0;
};

/// Every patch of graph `g`'s chain must echo the digest the mirror
/// predicts, and every op's verdict must match a full recompute of its
/// inline-graph twin on a fresh core (memo, batching and sharing off,
/// interpreted backend).
ChainCheck check_chain(std::uint64_t seed, std::size_t g, const PhaseResult& phase) {
    const WireLimits limits = churn_limits();
    ServiceCore reference(reference_options(limits));
    ChainCheck out;
    const auto& order = phase.by_graph[g];
    ChurnStream stream(seed, g);
    for (std::size_t k = 0; k < order.size(); ++k) {
        const Sample& s = phase.samples[order[k]];
        if (s.patch && s.ok() && s.digest != phase.expected_digest[g][k]) {
            ++out.digest_mismatches;
        }
        const ChurnOp op = stream.next(k + 1, true);
        const std::optional<bool> golden = reference_verdict(reference, op.twin, limits);
        ++out.compared;
        if (!golden.has_value() || (s.ok() && (!s.has_verdict || s.verdict != *golden))) {
            ++out.verdict_mismatches;
        }
    }
    return out;
}

/// The correctness gate, one thread per chain (as many as the run used).
void check(std::uint64_t seed, const PhaseResult& phase, Report& report) {
    std::vector<std::future<ChainCheck>> chains;
    for (std::size_t g = 0; g < kGraphs; ++g) {
        chains.push_back(std::async(std::launch::async, check_chain, seed, g, std::cref(phase)));
    }
    ChainCheck total;
    for (auto& chain : chains) {
        const ChainCheck c = chain.get();
        total.digest_mismatches += c.digest_mismatches;
        total.verdict_mismatches += c.verdict_mismatches;
        total.compared += c.compared;
    }
    if (total.digest_mismatches > 0) {
        report.fail(std::to_string(total.digest_mismatches) +
                    " patches echoed a digest other than the mirror's");
    }
    if (total.verdict_mismatches > 0) {
        report.fail(std::to_string(total.verdict_mismatches) + " of " +
                    std::to_string(total.compared) + " verdicts differ from a full recompute");
    }
    if (phase.cache.verdict_mismatches != 0) {
        report.fail("view cache verdict_mismatches = " +
                    std::to_string(phase.cache.verdict_mismatches));
    }
    report.notes.push_back("check: " + std::to_string(total.compared) +
                           " verdicts against full recompute, " +
                           std::to_string(total.verdict_mismatches) + " mismatched; " +
                           std::to_string(total.digest_mismatches) + " digest mismatches");
}

double cpu_ms_per_op(const PhaseResult& phase) {
    return perfbench::cpu_ms_per_op(phase.cpu_s, phase.samples.size());
}

} // namespace

Report run_patch_churn(const Options& options) {
    Report report;
    const auto limit = options.slo_ms.find("patch_churn");
    const double limit_ms = limit != options.slo_ms.end() ? limit->second : 0;

    if (!options.trace) {
        std::vector<double> setup_s;
        std::unique_ptr<ServiceCore> core;
        for (int i = 0; i < kSetupRepeats; ++i) {
            core.reset();
            const Clock::time_point t0 = Clock::now();
            core = set_up(options.seed, report);
            setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        }
        const PhaseResult phase =
            run_paced_loop(*core, options.seed, options.seconds, nullptr);
        core->stop();

        // About 37 reads per window: enough for a median, too few for a
        // p99, which is over the whole run.
        std::vector<Timed> read_latency;
        std::vector<double> reads, all;
        std::size_t ok = 0, within = 0, patches = 0;
        for (const Sample& s : phase.samples) {
            const double at_s = ms_between(phase.start, s.t.render_end) / 1000.0;
            all.push_back(s.latency_ms());
            if (s.patch) {
                ++patches;
            } else {
                reads.push_back(s.latency_ms());
                read_latency.push_back({at_s, s.latency_ms()});
            }
            if (s.ok()) {
                ++ok;
                if (s.latency_ms() <= limit_ms) {
                    ++within;
                }
            }
        }
        count_outcomes(phase.samples, report);
        report.set("setup_s", median(setup_s));
        report.set("latency_p50_ms", windowed_percentile(read_latency, kWindowS, 0.5, 20));
        report.set("latency_p99_ms", percentile(reads, 0.99));
        report.set("throughput_ops", static_cast<double>(ok) / phase.wall_s);
        report.set("slo_ratio",
                   static_cast<double>(within) /
                       std::max<double>(1.0, static_cast<double>(phase.samples.size())));
        report.set("cpu_ms_per_op", cpu_ms_per_op(phase));
        report.set("peak_rss_mb", peak_rss_mb());
        report.notes.push_back(
            "ops " + std::to_string(phase.samples.size()) + " (" + std::to_string(patches) +
            " patches, " + std::to_string(reads.size()) +
            " reads: the latency sample count), all-ops p99 " +
            std::to_string(percentile(all, 0.99)) + " ms, slo limit " +
            std::to_string(limit_ms) + " ms over all ops, memo hit ratio " +
            std::to_string(phase.memo.hit_rate()) + ", dirty fraction " +
            std::to_string(phase.stats.patch_dirty_fraction()));
        check(options.seed, phase, report);
        return report;
    }

    const auto halves = traced_halves(
        options, 1 << 18, report, [&] { return set_up(options.seed, report); },
        [&](std::unique_ptr<ServiceCore> core, TraceCollector* collector) {
            PhaseResult phase =
                run_paced_loop(*core, options.seed, options.seconds / 2, collector);
            core->stop();
            return phase;
        });
    count_outcomes(halves.plain.samples, report);
    count_outcomes(halves.traced.samples, report);
    const PhaseResult& traced = halves.traced;
    service_layer_metrics(traced.samples, traced.stats, traced.memo, traced.cache, report);
    const double base_cpu = cpu_ms_per_op(halves.plain);
    report.set("trace.overhead_ratio", base_cpu > 0 ? cpu_ms_per_op(traced) / base_cpu : 0.0);
    check(options.seed, halves.plain, report);
    check(options.seed, traced, report);
    return report;
}

} // namespace perfbench
