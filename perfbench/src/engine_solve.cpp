// engine_solve: what library callers of play_game pay.  A closed loop of
// GameTables + play_game calls with default GameOptions (the library's
// thread count, the caller participating, a private view cache) over a
// seeded deck of paper instances.

#include "layers.hpp"
#include "workload_gen.hpp"
#include "workloads.hpp"

#include "dtm/view_cache.hpp"
#include "graph/identifiers.hpp"
#include "oracle/reference.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

namespace perfbench {

using namespace lph;

namespace {

/// Set-up probes per run: each is a fresh process's first solve.
constexpr int kSetupRepeats = 9;

struct Solve {
    double latency_ms = 0;
    std::size_t instance = 0;
    bool accepted = false;
    double tables_ms = 0;
    GameResult result;
};

struct PhaseResult {
    std::vector<Solve> solves;
    double cpu_s = 0;
    /// Per deck pass: solves per second and process CPU ms per solve.
    std::vector<double> pass_ops, pass_cpu_ms;
};

/// One op: option tables plus the solve, each timed (and spanned when the
/// tracer is on).
Solve solve_one(const EngineDeck& deck, std::size_t index) {
    const EngineInstance& instance = deck.instances[index];
    const GameSpec& spec = deck.spec_of(instance);
    Solve solve;
    solve.instance = index;
    const Clock::time_point t0 = Clock::now();
    LPH_SPAN("bench", "bench.op");
    const IdentifierAssignment id = make_global_ids(instance.graph);
    std::optional<GameTables> tables;
    const Clock::time_point tables0 = Clock::now();
    {
        LPH_SPAN("bench", "engine.tables");
        tables.emplace(spec, instance.graph, id);
    }
    const Clock::time_point t1 = Clock::now();
    {
        LPH_SPAN("bench", "engine.play_game");
        solve.result = play_game(spec, *tables, instance.graph, id, GameOptions{});
    }
    const Clock::time_point t2 = Clock::now();
    solve.accepted = solve.result.accepted;
    solve.tables_ms = ms_between(tables0, t1);
    solve.latency_ms = ms_between(t0, t2);
    return solve;
}

/// Solves the deck's passes in turn, cycling through them, until `seconds`
/// have gone by; the pass under way then completes.  A pass holds every
/// shape once, so whole passes keep the run's mix of cheap and exhaustive
/// instances the same on every seed, and each pass (about a second) is
/// timed on its own.
PhaseResult run_closed_loop(const EngineDeck& deck, double seconds,
                            TraceCollector* collector) {
    PhaseResult result;
    const double cpu0 = process_cpu_s();
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(seconds));
    double collect_cpu0 = collector != nullptr ? collector->collect_cpu_s() : 0.0;
    for (std::size_t pass = 0; Clock::now() < stop; ++pass) {
        const Clock::time_point pass_start = Clock::now();
        const double pass_cpu0 = process_cpu_s();
        const std::size_t first = (pass % EngineDeck::kPasses) * deck.pass_size;
        for (std::size_t i = first; i < first + deck.pass_size; ++i) {
            result.solves.push_back(solve_one(deck, i));
            if (collector != nullptr) {
                collector->collect(); // the pool is idle between solves
            }
        }
        const double n = static_cast<double>(deck.pass_size);
        result.pass_ops.push_back(n * 1000.0 / ms_between(pass_start, Clock::now()));
        result.pass_cpu_ms.push_back(1000.0 * (process_cpu_s() - pass_cpu0) / n);
    }
    result.cpu_s = process_cpu_s() - cpu0 -
                   (collector != nullptr ? collector->collect_cpu_s() - collect_cpu0 : 0.0);
    return result;
}

/// Every solve's verdict must match an independent decider (graphalg, or
/// the src/oracle reference game solver where none applies), and a re-solve
/// of each instance through one shared view cache per spec must record no
/// cache-soundness violation.
void check(const EngineDeck& deck, const PhaseResult& phase, Report& report) {
    std::map<std::size_t, bool> truth;
    for (const Solve& s : phase.solves) {
        if (truth.count(s.instance) != 0) {
            continue;
        }
        const EngineInstance& instance = deck.instances[s.instance];
        truth[s.instance] =
            instance.oracle ? ref_play_game(deck.spec_of(instance), instance.graph,
                                            make_global_ids(instance.graph))
                                  .accepted
                            : instance.expected;
    }
    std::size_t mismatches = 0;
    for (const Solve& s : phase.solves) {
        if (s.accepted != truth.at(s.instance)) {
            ++mismatches;
        }
    }
    std::map<std::size_t, std::unique_ptr<ViewCache>> caches;
    std::uint64_t cache_mismatches = 0;
    for (const auto& [index, verdict] : truth) {
        const EngineInstance& instance = deck.instances[index];
        auto& cache = caches[instance.spec];
        if (!cache) {
            cache = std::make_unique<ViewCache>();
        }
        GameOptions options;
        options.view_cache = cache.get();
        const GameResult again = play_game(deck.spec_of(instance), instance.graph,
                                           make_global_ids(instance.graph), options);
        if (again.accepted != verdict) {
            ++mismatches;
        }
    }
    for (const auto& [spec, cache] : caches) {
        cache_mismatches += cache->stats().verdict_mismatches;
    }
    if (mismatches > 0) {
        report.fail(std::to_string(mismatches) + " verdicts differ from the independent deciders");
    }
    if (cache_mismatches > 0) {
        report.fail("view cache verdict_mismatches = " + std::to_string(cache_mismatches));
    }
    report.notes.push_back("check: " + std::to_string(phase.solves.size()) + " solves of " +
                           std::to_string(truth.size()) +
                           " instances against graphalg / oracle verdicts, " +
                           std::to_string(mismatches) + " mismatched");
}

double cpu_ms_per_op(const PhaseResult& phase) {
    return perfbench::cpu_ms_per_op(phase.cpu_s, phase.solves.size());
}

/// Adds the solves to report.attempted, and the ones that scored a leaf as
/// a loss because the machine faulted to report.failed: on these instances
/// no run may fault.
void count_outcomes(const PhaseResult& phase, Report& report) {
    report.attempted += phase.solves.size();
    for (const Solve& s : phase.solves) {
        if (s.result.faulted_runs > 0) {
            ++report.failed;
        }
    }
}

/// One note line per instance shape: its median solve latency, so a shift
/// in latency_p50_ms can be traced to the shapes that moved.
void shape_notes(const EngineDeck& deck, const PhaseResult& phase, Report& report) {
    std::map<std::string, std::vector<double>> by_shape;
    for (const Solve& s : phase.solves) {
        const EngineInstance& instance = deck.instances[s.instance];
        by_shape[instance.kind + "/n=" + std::to_string(instance.nodes)].push_back(
            s.latency_ms);
    }
    for (const auto& [shape, latency] : by_shape) {
        report.notes.push_back("  " + shape + ": median " + std::to_string(median(latency)) +
                               " ms over " + std::to_string(latency.size()) + " solves");
    }
}

/// The odd 13-cycle warm-up instance (the BM_EngineSpeedup shape): the same
/// on every seed, so set-up time does not depend on the deck's order.
std::size_t warm_instance(const EngineDeck& deck) {
    std::size_t warm = 0;
    while (deck.instances[warm].kind != "coloring2/odd_cycle" ||
           deck.instances[warm].nodes != 13) {
        ++warm;
    }
    return warm;
}

/// Runs this binary with --setup-probe and reads back the child's first
/// solve time (seconds); nullopt when the child fails.
std::optional<double> probe_setup_s(const Options& options) {
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
        return std::nullopt;
    }
    exe[n] = '\0';
    int out[2];
    if (pipe(out) != 0) {
        return std::nullopt;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const std::string seed = std::to_string(options.seed);
    char* argv[] = {exe, const_cast<char*>("--workload"), const_cast<char*>("engine_solve"),
                    const_cast<char*>("--seed"), const_cast<char*>(seed.c_str()),
                    const_cast<char*>("--setup-probe"), nullptr};
    pid_t child = 0;
    const int spawned = posix_spawn(&child, exe, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    std::string text;
    char buf[256];
    for (ssize_t got; spawned == 0 && (got = read(out[0], buf, sizeof(buf))) > 0;) {
        text.append(buf, static_cast<std::size_t>(got));
    }
    close(out[0]);
    int status = 0;
    if (spawned != 0 || waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        return std::nullopt;
    }
    return std::stod(text);
}

} // namespace

int probe_engine_setup(const Options& options) {
    const EngineDeck deck = make_engine_deck(options.seed);
    const std::size_t warm = warm_instance(deck);
    const Clock::time_point t0 = Clock::now();
    const Solve solve = solve_one(deck, warm);
    const double setup_s = ms_between(t0, Clock::now()) / 1000.0;
    if (solve.result.faulted_runs > 0 || solve.accepted != deck.instances[warm].expected) {
        return 1;
    }
    std::printf("%.17g\n", setup_s);
    return 0;
}

Report run_engine_solve(const Options& options) {
    Report report;
    const auto limit = options.slo_ms.find("engine_solve");
    const double limit_ms = limit != options.slo_ms.end() ? limit->second : 0;
    const EngineDeck deck = make_engine_deck(options.seed);
    const std::size_t warm = warm_instance(deck);

    if (!options.trace) {
        // Set-up is a process's first solve, which also starts the
        // library's shared thread pool.  A process starts that pool once,
        // so each sample comes from a fresh process; the median is reported.
        std::vector<double> setup_s;
        for (int i = 0; i < kSetupRepeats; ++i) {
            const std::optional<double> probe = probe_setup_s(options);
            if (!probe.has_value()) {
                report.fail("set-up probe process failed");
                break;
            }
            setup_s.push_back(*probe);
        }
        solve_one(deck, warm); // this process's pool, before the measured phase
        const PhaseResult phase = run_closed_loop(deck, options.seconds, nullptr);
        // A run holds a few hundred solves: too few for windows, so the
        // percentiles are over the whole run.
        std::vector<double> latency;
        std::size_t within = 0;
        for (const Solve& s : phase.solves) {
            latency.push_back(s.latency_ms);
            if (s.latency_ms <= limit_ms) {
                ++within;
            }
        }
        count_outcomes(phase, report);
        report.set("setup_s", median(setup_s));
        report.set("latency_p50_ms", percentile(latency, 0.5));
        report.set("latency_p99_ms", percentile(latency, 0.99));
        // Throughput and CPU per op are medians over the deck passes: a host
        // slowdown then spoils one pass instead of the run's figure.
        report.set("throughput_ops", median(phase.pass_ops));
        report.set("slo_ratio", static_cast<double>(within) /
                                    std::max<double>(1.0, static_cast<double>(latency.size())));
        report.set("cpu_ms_per_op", median(phase.pass_cpu_ms));
        report.set("peak_rss_mb", peak_rss_mb());
        report.notes.push_back("solves " + std::to_string(latency.size()) +
                               " (the latency sample count) in " +
                               std::to_string(phase.pass_ops.size()) + " passes of " +
                               std::to_string(deck.pass_size) +
                               " instances, slo limit " + std::to_string(limit_ms) + " ms");
        shape_notes(deck, phase, report);
        check(deck, phase, report);
        return report;
    }

    solve_one(deck, warm); // start the pool before either phase
    // Drained after every solve: a ring must hold one solve's spans per
    // thread (an exhaustive 2^15 game probes the view cache ~500k times).
    const auto halves = traced_halves(
        options, 1 << 19, report, [] { return 0; },
        [&](int, TraceCollector* collector) {
            return run_closed_loop(deck, options.seconds / 2, collector);
        });
    const PhaseResult& plain = halves.plain;
    const PhaseResult& traced = halves.traced;
    count_outcomes(plain, report);
    count_outcomes(traced, report);
    double tables_ms = 0, busy_ms = 0, capacity_ms = 0;
    std::uint64_t machine_runs = 0, leaves = 0, hits = 0, misses = 0, evictions = 0,
                  chunks = 0;
    for (const Solve& s : traced.solves) {
        const GameStats& st = s.result.stats;
        tables_ms += s.tables_ms;
        machine_runs += s.result.machine_runs;
        leaves += st.leaves_processed;
        hits += st.node_cache_hits;
        misses += st.node_cache_misses;
        evictions += st.cache_evictions;
        busy_ms += st.busy_ms;
        capacity_ms += st.wall_ms * st.workers;
        chunks += st.chunks;
    }
    report.set("game.tables_ms", tables_ms);
    report.set("game.machine_runs", static_cast<double>(machine_runs));
    report.set("game.leaves", static_cast<double>(leaves));
    report.set("game.speculative_ratio",
               machine_runs > 0 ? static_cast<double>(leaves) / static_cast<double>(machine_runs)
                                : 0.0);
    report.set("view_cache.hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                 : 0.0);
    report.set("view_cache.evictions", static_cast<double>(evictions));
    report.set("pool.utilization", capacity_ms > 0 ? busy_ms / capacity_ms : 0.0);
    report.set("pool.chunks", static_cast<double>(chunks));
    const double base_cpu = cpu_ms_per_op(plain);
    report.set("trace.overhead_ratio", base_cpu > 0 ? cpu_ms_per_op(traced) / base_cpu : 0.0);
    check(deck, plain, report);
    check(deck, traced, report);
    return report;
}

} // namespace perfbench
