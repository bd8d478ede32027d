#pragma once

#include "core/report.hpp"
#include "core/thread_pool.hpp"
#include "dtm/errors.hpp"
#include "dtm/execution.hpp"
#include "hierarchy/game.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace lph {

/// Keeps a computed scalar alive without handing the variable itself to the
/// optimizer barrier.  GCC miscompiles benchmark::DoNotOptimize(Tp&) for
/// small trivially-copyable lvalues: its "+m,r" multi-alternative constraint
/// can read one alternative and write back the other, clobbering the
/// variable (google/benchmark#1340).  Benches read these scalars after the
/// loop for counters and report rows, so the barrier must only ever touch a
/// dead copy.
template <typename T>
inline void sink(T value) {
    benchmark::DoNotOptimize(value);
}

namespace report {

/// Runs one bench instance under the structured failure channel: the
/// callable is timed, every escaping error is caught and classified, and the
/// outcome lands in the global recorder (one row per (bench, instance) key).
/// Returns the callable's value, or nullopt when it failed — so a bench
/// binary always runs to completion and reports partial results, even when
/// individual instances violate bounds.
template <typename Fn>
auto guarded(const std::string& bench, const std::string& instance, Fn&& fn)
    -> std::optional<std::decay_t<decltype(fn())>> {
    using Result = std::decay_t<decltype(fn())>;
    Instance row;
    row.bench = bench;
    row.instance = instance;
    std::optional<Result> value;
    const auto start = std::chrono::steady_clock::now();
    try {
        value.emplace(fn());
        row.outcome = "ok";
        if constexpr (std::is_same_v<Result, ExecutionResult>) {
            row.fault_count = value->faults.size();
            if (!value->ok()) {
                row.outcome = to_string(value->error);
            }
        }
    } catch (const run_error& e) {
        row.outcome = to_string(e.code());
        row.detail = e.what();
    } catch (const std::exception& e) {
        row.outcome = "error";
        row.detail = e.what();
    }
    row.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    Recorder::global().record(std::move(row));
    return value;
}

/// Records a pass/fail check outcome directly (for oracle-agreement style
/// instances where there is no run to guard).
inline void note(const std::string& bench, const std::string& instance, bool ok,
                 const std::string& detail = "") {
    Instance row;
    row.bench = bench;
    row.instance = instance;
    row.outcome = ok ? "ok" : "check_failed";
    row.detail = detail;
    Recorder::global().record(std::move(row));
}

} // namespace report

/// Solves one certificate game twice — sequential reference engine
/// (1 thread, no memoization) vs the parallel+memoized engine — checks the
/// verdicts and deterministic counters agree, and records an instance row
/// with the speedup and the engine's perf metrics.  The headline benches use
/// this for the fig3/thm11/prop21 speedup acceptance rows.
inline void record_engine_speedup(const std::string& bench,
                                  const std::string& instance,
                                  const GameSpec& spec, const LabeledGraph& g,
                                  const IdentifierAssignment& id,
                                  GameOptions options = {}) {
    const GameTables tables(spec, g, id);

    GameOptions sequential = options;
    sequential.threads = 1;
    sequential.memoize_views = false;

    GameOptions parallel = options;
    parallel.threads = std::max(4u, ThreadPool::default_participants());
    parallel.memoize_views = true;
    // Let the engine accumulate `game.*` counters into the session registry
    // that --metrics exports (the sequential reference run is a harness
    // artifact and stays out of the session totals).
    if (parallel.obs == nullptr) {
        parallel.obs = obs::Session::active();
    }

    report::Instance row;
    row.bench = bench;
    row.instance = instance;
    try {
        const GameResult seq = play_game(spec, tables, g, id, sequential);
        const GameResult par = play_game(spec, tables, g, id, parallel);
        const bool agree = seq.accepted == par.accepted &&
                           seq.machine_runs == par.machine_runs &&
                           seq.faulted_runs == par.faulted_runs &&
                           seq.witness == par.witness;
        row.outcome = agree ? "ok" : "engine_mismatch";
        row.wall_ms = par.stats.wall_ms;
        row.fault_count = par.faulted_runs;
        const double speedup = par.stats.wall_ms > 0
                                   ? seq.stats.wall_ms / par.stats.wall_ms
                                   : 0.0;
        // The row's metrics object is a registry snapshot rather than a
        // hand-copied field list: GameStats supplies the engine metrics under
        // the names the committed baselines use, and the harness-level gauges
        // (speedup, the two wall clocks, faults) layer on top.
        obs::MetricsRegistry registry;
        registry.absorb("", par.stats.to_metrics());
        registry.set("speedup", speedup);
        registry.set("seq_wall_ms", seq.stats.wall_ms);
        registry.set("par_wall_ms", par.stats.wall_ms);
        registry.set("faulted_runs", static_cast<double>(par.faulted_runs));
        row.metrics = registry.snapshot();
    } catch (const std::exception& e) {
        row.outcome = "error";
        row.detail = e.what();
    }
    report::Recorder::global().record(std::move(row));
}

/// Solves one certificate game twice at the same thread count — the
/// interpreted engine vs the per-ball store (packed 64-wide evaluation plus
/// orbit sharing) — checks the verdicts and deterministic counters are
/// bit-identical, and records an instance row with the
/// compiled-over-interpreted speedup.  A warm-up solve fills the store on
/// the shared tables before timing, so the row measures steady-state
/// serving; the warm-up's wall time is reported as `compile_ms`.
inline void record_compiled_speedup(const std::string& bench,
                                    const std::string& instance,
                                    const GameSpec& spec, const LabeledGraph& g,
                                    const IdentifierAssignment& id,
                                    GameOptions options = {}) {
    const GameTables tables(spec, g, id);

    GameOptions interpreted = options;
    interpreted.threads = std::max(4u, ThreadPool::default_participants());
    interpreted.memoize_views = true;
    interpreted.backend = GameBackend::Interpreted;

    GameOptions compiled = interpreted;
    compiled.backend = GameBackend::Compiled;
    if (compiled.obs == nullptr) {
        compiled.obs = obs::Session::active();
    }

    report::Instance row;
    row.bench = bench;
    row.instance = instance;
    try {
        // The warm-up solve fills the store on `tables` (exactly what a
        // service batch pays once for its first same-digest request).
        const GameResult warm = play_game(spec, tables, g, id, compiled);
        const double compile_ms = warm.stats.wall_ms;
        const GameResult inter = play_game(spec, tables, g, id, interpreted);
        const GameResult comp = play_game(spec, tables, g, id, compiled);
        const bool agree = inter.accepted == comp.accepted &&
                           inter.machine_runs == comp.machine_runs &&
                           inter.faulted_runs == comp.faulted_runs &&
                           inter.witness == comp.witness;
        row.outcome = agree ? "ok" : "backend_mismatch";
        row.wall_ms = comp.stats.wall_ms;
        row.fault_count = comp.faulted_runs;
        const double speedup = comp.stats.wall_ms > 0
                                   ? inter.stats.wall_ms / comp.stats.wall_ms
                                   : 0.0;
        obs::MetricsRegistry registry;
        registry.absorb("", comp.stats.to_metrics());
        registry.set("speedup", speedup);
        registry.set("interpreted_wall_ms", inter.stats.wall_ms);
        registry.set("compiled_wall_ms", comp.stats.wall_ms);
        registry.set("compile_ms", compile_ms);
        row.metrics = registry.snapshot();
    } catch (const std::exception& e) {
        row.outcome = "error";
        row.detail = e.what();
    }
    report::Recorder::global().record(std::move(row));
}

} // namespace lph
