// Experiment E7 (Proposition 21): the symmetry-breaking separation LP < NLP.
// For growing odd cycles, the candidate LP decider's transcripts on C_n and
// on the doubled C_2n (with replicated identifiers) are compared; they are
// always identical although exactly one of the two graphs is 2-colorable.

#include "graph/generators.hpp"
#include "hierarchy/separations.hpp"
#include "machines/verifiers.hpp"

#include "bench_report.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace lph;

void BM_GluedCycleTranscripts(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LocalBipartiteDecider decider(1);
    SymmetryExperiment result;
    for (auto _ : state) {
        result = run_prop21_experiment(decider, n);
        sink(result.transcripts_match);
    }
    state.counters["transcripts_match"] = result.transcripts_match ? 1.0 : 0.0;
    state.counters["odd_is_bipartite"] = result.g_bipartite ? 1.0 : 0.0;
    state.counters["doubled_is_bipartite"] = result.g2_bipartite ? 1.0 : 0.0;
    state.counters["same_acceptance"] =
        result.g_accepted == result.g2_accepted ? 1.0 : 0.0;
    report::note("BM_GluedCycleTranscripts", "blind_n=" + std::to_string(n),
                 result.transcripts_match &&
                     result.g_accepted == result.g2_accepted &&
                     result.g_bipartite != result.g2_bipartite);
}
BENCHMARK(BM_GluedCycleTranscripts)->Arg(9)->Arg(33)->Arg(129)->Arg(513);

void BM_RadiusSweep(benchmark::State& state) {
    // The separation survives any constant radius (cycle length permitting).
    const int radius = static_cast<int>(state.range(0));
    const std::size_t n = 4 * static_cast<std::size_t>(radius) + 9 +
                          (4 * static_cast<std::size_t>(radius) + 9 + 1) % 2;
    const LocalBipartiteDecider decider(radius);
    SymmetryExperiment result;
    for (auto _ : state) {
        result = run_prop21_experiment(decider, n % 2 == 1 ? n : n + 1);
        sink(result.transcripts_match);
    }
    state.counters["radius"] = static_cast<double>(radius);
    state.counters["transcripts_match"] = result.transcripts_match ? 1.0 : 0.0;
    report::note("BM_RadiusSweep", "blind_r=" + std::to_string(radius),
                 result.transcripts_match);
}
BENCHMARK(BM_RadiusSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineSpeedup_OddCycleCertificates(benchmark::State& state) {
    // The NLP side of Prop 21's separation: the certificate game for
    // 2-COLORABLE on the odd cycle (the language the blind LP decider cannot
    // handle).  Parallel+memoized engine vs the sequential reference on the
    // full exhaustive no-instance.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = cycle_graph(n, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const FixedOptionsDomain colors({"0", "1"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&colors};
    spec.starts_existential = true;
    for (auto _ : state) {
        sink(play_game(spec, g, id).accepted);
    }
    record_engine_speedup("BM_EngineSpeedup_OddCycleCertificates",
                          "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_EngineSpeedup_OddCycleCertificates)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_CompiledSpeedup_OddCycleCertificates(benchmark::State& state) {
    // The same exhaustive no-instance, interpreted vs compiled backends at
    // equal thread count — the compiled tables turn each leaf probe into one
    // bit of a packed 64-wide scan.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = cycle_graph(n, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const FixedOptionsDomain colors({"0", "1"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&colors};
    spec.starts_existential = true;
    for (auto _ : state) {
        sink(play_game(spec, g, id).accepted); // the default backend: the store
    }
    record_compiled_speedup("BM_CompiledSpeedup_OddCycleCertificates",
                            "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_CompiledSpeedup_OddCycleCertificates)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_CompiledSpeedup_PeriodicIdOrbits(benchmark::State& state) {
    // Orbit pruning's best case: identifiers repeat with period 7 around an
    // even cycle, so the 14 nodes fall into 7 view-isomorphism classes and
    // every other node's table is shared (compile cost halves while the
    // verdict and tree size stay bit-identical).  Period 7 is the smallest
    // that keeps ids locally unique for the coloring verifier's id radius.
    const LabeledGraph g = cycle_graph(14, "1");
    const auto id = make_cyclic_ids(g, 7);
    const ColoringVerifier verifier(2);
    const FixedOptionsDomain colors({"0", "1"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&colors};
    spec.starts_existential = true;
    for (auto _ : state) {
        sink(play_game(spec, g, id).accepted); // the default backend: the store
    }
    record_compiled_speedup("BM_CompiledSpeedup_PeriodicIdOrbits",
                            "even_cycle_n=14_period=7", spec, g, id);
}
BENCHMARK(BM_CompiledSpeedup_PeriodicIdOrbits)->Unit(benchmark::kMillisecond);

} // namespace
