// Experiment E6 (Theorems 11 and 12): empirical Fagin agreement.  On each
// instance the second-order quantifier game is played twice — once
// evaluating the LFO matrix directly and once running the generic
// FormulaArbiter machine on sliced relation certificates — and the two game
// values must coincide.  Counters record both values and the number of game
// leaves explored by each side.

#include "graph/generators.hpp"
#include "graphalg/coloring.hpp"
#include "hierarchy/fagin.hpp"
#include "logic/examples.hpp"
#include "machines/verifiers.hpp"

#include "bench_report.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace lph;

void BM_TwoColorableAgreement(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = cycle_graph(n, "");
    const auto id = make_global_ids(g);
    FaginOptions options;
    options.max_tuples_per_variable = 20;
    FaginReport report;
    for (auto _ : state) {
        report = check_fagin_agreement(paper_formulas::two_colorable(), g, id,
                                       options);
        sink(report.agree);
    }
    state.counters["agree"] = report.agree ? 1.0 : 0.0;
    state.counters["value"] = report.formula_value ? 1.0 : 0.0;
    state.counters["truth"] = is_bipartite(g) ? 1.0 : 0.0;
    state.counters["formula_leaves"] = static_cast<double>(report.formula_leaves);
    state.counters["machine_leaves"] = static_cast<double>(report.machine_leaves);
    lph::report::note("BM_TwoColorableAgreement", "agree_n=" + std::to_string(n),
                      report.agree && report.formula_value == is_bipartite(g));
}
BENCHMARK(BM_TwoColorableAgreement)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_ThreeColorableAgreement(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = complete_graph(n, "");
    const auto id = make_global_ids(g);
    FaginOptions options;
    FaginReport report;
    for (auto _ : state) {
        report = check_fagin_agreement(paper_formulas::three_colorable(), g, id,
                                       options);
        sink(report.agree);
    }
    state.counters["agree"] = report.agree ? 1.0 : 0.0;
    state.counters["value"] = report.formula_value ? 1.0 : 0.0;
    state.counters["truth"] = is_k_colorable(g, 3) ? 1.0 : 0.0;
    lph::report::note("BM_ThreeColorableAgreement",
                      "agree_n=" + std::to_string(n),
                      report.agree && report.formula_value == is_k_colorable(g, 3));
}
BENCHMARK(BM_ThreeColorableAgreement)->Arg(3)->Arg(4);

void BM_FormulaSideScaling(benchmark::State& state) {
    // The logic side alone scales further; the cost grows with the
    // 2^|universe| enumeration, which is the honest price of brute-force
    // model checking.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    const LabeledGraph g = random_connected_graph(n, n / 2, rng, "");
    FaginOptions options;
    options.max_tuples_per_variable = 22;
    bool value = false;
    for (auto _ : state) {
        value = eval_sentence_on_graph(paper_formulas::three_colorable(), g,
                                       options);
        sink(value);
    }
    state.counters["value"] = value ? 1.0 : 0.0;
    state.counters["truth"] = is_k_colorable(g, 3) ? 1.0 : 0.0;
    lph::report::note("BM_FormulaSideScaling", "truth_n=" + std::to_string(n),
                      value == is_k_colorable(g, 3));
}
BENCHMARK(BM_FormulaSideScaling)->Arg(4)->Arg(6)->Arg(8);

void BM_EngineSpeedup_TwoColorableGame(benchmark::State& state) {
    // The machine side of the two_colorable agreement, scaled past what the
    // agreement bench can afford: the Sigma_1 coloring game on an odd cycle,
    // parallel+memoized engine vs the sequential reference.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = cycle_graph(n, "");
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
    record_engine_speedup("BM_EngineSpeedup_TwoColorableGame",
                          "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_EngineSpeedup_TwoColorableGame)->Arg(13)->Unit(benchmark::kMillisecond);

void BM_CompiledSpeedup_TwoColorableGame(benchmark::State& state) {
    // Backend-vs-backend at equal thread count on the same exhaustive
    // no-instance: interpreted leaf evaluation vs compiled decision tables
    // scanned 64 certificates per word.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const LabeledGraph g = cycle_graph(n, "");
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
    record_compiled_speedup("BM_CompiledSpeedup_TwoColorableGame",
                            "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_CompiledSpeedup_TwoColorableGame)
    ->Arg(13)
    ->Unit(benchmark::kMillisecond);

} // namespace
