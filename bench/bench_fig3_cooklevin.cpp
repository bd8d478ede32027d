// Experiment E5 (Theorems 19 and 20, Figure 3/10): the full distributed
// Cook-Levin pipeline.  Each stage is timed separately, per-stage blow-up is
// recorded, and equisatisfiability is verified across the whole chain with
// the DPLL substrate.

#include "graph/generators.hpp"
#include "logic/examples.hpp"
#include "machines/verifiers.hpp"
#include "reductions/cook_levin.hpp"
#include "reductions/three_coloring.hpp"
#include "sat/coloring_sat.hpp"

#include "bench_report.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace lph;

void BM_Stage1_SentenceToSatGraph(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(9);
    const LabeledGraph g = random_connected_graph(n, n / 3, rng, "");
    const auto id = make_global_ids(g);
    const CookLevinReduction reduction(paper_formulas::k_colorable(2));
    std::size_t formula_bits = 0;
    for (auto _ : state) {
        const ReducedGraph reduced = apply_reduction(reduction, g, id);
        formula_bits = 0;
        for (NodeId u = 0; u < reduced.graph.num_nodes(); ++u) {
            formula_bits += reduced.graph.label(u).size();
        }
        sink(formula_bits);
    }
    state.counters["in_nodes"] = static_cast<double>(n);
    state.counters["label_bits"] = static_cast<double>(formula_bits);
    report::guarded("BM_Stage1_SentenceToSatGraph", "n=" + std::to_string(n),
                    [&] { return apply_reduction(reduction, g, id).graph.num_nodes(); });
}
BENCHMARK(BM_Stage1_SentenceToSatGraph)->Arg(2)->Arg(4)->Arg(8);

void BM_Stage2_Tseytin(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(10);
    const LabeledGraph g = random_connected_graph(n, n / 3, rng, "");
    const auto id = make_global_ids(g);
    const ReducedGraph stage1 =
        apply_reduction(CookLevinReduction(paper_formulas::k_colorable(2)), g, id);
    const SatGraphTo3Sat reduction;
    const auto id1 = make_global_ids(stage1.graph);
    for (auto _ : state) {
        const ReducedGraph reduced = apply_reduction(reduction, stage1.graph, id1);
        benchmark::DoNotOptimize(reduced.graph.num_nodes());
    }
    report::guarded("BM_Stage2_Tseytin", "n=" + std::to_string(n), [&] {
        return apply_reduction(reduction, stage1.graph, id1).graph.num_nodes();
    });
}
BENCHMARK(BM_Stage2_Tseytin)->Arg(2)->Arg(4)->Arg(8);

void BM_Stage3_ColoringGadgets(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(11);
    const LabeledGraph g = random_connected_graph(n, 0, rng, "");
    const auto id = make_global_ids(g);
    const ReducedGraph stage1 =
        apply_reduction(CookLevinReduction(paper_formulas::k_colorable(2)), g, id);
    const ReducedGraph stage2 = apply_reduction(
        SatGraphTo3Sat{}, stage1.graph, make_global_ids(stage1.graph));
    const auto id2 = make_global_ids(stage2.graph);
    std::size_t gadget_nodes = 0;
    for (auto _ : state) {
        const ReducedGraph reduced =
            apply_reduction(ThreeSatTo3Colorable{}, stage2.graph, id2);
        gadget_nodes = reduced.graph.num_nodes();
        sink(gadget_nodes);
    }
    state.counters["gadget_nodes"] = static_cast<double>(gadget_nodes);
    report::guarded("BM_Stage3_ColoringGadgets", "n=" + std::to_string(n), [&] {
        return apply_reduction(ThreeSatTo3Colorable{}, stage2.graph, id2)
            .graph.num_nodes();
    });
}
BENCHMARK(BM_Stage3_ColoringGadgets)->Arg(2)->Arg(3);

void BM_FullPipelineFaithfulness(benchmark::State& state) {
    // End-to-end: the pipeline preserves the answer; DPLL solves both the
    // intermediate SAT-GRAPHs and the final coloring instance.
    std::size_t correct = 0;
    std::size_t checked = 0;
    for (auto _ : state) {
        correct = 0;
        checked = 0;
        for (const bool yes : {true, false}) {
            const LabeledGraph g =
                yes ? path_graph(2, "") : complete_graph(3, "");
            const auto id = make_global_ids(g);
            const ReducedGraph s1 = apply_reduction(
                CookLevinReduction(paper_formulas::k_colorable(2)), g, id);
            const ReducedGraph s2 = apply_reduction(SatGraphTo3Sat{}, s1.graph,
                                                    make_global_ids(s1.graph));
            const ReducedGraph s3 = apply_reduction(
                ThreeSatTo3Colorable{}, s2.graph, make_global_ids(s2.graph));
            const bool sat1 = is_sat_graph(BooleanGraph::decode(s1.graph));
            const BooleanGraph bg3 = BooleanGraph::decode(s2.graph);
            const auto vals = find_graph_valuation(bg3);
            bool col3 = false;
            if (vals.has_value()) {
                const auto coloring = construct_gadget_coloring(s3, bg3, *vals);
                col3 = coloring.has_value();
            }
            ++checked;
            correct += (sat1 == yes) && (vals.has_value() == yes) && (col3 == yes);
        }
        sink(correct);
    }
    state.counters["instances"] = static_cast<double>(checked);
    state.counters["faithful"] = static_cast<double>(correct);
    report::note("BM_FullPipelineFaithfulness", "faithful", correct == checked,
                 std::to_string(correct) + "/" + std::to_string(checked));
}
BENCHMARK(BM_FullPipelineFaithfulness);

void BM_EngineSpeedup_CookLevinSource(benchmark::State& state) {
    // The pipeline's source sentence is k_colorable(2); this times the game
    // engine deciding that property directly: the Sigma_1 coloring game on an
    // odd cycle (a no-instance, so the engine exhausts the full certificate
    // space).  Parallel+memoized engine vs the sequential reference.
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
    record_engine_speedup("BM_EngineSpeedup_CookLevinSource",
                          "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_EngineSpeedup_CookLevinSource)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_CompiledSpeedup_CookLevinSource(benchmark::State& state) {
    // Same exhaustive no-instance as the engine-speedup row, but comparing
    // evaluation backends at equal thread count: interpreted leaves vs the
    // compiled decision tables' packed 64-wide scan.
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
    record_compiled_speedup("BM_CompiledSpeedup_CookLevinSource",
                            "odd_cycle_n=" + std::to_string(n), spec, g, id);
}
BENCHMARK(BM_CompiledSpeedup_CookLevinSource)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

} // namespace
