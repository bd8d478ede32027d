// Per-ball store equivalence and orbit accounting: the Compiled backend
// (lazily filled per-view tables + 64-wide packed evaluation + orbit
// sharing) must return bit-identical GameResults (verdict, deterministic
// counters, fault records, witness) to the interpreted reference engine, on
// clean games, faulting games, games that abort, and multi-layer alternation.
// Orbit counters must be exact: zero on asymmetric instances (globally
// unique ids make every view class a singleton), positive on symmetric
// cycles with periodic identifiers, with tree_size unchanged either way.

#include "dtm/faults.hpp"
#include "dtm/view_cache.hpp"
#include "graph/generators.hpp"
#include "graph/identifiers.hpp"
#include "graphalg/coloring.hpp"
#include "hierarchy/compiled.hpp"
#include "hierarchy/game.hpp"
#include "machines/verifiers.hpp"

#include <gtest/gtest.h>

namespace lph {
namespace {

/// The color domain matching a ColoringVerifier.
class ColorDomain : public CertificateDomain {
public:
    explicit ColorDomain(const ColoringVerifier& verifier) {
        for (int c = 0; c < verifier.k(); ++c) {
            options_.push_back(verifier.encode_color(c));
        }
    }
    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment&,
                                   NodeId) const override {
        return options_;
    }

private:
    std::vector<BitString> options_;
};

/// Verifier that violates its declared step bound whenever its certificate
/// contains a '1', and accepts iff the certificate is "0".
class FussyVerifier : public LocalMachine {
public:
    int round_bound() const override { return 1; }
    Polynomial step_bound() const override { return Polynomial::constant(64); }
    RoundOutput on_round(const RoundInput& input, std::string&,
                         StepMeter& meter) const override {
        if (input.certificates.find('1') != std::string::npos) {
            meter.charge(1'000'000); // blows the declared bound
        }
        return {{}, true, input.certificates == "0" ? "1" : "0"};
    }
};

/// Sigma_2 arbiter: Eve's bit must imply Adam's bit is harmless.
class ImpliesMachine : public NeighborhoodGatherMachine {
public:
    ImpliesMachine() : NeighborhoodGatherMachine(0) {}
    std::string decide(const NeighborhoodView& view, StepMeter&) const override {
        const auto parts = split_hash(view.certs[view.self]);
        const std::string eve = parts.size() > 0 ? parts[0] : "";
        const std::string adam = parts.size() > 1 ? parts[1] : "";
        return (eve == "1" || adam == "0") ? "1" : "0";
    }
};

void expect_identical(const GameResult& reference, const GameResult& other,
                      const std::string& what) {
    EXPECT_EQ(reference.accepted, other.accepted) << what;
    EXPECT_EQ(reference.machine_runs, other.machine_runs) << what;
    EXPECT_EQ(reference.faulted_runs, other.faulted_runs) << what;
    EXPECT_EQ(reference.witness.has_value(), other.witness.has_value()) << what;
    if (reference.witness.has_value() && other.witness.has_value()) {
        EXPECT_TRUE(*reference.witness == *other.witness) << what;
    }
    ASSERT_EQ(reference.probe_faults.size(), other.probe_faults.size()) << what;
    for (std::size_t i = 0; i < reference.probe_faults.size(); ++i) {
        EXPECT_EQ(reference.probe_faults[i].code, other.probe_faults[i].code)
            << what << " fault " << i;
        EXPECT_EQ(reference.probe_faults[i].node, other.probe_faults[i].node)
            << what << " fault " << i;
        EXPECT_EQ(reference.probe_faults[i].round, other.probe_faults[i].round)
            << what << " fault " << i;
    }
}

/// Runs the uncached interpreted sequential reference against the default
/// backend at 1 and 4 threads, each on fresh tables so both fill their own
/// store.
void expect_compiled_identical(const GameSpec& spec, const LabeledGraph& g,
                               const IdentifierAssignment& id,
                               const GameOptions& base, const std::string& what) {
    GameOptions reference_options = base;
    reference_options.threads = 1;
    reference_options.memoize_views = false;
    reference_options.backend = GameBackend::Interpreted;
    const GameResult reference = play_game(spec, g, id, reference_options);
    for (const unsigned threads : {1u, 4u}) {
        GameOptions options = base;
        options.threads = threads;
        const GameResult result = play_game(spec, g, id, options);
        expect_identical(reference, result,
                         what + " threads=" + std::to_string(threads));
        // The leaves-vs-sources identity the stats promise holds on the
        // packed path too (table-served leaves count as cache hits).
        EXPECT_EQ(result.stats.leaves_processed,
                  result.stats.leaf_cache_hits + result.stats.local_runs +
                      result.stats.partial_leaf_evals)
            << what;
    }
}

class CompiledSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompiledSeeds, RandomColoringGamesMatchInterpreted) {
    Rng rng(GetParam() + 211);
    const LabeledGraph g =
        random_connected_graph(3 + rng.index(6), rng.index(6), rng, "1");
    const auto id = make_global_ids(g);
    for (int k = 2; k <= 3; ++k) {
        const ColoringVerifier verifier(k);
        const ColorDomain domain(verifier);
        GameSpec spec;
        spec.machine = &verifier;
        spec.layers = {&domain};
        spec.starts_existential = true;
        expect_compiled_identical(spec, g, id, GameOptions{},
                                  "k=" + std::to_string(k) + " seed=" +
                                      std::to_string(GetParam()));
        GameOptions compiled;
        compiled.backend = GameBackend::Compiled;
        EXPECT_EQ(play_game(spec, g, id, compiled).accepted,
                  is_k_colorable(g, k));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledSeeds, ::testing::Range(0u, 8u));

TEST(CompiledGame, PackedBlockWiderThanAWordExhaustsExactly) {
    // 2^11 leaves >= the 64-leaf low block: a no-instance forces the packed
    // scan over the full space.  The first solve's machine runs stay within
    // the table entries; once filled (coloring runs are always clean) every
    // leaf is served from the tables.
    const LabeledGraph g = cycle_graph(11, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    expect_compiled_identical(spec, g, id, GameOptions{}, "odd cycle 11");

    const GameTables tables(spec, g, id);
    GameOptions compiled;
    compiled.threads = 1;
    const GameResult first = play_game(spec, tables, g, id, compiled);
    EXPECT_FALSE(first.accepted);
    const CompiledGameCore* core =
        tables.compiled(spec, g, id, ExecutionOptions{});
    ASSERT_NE(core, nullptr);
    EXPECT_LE(first.stats.local_runs + first.stats.ball_runs,
              core->table_entries());
    const GameResult result = play_game(spec, tables, g, id, compiled);
    EXPECT_FALSE(result.accepted);
    EXPECT_EQ(result.machine_runs, std::uint64_t{1} << 11);
    EXPECT_EQ(result.stats.leaf_cache_hits, std::uint64_t{1} << 11);
    EXPECT_EQ(result.stats.local_runs, 0u);
    EXPECT_GT(result.stats.packed_words_evaluated, 0u);
    EXPECT_GT(result.stats.compiled_classes, 0u);
}

TEST(CompiledGame, BlockNarrowerThanAWordStillMatches) {
    // 3 nodes x 2 colors = 8 leaves: the whole space fits inside one partial
    // pattern word.
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    expect_compiled_identical(spec, g, id, GameOptions{}, "path 3");
}

TEST(CompiledGame, ToleratedFaultLeavesFallBackIdentically) {
    // Faulting certificates are Unknown table entries: the packed scan must
    // fall back to the interpreter for exactly those leaves, reproducing the
    // fault tallies and samples bit for bit.
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    GameOptions base;
    base.tolerate_faults = true;
    expect_compiled_identical(spec, g, id, base, "fussy");
}

TEST(CompiledGame, AbortingGamesThrowTheSameError) {
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    for (const unsigned threads : {1u, 4u}) {
        GameOptions options;
        options.threads = threads;
        options.backend = GameBackend::Compiled;
        try {
            play_game(spec, g, id, options);
            FAIL() << "expected run_error (threads=" << threads << ")";
        } catch (const run_error& e) {
            EXPECT_EQ(e.code(), RunError::StepBoundViolated);
        }
    }
}

TEST(CompiledGame, FaultPlanDisablesCompilationButNotCorrectness) {
    // A fault plan makes node verdicts run-global, so the context is not
    // compilable; the Compiled backend must silently serve the interpreted
    // path with unchanged results.
    const LabeledGraph g = cycle_graph(6, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    FaultPlan plan;
    plan.seed = 23;
    plan.drop_prob = 0.3;
    GameOptions base;
    base.tolerate_faults = true;
    base.exec.faults = &plan;
    base.exec.on_violation = FaultPolicy::Record;
    expect_compiled_identical(spec, g, id, base, "injected");

    GameOptions compiled = base;
    compiled.backend = GameBackend::Compiled;
    const GameResult result = play_game(spec, g, id, compiled);
    EXPECT_EQ(result.stats.compiled_classes, 0u);
    EXPECT_EQ(result.stats.packed_words_evaluated, 0u);
}

TEST(CompiledGame, LazyFillPaysOnlyForVisitedEntries) {
    // 3-colouring the 6- and 7-cycles are yes-instances the solve leaves
    // early: the store fills only the entries the visited leaves need, so
    // its machine work (full-graph plus ball runs) stays below the table
    // entries an eager fill would have run.
    for (const std::size_t n : {6u, 7u}) {
        const LabeledGraph g = cycle_graph(n, "1");
        const auto id = make_global_ids(g);
        const ColoringVerifier verifier(3);
        const ColorDomain domain(verifier);
        GameSpec spec;
        spec.machine = &verifier;
        spec.layers = {&domain};
        spec.starts_existential = true;
        const std::string what = "3-colouring the " + std::to_string(n) + "-cycle";
        expect_compiled_identical(spec, g, id, GameOptions{}, what);

        const GameTables tables(spec, g, id);
        GameOptions options;
        options.threads = 1;
        const GameResult result = play_game(spec, tables, g, id, options);
        const CompiledGameCore* core =
            tables.compiled(spec, g, id, ExecutionOptions{});
        ASSERT_NE(core, nullptr) << what;
        EXPECT_TRUE(result.accepted) << what;
        EXPECT_EQ(result.stats.compiled_classes, n) << what;
        EXPECT_LT(result.stats.local_runs + result.stats.ball_runs,
                  core->table_entries())
            << what;
    }
}

TEST(CompiledGame, OverBudgetClassesMemoizeThroughTheViewCache) {
    // On an 8-node wheel every node, the hub included, lies within the
    // coloring verifier's cert radius 2 of every other: 3^8 configurations
    // per class, past the per-class table budget, so no class gets a table.
    // The odd rim makes 3-colouring a no-instance, so the reference plays
    // all 3^8 leaves, finds no witness and faults nowhere; a re-solve on the
    // same tables then serves every verdict from the shared view cache with
    // no machine run.
    const LabeledGraph g = wheel_graph(8, "1");
    const NodeId hub = 7;
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(3);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    spec.starts_existential = true;
    GameResult reference;
    reference.accepted = false;
    reference.machine_runs = 6561;

    const GameTables tables(spec, g, id);
    ViewCache shared;
    GameOptions options;
    options.view_cache = &shared;
    const GameResult first = play_game(spec, tables, g, id, options);
    const GameResult again = play_game(spec, tables, g, id, options);
    const CompiledGameCore* core =
        tables.compiled(spec, g, id, ExecutionOptions{});
    ASSERT_NE(core, nullptr);
    EXPECT_FALSE(core->classes()[core->nodes()[hub].cls].dense);
    expect_identical(reference, first, "first solve");
    expect_identical(reference, again, "re-solve");
    EXPECT_EQ(again.stats.local_runs, 0u);
    EXPECT_LT(again.stats.local_runs, again.machine_runs);
    EXPECT_GE(again.stats.node_cache_hits, again.machine_runs);
    EXPECT_EQ(shared.stats().verdict_mismatches, 0u);
}

TEST(CompiledGame, MultiLayerGamesPackTheDeepestLayer) {
    // Sigma_2: the packed scan serves the (universal) inner layer while the
    // outer layer keeps the chunked odometer; 2^8 inner leaves > one word.
    const LabeledGraph g = path_graph(8, "1");
    const auto id = make_global_ids(g);
    const ImpliesMachine machine;
    const FixedOptionsDomain bits({"0", "1"});
    GameSpec spec;
    spec.machine = &machine;
    spec.starts_existential = true;
    spec.layers = {&bits, &bits};
    expect_compiled_identical(spec, g, id, GameOptions{}, "sigma2");

    GameOptions compiled;
    compiled.backend = GameBackend::Compiled;
    const GameResult result = play_game(spec, g, id, compiled);
    EXPECT_TRUE(result.accepted);
    ASSERT_TRUE(result.witness.has_value());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        EXPECT_EQ((*result.witness)(u), "1");
    }
    EXPECT_GT(result.stats.packed_words_evaluated, 0u);
}

TEST(CompiledGame, GloballyUniqueIdsMakeEveryOrbitASingleton) {
    // Deliberate asymmetry: globally unique identifiers put every node in
    // its own view class, so orbit sharing must claim nothing.
    for (const LabeledGraph& g :
         {path_graph(7, "1"), cycle_graph(9, "1"), star_graph(6, "1")}) {
        const auto id = make_global_ids(g);
        const ColoringVerifier verifier(2);
        const ColorDomain domain(verifier);
        GameSpec spec;
        spec.machine = &verifier;
        spec.layers = {&domain};
        const GameTables tables(spec, g, id);
        const CompiledGameCore* core =
            tables.compiled(spec, g, id, ExecutionOptions{});
        ASSERT_NE(core, nullptr);
        EXPECT_EQ(core->orbit_hits(), 0u);
        EXPECT_EQ(core->classes().size(), g.num_nodes());
        EXPECT_EQ(core->tree_size(), tables.tree_size());
    }
}

TEST(CompiledGame, PeriodicIdsShareOrbitsWithExactTreeSize) {
    // A 14-cycle with period-7 identifiers is vertex-transitive up to the id
    // pattern (period 7 >= 2 * id_radius + 1 keeps the ids locally unique):
    // 7 view classes serve all 14 nodes, and the orbit-multiplied tree size
    // still equals the interpreted product.
    const LabeledGraph g = cycle_graph(14, "1");
    const auto id = make_cyclic_ids(g, 7);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    const GameTables tables(spec, g, id);
    const CompiledGameCore* core = tables.compiled(spec, g, id, ExecutionOptions{});
    ASSERT_NE(core, nullptr);
    EXPECT_EQ(core->classes().size(), 7u);
    EXPECT_EQ(core->orbit_hits(), 7u);
    EXPECT_EQ(core->tree_size(), tables.tree_size());

    // And the shared tables drive a bit-identical solve.
    expect_compiled_identical(spec, g, id, GameOptions{}, "cyclic ids");
    GameOptions compiled;
    compiled.backend = GameBackend::Compiled;
    const GameResult result = play_game(spec, tables, g, id, compiled);
    EXPECT_TRUE(result.accepted); // even cycle, 2-colorable
    EXPECT_EQ(result.stats.orbit_hits, 7u);
    EXPECT_EQ(result.stats.compiled_classes, 7u);
}

TEST(CompiledGame, TablesCacheTheStoreAcrossSolves) {
    // The first solve on a GameTables classifies and fills the store; later
    // solves reuse it, report compile_ms == 0 and run no machine.
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    const GameTables tables(spec, g, id);
    GameOptions compiled;
    compiled.threads = 1;
    compiled.backend = GameBackend::Compiled;
    const GameResult first = play_game(spec, tables, g, id, compiled);
    EXPECT_GT(first.stats.compile_ms, 0.0);
    const GameResult second = play_game(spec, tables, g, id, compiled);
    EXPECT_EQ(second.stats.compile_ms, 0.0);
    EXPECT_EQ(second.stats.local_runs + second.stats.ball_runs, 0u);
    expect_identical(first, second, "cached store");
}

TEST(CompiledGame, ColdSolveWallTimeIncludesItsCompile) {
    // wall_ms is the whole solve the caller waited for, so a solve that
    // compiles fresh tables reports at least the compile time it paid.
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    const GameTables tables(spec, g, id);
    GameOptions compiled;
    compiled.threads = 1;
    compiled.backend = GameBackend::Compiled;
    const GameResult cold = play_game(spec, tables, g, id, compiled);
    ASSERT_GT(cold.stats.compile_ms, 0.0);
    EXPECT_GE(cold.stats.wall_ms, cold.stats.compile_ms);
}

} // namespace
} // namespace lph
