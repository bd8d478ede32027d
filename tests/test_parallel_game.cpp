// Parallel-vs-sequential equivalence of the certificate-game engine: the
// fanned-out, memoized solver must return bit-identical GameResults (verdict,
// deterministic counters, fault records, witness) to the 1-thread,
// cache-off reference path, on clean games, faulting games, and games that
// abort.  Only GameResult::stats may differ.

#include "dtm/faults.hpp"
#include "graph/generators.hpp"
#include "graphalg/coloring.hpp"
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

/// The engine configurations under test.  threads=1 + memoize off is the
/// sequential reference; everything else must match it exactly.
std::vector<GameOptions> engine_matrix(const GameOptions& base) {
    std::vector<GameOptions> matrix;
    for (const unsigned threads : {1u, 4u}) {
        for (const bool memoize : {false, true}) {
            GameOptions options = base;
            options.threads = threads;
            options.memoize_views = memoize;
            matrix.push_back(options);
        }
    }
    return matrix;
}

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

void expect_matrix_identical(const GameSpec& spec, const LabeledGraph& g,
                             const IdentifierAssignment& id,
                             const GameOptions& base, const std::string& what) {
    GameOptions reference_options = base;
    reference_options.threads = 1;
    reference_options.memoize_views = false;
    const GameResult reference = play_game(spec, g, id, reference_options);
    for (const GameOptions& options : engine_matrix(base)) {
        const GameResult result = play_game(spec, g, id, options);
        expect_identical(reference, result,
                         what + " threads=" + std::to_string(options.threads) +
                             " memoize=" + std::to_string(options.memoize_views));
    }
}

class SeqParSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeqParSeeds, RandomColoringGamesAgree) {
    Rng rng(GetParam() + 101);
    const LabeledGraph g =
        random_connected_graph(3 + rng.index(5), rng.index(5), rng, "1");
    const auto id = make_global_ids(g);
    for (int k = 2; k <= 3; ++k) {
        const ColoringVerifier verifier(k);
        const ColorDomain domain(verifier);
        GameSpec spec;
        spec.machine = &verifier;
        spec.layers = {&domain};
        spec.starts_existential = true;
        expect_matrix_identical(spec, g, id, GameOptions{},
                                "k=" + std::to_string(k) + " seed=" +
                                    std::to_string(GetParam()));
        // The verdict itself stays correct.
        GameOptions parallel;
        parallel.threads = 4;
        EXPECT_EQ(play_game(spec, g, id, parallel).accepted,
                  is_k_colorable(g, k));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqParSeeds, ::testing::Range(0u, 8u));

TEST(ParallelGame, ExhaustiveNoInstanceAgrees) {
    // A no-instance forces full exhaustion in every configuration, so all
    // counters cover the complete assignment space.
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    expect_matrix_identical(spec, g, id, GameOptions{}, "odd cycle");
    GameOptions parallel;
    parallel.threads = 4;
    const GameResult result = play_game(spec, g, id, parallel);
    EXPECT_FALSE(result.accepted);
    EXPECT_EQ(result.machine_runs, std::uint64_t{1} << 9);
}

TEST(ParallelGame, ToleratedFaultGamesAgree) {
    // Faulting probes (step-bound blowups under tolerate_faults) must be
    // tallied and sampled identically by every engine configuration.
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    GameOptions base;
    base.tolerate_faults = true;
    expect_matrix_identical(spec, g, id, base, "fussy");
    GameOptions parallel = base;
    parallel.threads = 4;
    const GameResult result = play_game(spec, g, id, parallel);
    EXPECT_TRUE(result.accepted); // the all-"0" assignment still wins
    EXPECT_GE(result.faulted_runs, 1u);
    ASSERT_FALSE(result.probe_faults.empty());
    EXPECT_EQ(result.probe_faults.front().code, RunError::StepBoundViolated);
}

TEST(ParallelGame, AbortingGamesThrowTheSameError) {
    // Without tolerate_faults the engine aborts on the first faulting probe
    // in leaf order — sequential and parallel alike (the parallel merge
    // rethrows the minimal-index exception).
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    for (const GameOptions& options : engine_matrix(GameOptions{})) {
        try {
            play_game(spec, g, id, options);
            FAIL() << "expected run_error (threads=" << options.threads << ")";
        } catch (const run_error& e) {
            EXPECT_EQ(e.code(), RunError::StepBoundViolated);
        }
    }
}

TEST(ParallelGame, InjectedFaultGamesAgree) {
    // A fault plan disables the view cache (run-global coupling) but the
    // parallel fan-out must still match the sequential reference replay.
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
    expect_matrix_identical(spec, g, id, base, "injected");
}

TEST(ParallelGame, MultiLayerGamesAgree) {
    // Sigma_2 alternation: Eve then Adam, one bit per node.
    class XorMachine : public NeighborhoodGatherMachine {
    public:
        explicit XorMachine(bool winnable)
            : NeighborhoodGatherMachine(0), winnable_(winnable) {}
        std::string decide(const NeighborhoodView& view, StepMeter&) const override {
            const auto parts = split_hash(view.certs[view.self]);
            const std::string eve = parts.size() > 0 ? parts[0] : "";
            const std::string adam = parts.size() > 1 ? parts[1] : "";
            if (winnable_) {
                return (eve == "1" || adam == "0") ? "1" : "0";
            }
            return eve == adam ? "1" : "0";
        }

    private:
        bool winnable_;
    };
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FixedOptionsDomain bits({"0", "1"});
    for (const bool winnable : {false, true}) {
        const XorMachine machine(winnable);
        GameSpec spec;
        spec.machine = &machine;
        spec.starts_existential = true;
        spec.layers = {&bits, &bits};
        expect_matrix_identical(spec, g, id, GameOptions{},
                                winnable ? "winnable" : "unwinnable");
        EXPECT_EQ(play_game(spec, g, id).accepted, winnable);
    }
}

TEST(ParallelGame, MultiLayerWitnessIsRecordedAndWins) {
    // The outermost existential assignment is recorded for deeper games too
    // (it used to be dropped for anything beyond Sigma_1): Eve's winning
    // opening must beat *every* Adam reply.
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
    const LabeledGraph g = path_graph(2, "1");
    const auto id = make_global_ids(g);
    const ImpliesMachine machine;
    const FixedOptionsDomain bits({"0", "1"});
    GameSpec spec;
    spec.machine = &machine;
    spec.starts_existential = true;
    spec.layers = {&bits, &bits};
    for (const GameOptions& options : engine_matrix(GameOptions{})) {
        const GameResult result = play_game(spec, g, id, options);
        ASSERT_TRUE(result.accepted);
        ASSERT_TRUE(result.witness.has_value());
        // Eve's only winning opening is all-"1" (any "0" loses to adam="1").
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
            EXPECT_EQ((*result.witness)(u), "1");
        }
        // Her opening beats every Adam reply.
        for (const std::string a0 : {"0", "1"}) {
            for (const std::string a1 : {"0", "1"}) {
                CertificateAssignment adam(std::vector<BitString>{a0, a1});
                const auto list = CertificateListAssignment::concatenate(
                    {*result.witness, adam}, g.num_nodes());
                EXPECT_TRUE(run_local(machine, g, id, list).accepted)
                    << a0 << "," << a1;
            }
        }
    }
}

TEST(ParallelGame, PiSideGamesHaveNoWitness) {
    // When Adam opens, a winning Eve needs a strategy, not one assignment;
    // the engine must not fabricate a witness.
    class AcceptAll : public NeighborhoodGatherMachine {
    public:
        AcceptAll() : NeighborhoodGatherMachine(0) {}
        std::string decide(const NeighborhoodView&, StepMeter&) const override {
            return "1";
        }
    };
    const LabeledGraph g = path_graph(2, "1");
    const auto id = make_global_ids(g);
    const AcceptAll machine;
    const FixedOptionsDomain bits({"0", "1"});
    GameSpec spec;
    spec.machine = &machine;
    spec.starts_existential = false;
    spec.layers = {&bits};
    for (const GameOptions& options : engine_matrix(GameOptions{})) {
        const GameResult result = play_game(spec, g, id, options);
        EXPECT_TRUE(result.accepted);
        EXPECT_FALSE(result.witness.has_value());
    }
}

TEST(ParallelGame, StatsDescribeTheWork) {
    const LabeledGraph g = cycle_graph(11, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};

    GameOptions sequential;
    sequential.threads = 1;
    sequential.memoize_views = false;
    const GameResult seq = play_game(spec, g, id, sequential);
    EXPECT_EQ(seq.stats.leaves_processed, std::uint64_t{1} << 11);
    EXPECT_EQ(seq.stats.local_runs, seq.stats.leaves_processed);
    EXPECT_EQ(seq.stats.leaf_cache_hits, 0u);
    EXPECT_EQ(seq.stats.workers, 1u);

    // The view cache's own counters: the interpreted path memoizes there
    // alone (the default store answers most probes from its tables).
    GameOptions memoized;
    memoized.threads = 4;
    memoized.memoize_views = true;
    memoized.backend = GameBackend::Interpreted;
    const GameResult par = play_game(spec, g, id, memoized);
    EXPECT_EQ(par.stats.leaves_processed,
              par.stats.leaf_cache_hits + par.stats.local_runs);
    EXPECT_GT(par.stats.leaf_cache_hits, 0u);
    EXPECT_LT(par.stats.local_runs, seq.stats.local_runs);
    EXPECT_GT(par.stats.cache_hit_rate(), 0.3);
    EXPECT_GE(par.stats.workers, 4u);
    EXPECT_GT(par.stats.chunks, 1u);
}

/// With one worker there is no speculation: GameStats must agree exactly with
/// the deterministic counters, and busy/wall stay consistent, whether the
/// solve early-exits (a yes-instance deciding on an early assignment) or
/// exhausts the space (a no-instance) — and on the layerless single-probe
/// path, which used to report busy_ms = 0.
void expect_single_thread_stats_consistent(const GameResult& result) {
    EXPECT_EQ(result.stats.leaves_processed, result.machine_runs);
    EXPECT_EQ(result.stats.workers, 1u);
    EXPECT_EQ(result.stats.chunks, 1u);
    EXPECT_GT(result.stats.busy_ms, 0.0);
    EXPECT_GT(result.stats.wall_ms, 0.0);
    // One worker's processing time fits inside the solve's wall clock (small
    // slack for the two clocks being read at slightly different points).
    EXPECT_LE(result.stats.busy_ms, result.stats.wall_ms * 1.05 + 0.5);
}

TEST(ParallelGame, SingleThreadStatsMatchDeterministicCounters) {
    const auto solve = [](const LabeledGraph& g, bool memoize) {
        const auto id = make_global_ids(g);
        const ColoringVerifier verifier(2);
        const ColorDomain domain(verifier);
        GameSpec spec;
        spec.machine = &verifier;
        spec.layers = {&domain};
        GameOptions options;
        options.threads = 1;
        options.memoize_views = memoize;
        return play_game(spec, g, id, options);
    };

    for (const bool memoize : {false, true}) {
        // Even cycle: 2-colorable, so the solve exits at the first accepting
        // assignment without touching the rest of the space.
        const GameResult early = solve(cycle_graph(8, "1"), memoize);
        EXPECT_TRUE(early.accepted);
        EXPECT_LT(early.machine_runs, std::uint64_t{1} << 8);
        expect_single_thread_stats_consistent(early);

        // Odd cycle: not 2-colorable, every assignment is probed.
        const GameResult full = solve(cycle_graph(9, "1"), memoize);
        EXPECT_FALSE(full.accepted);
        EXPECT_EQ(full.machine_runs, std::uint64_t{1} << 9);
        expect_single_thread_stats_consistent(full);
    }
}

TEST(ParallelGame, LeafOnlyGameReportsBusyTime) {
    // A spec with no quantifier layers runs the arbiter exactly once.
    class AcceptAll : public NeighborhoodGatherMachine {
    public:
        AcceptAll() : NeighborhoodGatherMachine(0) {}
        std::string decide(const NeighborhoodView&, StepMeter&) const override {
            return "1";
        }
    };
    const LabeledGraph g = path_graph(4, "1");
    const auto id = make_global_ids(g);
    const AcceptAll machine;
    GameSpec spec;
    spec.machine = &machine;
    const GameResult result = play_game(spec, g, id, GameOptions{});
    EXPECT_TRUE(result.accepted);
    EXPECT_EQ(result.machine_runs, 1u);
    expect_single_thread_stats_consistent(result);
}

} // namespace
} // namespace lph
