// The locality-aware view cache: LRU mechanics and counters, the soundness
// gates of ViewKeyBuilder, and — the part that must never regress — verdict
// agreement between cache-on and cache-off runs on adversarial instances
// built to maximize view collisions (repeated identifiers inside one graph,
// one cache shared across different graphs) — plus the ball rule every
// per-view verdict rests on.

#include "dtm/faults.hpp"
#include "dtm/view_cache.hpp"
#include "graph/generators.hpp"
#include "graphalg/coloring.hpp"
#include "hierarchy/game.hpp"
#include "machines/deciders.hpp"
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

GameSpec coloring_spec(const ColoringVerifier& verifier,
                       const CertificateDomain& domain) {
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    spec.starts_existential = true;
    return spec;
}

// ---------------------------------------------------------------------------
// ViewCache mechanics.
// ---------------------------------------------------------------------------

TEST(ViewCache, HitMissAndRefresh) {
    ViewCache cache(1024);
    EXPECT_FALSE(cache.lookup("a").has_value());
    cache.insert("a", "1");
    cache.insert("b", "0");
    EXPECT_EQ(cache.lookup("a"), "1");
    EXPECT_EQ(cache.lookup("b"), "0");
    cache.insert("a", "1"); // same-verdict refresh is the expected pattern
    EXPECT_EQ(cache.lookup("a"), "1");
    const ViewCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.verdict_mismatches, 0u);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ViewCache, MismatchedReinsertIsCountedNotMasked) {
#ifndef NDEBUG
    GTEST_SKIP() << "debug builds assert on verdict mismatches instead";
#else
    // Equal keys must imply equal verdicts; a conflicting re-insert is a
    // soundness violation that used to be silently overwritten.  It must be
    // counted and must not change the stored verdict.
    ViewCache cache(1024);
    cache.insert("k", "1");
    cache.insert("k", "0");
    EXPECT_EQ(cache.lookup("k"), "1");
    EXPECT_EQ(cache.stats().verdict_mismatches, 1u);
    cache.insert("k", "1"); // agreeing refresh is not a mismatch
    EXPECT_EQ(cache.stats().verdict_mismatches, 1u);
#endif
}

TEST(ViewCache, BoundedLruEvictsTheColdTail) {
    // Capacity below the shard count clamps every shard to one entry, so a
    // second distinct key landing in the same shard must evict the first.
    ViewCache cache(1);
    for (int i = 0; i < 64; ++i) {
        cache.insert("key" + std::to_string(i), "1");
    }
    const ViewCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 16u); // at most one per shard
    EXPECT_EQ(stats.entries + stats.evictions, 64u);
}

TEST(ViewCache, LruKeepsRecentlyUsedEntries) {
    ViewCache cache(16); // one entry per shard
    cache.insert("hot", "1");
    // Touch "hot" between inserts; same-shard colliders evict each other,
    // but an entry refreshed by lookup must survive its own shard's churn
    // when nothing else maps there.
    EXPECT_EQ(cache.lookup("hot"), "1");
    cache.insert("hot", "1");
    EXPECT_EQ(cache.lookup("hot"), "1");
}

TEST(ViewCache, RestoreCountsAdmittedEntriesOnly) {
    // Regression: restore() used to count every insertion, including entries
    // its own later insertions evicted again — a warm start into a shrunken
    // cache reported more admissions than entries actually live.  The
    // invariant: starting empty, admitted == entries retrievable afterwards.
    ViewCache cache(1); // clamps every shard to one entry
    std::vector<std::pair<std::string, std::string>> snapshot;
    for (int i = 0; i < 64; ++i) {
        snapshot.emplace_back("key" + std::to_string(i), "1");
    }
    const std::size_t admitted = cache.restore(snapshot);
    std::size_t live = 0;
    for (const auto& [key, verdict] : snapshot) {
        live += cache.lookup(key).has_value() ? 1 : 0;
    }
    EXPECT_EQ(admitted, live);
    EXPECT_EQ(admitted, cache.stats().entries);
    EXPECT_LE(admitted, 16u); // one per shard

    // Displacing a PRE-existing tail still counts: the snapshot entry was
    // admitted, the victim just wasn't from this call.
    ViewCache mixed(1);
    for (int i = 0; i < 32; ++i) {
        mixed.insert("pre" + std::to_string(i), "1");
    }
    std::vector<std::pair<std::string, std::string>> fresh;
    for (int i = 0; i < 32; ++i) {
        fresh.emplace_back("snap" + std::to_string(i), "0");
    }
    const std::size_t mixed_admitted = mixed.restore(fresh);
    std::size_t fresh_live = 0;
    for (const auto& [key, verdict] : fresh) {
        fresh_live += mixed.lookup(key).has_value() ? 1 : 0;
    }
    EXPECT_EQ(mixed_admitted, fresh_live);
    EXPECT_GT(mixed_admitted, 0u);
}

TEST(ViewCache, RestoreKeepsLiveVerdictOnConflict) {
    // A snapshot key that already exists is not an admission, and a
    // conflicting snapshot verdict must not overwrite live soundness data.
    ViewCache cache(1024);
    cache.insert("k", "1");
    EXPECT_EQ(cache.restore({{"k", "0"}}), 0u);
    EXPECT_EQ(cache.lookup("k"), "1");
    EXPECT_EQ(cache.stats().verdict_mismatches, 1u);
    EXPECT_EQ(cache.restore({{"k", "1"}}), 0u); // agreeing replay, no mismatch
    EXPECT_EQ(cache.stats().verdict_mismatches, 1u);
}

// ---------------------------------------------------------------------------
// bounded_distances (the serving layer's dirty-ball primitive).
// ---------------------------------------------------------------------------

TEST(BoundedDistances, MatchesFullBfsInsideTheBallAndCutsOffOutside) {
    const LabeledGraph g = cycle_graph(9, "1");
    const std::vector<int> full = g.distances_from(0);
    const std::vector<int> bounded = bounded_distances(g, 0, 2);
    ASSERT_EQ(bounded.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (full[v] <= 2) {
            EXPECT_EQ(bounded[v], full[v]) << "node " << v;
        } else {
            EXPECT_EQ(bounded[v], -1) << "node " << v;
        }
    }
    const std::vector<int> self_only = bounded_distances(g, 4, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(self_only[v], v == 4 ? 0 : -1);
    }
}

// ---------------------------------------------------------------------------
// The ball rule: view_radius, induced_ball, clean_ball_output.
// ---------------------------------------------------------------------------

/// The ball's slice of a full-graph certificate list assignment.
CertificateListAssignment ball_certs(const InducedBall& ball,
                                     const CertificateListAssignment& certs) {
    std::vector<std::string> lists(ball.sub.graph.num_nodes());
    for (NodeId s = 0; s < lists.size(); ++s) {
        lists[s] = certs.at(ball.sub.to_original[s]);
    }
    return CertificateListAssignment::from_raw(std::move(lists), certs.layers());
}

void expect_balls_match_full_run(const LocalMachine& machine,
                                 const LabeledGraph& g,
                                 const CertificateListAssignment& certs,
                                 const std::string& what) {
    const auto id = make_global_ids(g);
    const ExecutionOptions exec;
    const ExecutionResult full = run_local(machine, g, id, certs, exec);
    ASSERT_TRUE(full.ok() && full.completed) << what;
    const int radius = view_radius(machine, exec);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const InducedBall ball = induced_ball(g, id, u, radius);
        EXPECT_EQ(ball.sub.to_original.at(ball.center), u) << what;
        const auto output =
            clean_ball_output(machine, ball, ball_certs(ball, certs), exec);
        ASSERT_TRUE(output.has_value()) << what << " node " << u;
        EXPECT_EQ(*output, full.outputs[u]) << what << " node " << u;
    }
}

TEST(BallRule, CleanBallOutputEqualsTheFullRunAtEveryNode) {
    Rng rng(11);
    const std::vector<std::pair<std::string, LabeledGraph>> graphs = {
        {"cycle", cycle_graph(9, "1")},
        {"wheel", wheel_graph(7, "1")},
        {"random", random_connected_graph(12, 5, rng, "1")},
    };
    const EulerianDecider eulerian;
    const ColoringVerifier coloring(3);
    for (const auto& [name, g] : graphs) {
        expect_balls_match_full_run(
            eulerian, g, CertificateListAssignment::empty(g.num_nodes()),
            name + " eulerian");
        // Random colors: a mix of accepting and rejecting nodes.
        std::vector<BitString> colors(g.num_nodes());
        for (BitString& c : colors) {
            c = coloring.encode_color(static_cast<int>(rng.index(3)));
        }
        expect_balls_match_full_run(
            coloring, g,
            CertificateListAssignment::concatenate(
                {CertificateAssignment(colors)}, g.num_nodes()),
            name + " 3-coloring");
    }
}

TEST(BallRule, MalformedCertificateMakesTheBallUnclean) {
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier coloring(3);
    ExecutionOptions exec;
    exec.validate_certificates = true;
    const InducedBall ball =
        induced_ball(g, id, 0, view_radius(coloring, exec));
    std::vector<std::string> lists(ball.sub.graph.num_nodes(),
                                   coloring.encode_color(0));
    lists[ball.center] = "2"; // a byte outside {0,1,#}
    EXPECT_FALSE(clean_ball_output(
                     coloring, ball,
                     CertificateListAssignment::from_raw(std::move(lists), 1),
                     exec)
                     .has_value());
}

TEST(BallRule, ViewRadiusIsTheKeyBuilderRadius) {
    const LabeledGraph g = cycle_graph(8, "1");
    const auto id = make_global_ids(g);
    const EulerianDecider eulerian;
    const ColoringVerifier coloring(2);
    ExecutionOptions loose;
    loose.enforce_declared_bounds = false;
    loose.max_rounds = 5;
    for (const ExecutionOptions& exec : {ExecutionOptions{}, loose}) {
        for (const LocalMachine* machine :
             {static_cast<const LocalMachine*>(&eulerian),
              static_cast<const LocalMachine*>(&coloring)}) {
            EXPECT_EQ(view_radius(*machine, exec),
                      ViewKeyBuilder(*machine, g, id, exec).radius());
        }
    }
}

// ---------------------------------------------------------------------------
// ViewKeyBuilder gates and radius.
// ---------------------------------------------------------------------------

TEST(ViewKeyBuilder, GatesOffRunGlobalCouplings) {
    const LabeledGraph g = cycle_graph(8, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);

    ExecutionOptions clean;
    EXPECT_TRUE(ViewKeyBuilder(verifier, g, id, clean).cacheable());

    FaultPlan plan;
    plan.seed = 1;
    plan.drop_prob = 0.5;
    ExecutionOptions with_faults;
    with_faults.faults = &plan;
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, id, with_faults).cacheable());

    // A deadline can only abort a run, and aborted runs are never cached.
    ExecutionOptions with_deadline;
    with_deadline.deadline_ms = 1000;
    EXPECT_TRUE(ViewKeyBuilder(verifier, g, id, with_deadline).cacheable());

    ExecutionOptions with_byte_cap;
    with_byte_cap.max_total_message_bytes = 1 << 20;
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, id, with_byte_cap).cacheable());

    // Clashing identifiers: every run fatals before round 1; nothing clean
    // can ever be cached.
    const auto clashed = clash_identifiers(g, id, verifier.id_radius(), 7, 1.0);
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, clashed, clean).cacheable());
}

TEST(ViewKeyBuilder, RadiusIsTheCleanRunHorizon) {
    const LabeledGraph g = cycle_graph(8, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2); // round_bound = 3

    ExecutionOptions enforced;
    EXPECT_EQ(ViewKeyBuilder(verifier, g, id, enforced).radius(), 3);

    ExecutionOptions loose;
    loose.enforce_declared_bounds = false;
    loose.max_rounds = 5;
    EXPECT_EQ(ViewKeyBuilder(verifier, g, id, loose).radius(), 5);
}

TEST(ViewKeyBuilder, KeysSeparateDifferentViews) {
    // Distinct certificates inside the ball, distinct labels, and distinct
    // boundary identifiers must all separate keys.
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ViewKeyBuilder keys(verifier, g, id, ExecutionOptions{});
    ASSERT_TRUE(keys.cacheable());

    const auto all_zero = CertificateListAssignment::concatenate(
        {CertificateAssignment(std::vector<BitString>(9, "0"))}, 9);
    std::vector<BitString> one_flip(9, "0");
    one_flip[1] = "1"; // inside node 0's radius-2 interior
    const auto flipped = CertificateListAssignment::concatenate(
        {CertificateAssignment(one_flip)}, 9);

    std::string a;
    std::string b;
    keys.key_for(0, all_zero, a);
    keys.key_for(0, flipped, b);
    EXPECT_NE(a, b);

    // A certificate change outside the interior leaves the key unchanged.
    std::vector<BitString> far_flip(9, "0");
    far_flip[4] = "1"; // distance 4 > R-1 = 2 from node 0
    const auto far = CertificateListAssignment::concatenate(
        {CertificateAssignment(far_flip)}, 9);
    keys.key_for(0, far, b);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Cache soundness on adversarial view-collision instances.
// ---------------------------------------------------------------------------

void expect_cache_agrees(const GameSpec& spec, const LabeledGraph& g,
                         const IdentifierAssignment& id, const std::string& what) {
    GameOptions off;
    off.threads = 1;
    off.memoize_views = false;
    GameOptions on;
    on.threads = 1;
    on.memoize_views = true;
    const GameResult without = play_game(spec, g, id, off);
    const GameResult with = play_game(spec, g, id, on);
    EXPECT_EQ(without.accepted, with.accepted) << what;
    EXPECT_EQ(without.machine_runs, with.machine_runs) << what;
    EXPECT_EQ(without.faulted_runs, with.faulted_runs) << what;
    EXPECT_EQ(without.witness.has_value(), with.witness.has_value()) << what;
    if (without.witness && with.witness) {
        EXPECT_TRUE(*without.witness == *with.witness) << what;
    }
}

TEST(CacheSoundness, PeriodicIdentifiersCollideViewsWithinOneGraph) {
    // C_14 with period-7 cyclic identifiers: node u and node u+7 have
    // *identical* static views (distances, ids, labels, degrees, edges), the
    // maximal collision the key's soundness argument allows.  The verdicts
    // must still match the cache-off engine on both the yes- and a no-side.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    ASSERT_EQ(verifier.id_radius(), 3);

    const LabeledGraph even = cycle_graph(14, "1");
    const auto even_ids = make_cyclic_ids(even, 7); // locally unique: 7 >= 2*3+1
    ASSERT_TRUE(even_ids.is_locally_unique(even, verifier.id_radius()));
    expect_cache_agrees(coloring_spec(verifier, domain), even, even_ids,
                        "C14 period 7");

    // The odd (no-instance, full-exhaustion) side with cyclic identifiers.
    const LabeledGraph odd = cycle_graph(9, "1");
    const auto odd_ids = make_cyclic_ids(odd, 9);
    expect_cache_agrees(coloring_spec(verifier, domain), odd, odd_ids,
                        "C9 cyclic ids");
}

TEST(CacheSoundness, SharedCacheAcrossInstancesReusesAndStaysSound) {
    // One external cache shared across different graphs whose local windows
    // coincide: away from the wrap-around, C_14's windows repeat C_13's
    // (same 4-bit global ids, labels, degrees), so the second game re-hits
    // entries the first inserted — and must still produce the exact
    // cache-off verdicts (C_13 odd: reject; C_14: accept).
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    ViewCache shared(1 << 20);

    const LabeledGraph odd = cycle_graph(13, "1");
    const auto odd_id = make_global_ids(odd);
    const LabeledGraph even = cycle_graph(14, "1");
    const auto even_id = make_global_ids(even);

    GameOptions with_shared;
    with_shared.view_cache = &shared;
    const GameResult first = play_game(coloring_spec(verifier, domain), odd,
                                       odd_id, with_shared);
    EXPECT_FALSE(first.accepted);
    EXPECT_EQ(first.machine_runs, std::uint64_t{1} << 13);

    const GameResult second = play_game(coloring_spec(verifier, domain), even,
                                        even_id, with_shared);
    EXPECT_TRUE(second.accepted);
    EXPECT_TRUE(second.witness.has_value());
    EXPECT_GT(second.stats.node_cache_hits, 0u) << "no cross-instance reuse";

    // Agreement with the cache-off engine on the shared-cache instances.
    GameOptions off;
    off.memoize_views = false;
    const GameResult even_off =
        play_game(coloring_spec(verifier, domain), even, even_id, off);
    EXPECT_EQ(second.accepted, even_off.accepted);
    EXPECT_EQ(second.machine_runs, even_off.machine_runs);
    EXPECT_TRUE(second.witness.has_value() && even_off.witness.has_value() &&
                *second.witness == *even_off.witness);
}

TEST(CacheSoundness, ResolveUnderADeadlineHitsTheSharedCache) {
    // Clean completed runs under a deadline are as cacheable as without
    // one: a re-solve under a generous deadline is served from the views
    // the first solve inserted, with the cache-off verdict and counters.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    ViewCache shared(1 << 20);

    GameOptions deadline;
    deadline.view_cache = &shared;
    deadline.exec.deadline_ms = 60000;
    const GameResult first =
        play_game(coloring_spec(verifier, domain), g, id, deadline);
    EXPECT_GT(first.stats.node_cache_misses, 0u);
    const GameResult again =
        play_game(coloring_spec(verifier, domain), g, id, deadline);
    EXPECT_GT(again.stats.node_cache_hits, 0u);

    GameOptions off;
    off.memoize_views = false;
    const GameResult reference =
        play_game(coloring_spec(verifier, domain), g, id, off);
    EXPECT_EQ(again.accepted, reference.accepted);
    EXPECT_EQ(again.machine_runs, reference.machine_runs);
}

TEST(CacheSoundness, TinyCacheThrashesButStaysCorrect) {
    // An adversarially small cache forces constant eviction; correctness
    // must not depend on residency.  The interpreted path memoizes in the
    // private cache alone (the default store keeps it for table-less
    // classes only).
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);

    GameOptions tiny;
    tiny.view_cache_entries = 1; // one entry per shard
    tiny.backend = GameBackend::Interpreted;
    GameOptions off;
    off.memoize_views = false;
    const GameResult thrashed =
        play_game(coloring_spec(verifier, domain), g, id, tiny);
    const GameResult reference =
        play_game(coloring_spec(verifier, domain), g, id, off);
    EXPECT_EQ(thrashed.accepted, reference.accepted);
    EXPECT_EQ(thrashed.machine_runs, reference.machine_runs);
    EXPECT_GT(thrashed.stats.cache_evictions, 0u);
}

// ---------------------------------------------------------------------------
// GameTables sharing (the game_tree_size / play_game double-build fix).
// ---------------------------------------------------------------------------

TEST(GameTables, SharedTablesMatchTheConvenienceEntryPoints) {
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const LabeledGraph g = cycle_graph(6, "1");
    const auto id = make_global_ids(g);
    const GameSpec spec = coloring_spec(verifier, domain);

    const GameTables tables(spec, g, id);
    EXPECT_EQ(tables.layers(), 1u);
    EXPECT_EQ(tables.layer_product(0), std::uint64_t{1} << 6);
    EXPECT_EQ(game_tree_size(tables), game_tree_size(spec, g, id));

    const GameResult via_tables = play_game(spec, tables, g, id);
    const GameResult direct = play_game(spec, g, id);
    EXPECT_EQ(via_tables.accepted, direct.accepted);
    EXPECT_EQ(via_tables.machine_runs, direct.machine_runs);
}

TEST(GameTables, EmptyDomainIsRejectedAtBuildTime) {
    class EmptyDomain : public CertificateDomain {
    public:
        std::vector<BitString> options(const LabeledGraph&,
                                       const IdentifierAssignment&,
                                       NodeId) const override {
            return {};
        }
    };
    const ColoringVerifier verifier(2);
    const EmptyDomain domain;
    const LabeledGraph g = path_graph(2, "1");
    const auto id = make_global_ids(g);
    const GameSpec spec = coloring_spec(verifier, domain);
    EXPECT_THROW(GameTables(spec, g, id), precondition_error);
}

} // namespace
} // namespace lph
