#pragma once

#include "dtm/local.hpp"
#include "obs/metrics.hpp"

#include <memory>
#include <optional>

namespace lph {

class ViewCache;
class CompiledGameCore;

namespace obs {
class Session;
}

/// A per-node enumerable space of certificates for one quantifier layer.
///
/// The paper quantifies over all (r,p)-bounded bit strings; the game engine
/// instead enumerates *structured* domains — exactly the certificate shapes
/// the paper's proofs use (a color, a parent pointer, a relation slice...) —
/// as recorded in DESIGN.md (substitution 2).  RawBitStringDomain recovers
/// the unstructured case for small p.
class CertificateDomain {
public:
    virtual ~CertificateDomain() = default;
    virtual std::vector<BitString> options(const LabeledGraph& g,
                                           const IdentifierAssignment& id,
                                           NodeId u) const = 0;
};

/// The same fixed option list at every node (e.g. the k colors).
class FixedOptionsDomain : public CertificateDomain {
public:
    explicit FixedOptionsDomain(std::vector<BitString> options)
        : options_(std::move(options)) {}
    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment&,
                                   NodeId) const override {
        return options_;
    }

private:
    std::vector<BitString> options_;
};

/// Every bit string of length <= max_length — the paper's raw certificate
/// space for a constant bound (2^(L+1)-1 options; keep L tiny).
class RawBitStringDomain : public CertificateDomain {
public:
    explicit RawBitStringDomain(std::size_t max_length);
    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment&,
                                   NodeId) const override {
        return options_;
    }

private:
    std::vector<BitString> options_;
};

/// The alternation game of Section 4: layers of certificate assignments
/// chosen alternately by Eve (existential) and Adam (universal), arbitrated
/// by a local machine.
struct GameSpec {
    const LocalMachine* machine = nullptr;
    std::vector<const CertificateDomain*> layers;
    /// True for Sigma-side games (Eve moves first), false for Pi-side.
    bool starts_existential = true;
};

/// Which leaf-evaluation core play_game uses.  Both produce bit-identical
/// GameResults apart from stats: a node's verdict depends only on its
/// radius-R view, which the view cache and the per-ball store both key on.
enum class GameBackend {
    /// Per-leaf whole-graph machine interpretation (with the view cache) —
    /// the reference path of the differential checks.
    Interpreted,
    /// The lazily filled per-ball store (CompiledGameCore): a leaf reads
    /// each node's verdict from its view class's table, fills what is
    /// missing from the view cache, induced-ball runs or one full-graph run,
    /// and fully known words are answered 64 leaves at a time.  Contexts the
    /// view cache refuses (fault plans, byte caps, non-locally-unique ids)
    /// and leaf-only games run Interpreted.
    Compiled,
};

/// Per-layer, per-node certificate option tables, built once per
/// (spec, graph, identifiers) and shared between play_game and
/// game_tree_size so callers stop paying the domain enumeration twice.
class GameTables {
public:
    GameTables(const GameSpec& spec, const LabeledGraph& g,
               const IdentifierAssignment& id);

    std::size_t layers() const { return tables_.size(); }
    const std::vector<std::vector<BitString>>& layer(std::size_t i) const {
        return tables_.at(i);
    }

    /// Product of per-node option counts for one layer (saturating).
    std::uint64_t layer_product(std::size_t i) const;

    /// Number of leaf evaluations an exhaustive game would need (saturating).
    std::uint64_t tree_size() const;

    /// The per-ball store for this context, classified on first use and
    /// cached on the tables (the per-batch-flavor home: BatchContext shares
    /// one GameTables across a micro-batch, so the whole batch fills one
    /// store).  Returns nullptr when the context is not memoizable (see
    /// CompiledGameCore::compile).  A later call with execution options whose
    /// verdict-relevant fields differ reclassifies; when `built_now_ms` is
    /// non-null it receives the compile time this call paid (0 on reuse).
    /// Thread-safe.
    const CompiledGameCore* compiled(const GameSpec& spec, const LabeledGraph& g,
                                     const IdentifierAssignment& id,
                                     const ExecutionOptions& exec,
                                     double* built_now_ms = nullptr) const;

private:
    struct CompiledSlot; // defined in game.cpp (holds the slot mutex)

    std::vector<std::vector<std::vector<BitString>>> tables_;
    std::shared_ptr<CompiledSlot> slot_;
};

struct GameOptions {
    /// Guard on the product of per-node option counts for one layer.
    std::uint64_t max_assignments_per_layer = 50'000'000;
    ExecutionOptions exec;

    /// When true, a leaf probe whose run faults (a bound violation, an
    /// injected fault escalating to an abort, a malformed certificate) is
    /// scored as a loss for Eve and recorded on the GameResult, instead of
    /// aborting the whole game.  The paper's arbiter must *accept* for Eve
    /// to win, so a machine that cannot finish cleanly cannot witness
    /// acceptance.
    bool tolerate_faults = false;

    /// Worker threads fanning out the outermost quantifier layer: 1 forces
    /// the fully sequential reference path, 0 uses one worker per hardware
    /// thread.  Both paths produce bit-identical GameResults (verdict,
    /// counters, fault records, witness); only GameResult::stats differs.
    unsigned threads = 0;

    /// Memoize per-node verdicts keyed by canonical r-ball views (sound for
    /// the paper's deterministic machines; see DESIGN.md): the view cache
    /// and, under the Compiled backend, the per-ball store.  False turns
    /// every memo off.  The memos never change verdicts or the deterministic
    /// counters, only the perf stats.  Automatically disabled when the
    /// execution options carry run-global couplings (fault plans, byte caps).
    bool memoize_views = true;

    /// Optional shared cache (e.g. across instances of the same machine);
    /// nullptr gives the game a private cache of view_cache_entries.
    ViewCache* view_cache = nullptr;
    std::size_t view_cache_entries = 1 << 20;

    /// Leaf-evaluation core.  Interpreted is the reference the
    /// differential checks compare against.
    GameBackend backend = GameBackend::Compiled;

    /// Optional observability session: when set, the solve accumulates its
    /// GameStats into the session's MetricsRegistry under the `game.` naming
    /// scheme (DESIGN.md Observability).  Span tracing is independent of
    /// this — spans go to the ambient obs::Tracer whenever it is enabled.
    obs::Session* obs = nullptr;
};

/// Perf counters of one play_game call.  Unlike the GameResult counters
/// these describe the *actual* work done — including leaves evaluated
/// speculatively by workers past the deciding assignment — so they are not
/// deterministic across thread counts or cache settings.
struct GameStats {
    std::uint64_t leaves_processed = 0; ///< leaf probes actually performed
    std::uint64_t local_runs = 0;       ///< full-graph run_local invocations
    std::uint64_t leaf_cache_hits = 0;  ///< leaves served fully from the memos
    std::uint64_t node_cache_hits = 0;
    std::uint64_t node_cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    double wall_ms = 0;     ///< wall-clock of the whole solve, compile included
    double busy_ms = 0;     ///< summed per-worker processing time
    unsigned workers = 1;   ///< participants in the fan-out
    std::uint64_t chunks = 1;

    // Compiled-backend counters (all zero on the interpreted path).
    double compile_ms = 0;  ///< store classification paid by THIS solve (0 on reuse)
    std::uint64_t orbit_hits = 0; ///< nodes served by another node's class table
    std::uint64_t compiled_classes = 0;
    /// 64-leaf pattern words ANDed during packed evaluation (per node, per
    /// word — the packed path's unit of work).
    std::uint64_t packed_words_evaluated = 0;
    /// Leaves completed by induced-ball runs of their missing nodes, without
    /// a full-graph run: leaves_processed = leaf_cache_hits + local_runs +
    /// partial_leaf_evals.
    std::uint64_t partial_leaf_evals = 0;
    std::uint64_t ball_runs = 0; ///< induced-ball run_local calls

    double leaves_per_sec() const {
        return wall_ms > 0 ? 1000.0 * static_cast<double>(leaves_processed) / wall_ms
                           : 0.0;
    }
    double cache_hit_rate() const {
        const double total =
            static_cast<double>(node_cache_hits + node_cache_misses);
        return total > 0 ? static_cast<double>(node_cache_hits) / total : 0.0;
    }
    double worker_utilization() const {
        return wall_ms > 0 && workers > 0
                   ? busy_ms / (wall_ms * static_cast<double>(workers))
                   : 0.0;
    }

    /// Metric list in the BENCH report vocabulary (leaves, leaves_per_sec,
    /// cache_hit_rate, ...), the names the committed baselines already use.
    /// bench_report.hpp absorbs this into a registry instead of hand-copying
    /// the fields.
    obs::MetricList to_metrics() const;
};

struct GameResult {
    bool accepted = false;           ///< Eve has a winning strategy
    std::uint64_t machine_runs = 0;  ///< leaves evaluated (in sequential order)
    std::uint64_t faulted_runs = 0;  ///< leaves scored as losses due to faults
    /// First few faults from faulted leaves (bounded sample for reporting),
    /// in deterministic leaf order.
    std::vector<RunFault> probe_faults;
    /// When the outermost layer is existential and Eve wins, her winning
    /// outermost assignment (any alternation depth; for Sigma_1 games this
    /// is the accepting certificate assignment).  Unset for Pi-side games.
    std::optional<CertificateAssignment> witness;
    /// Perf counters (excluded from the determinism guarantee).
    GameStats stats;
};

/// Solves the game exactly by enumeration with early exit.  The outermost
/// quantifier layer is fanned out across a work-stealing thread pool
/// (GameOptions::threads) with deterministic merging: the parallel and
/// sequential paths return bit-identical results apart from stats.
GameResult play_game(const GameSpec& spec, const LabeledGraph& g,
                     const IdentifierAssignment& id, const GameOptions& options = {});

/// Same, with prebuilt option tables (see GameTables).
GameResult play_game(const GameSpec& spec, const GameTables& tables,
                     const LabeledGraph& g, const IdentifierAssignment& id,
                     const GameOptions& options = {});

/// Convenience for NLP (Sigma_1): searches for a certificate assignment the
/// verifier accepts.
std::optional<CertificateAssignment>
find_accepting_certificate(const LocalMachine& verifier, const CertificateDomain& domain,
                           const LabeledGraph& g, const IdentifierAssignment& id,
                           const GameOptions& options = {});

/// Number of leaf evaluations an exhaustive game would need (saturating).
std::uint64_t game_tree_size(const GameSpec& spec, const LabeledGraph& g,
                             const IdentifierAssignment& id);

/// Same, from prebuilt tables (no re-enumeration of the domains).
std::uint64_t game_tree_size(const GameTables& tables);

} // namespace lph
