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

/// Which leaf-evaluation core play_game uses.  Every backend produces
/// bit-identical GameResults apart from stats: a node's verdict depends only
/// on its radius-R view, which the view cache and the compiled class tables
/// both key on.
enum class GameBackend {
    /// Per-leaf whole-graph machine interpretation (with the view cache) —
    /// the reference path.
    Interpreted,
    /// Compiled per-view decision tables with 64-wide packed evaluation and
    /// orbit sharing, built whenever the context is compilable; otherwise
    /// (fault plans, byte caps, non-locally-unique ids, leaf-only games) the
    /// solve runs Interpreted.
    Compiled,
    /// Compiled when the profitability gate passes — the planned ball runs
    /// of the compile are at most the exhaustive leaf space — and
    /// Interpreted otherwise, so small short-circuiting solves keep the
    /// interpreter's early exits.
    Auto,
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

    /// The compiled decision-table core for this context, built on first use
    /// and cached on the tables (the per-batch-flavor home: BatchContext
    /// shares one GameTables across a micro-batch, so the whole batch pays
    /// one compilation).  Returns nullptr when the context is not compilable
    /// (see CompiledGameCore::compile).  A later call with execution options
    /// whose verdict-relevant fields differ recompiles; when `built_now_ms`
    /// is non-null it receives the compile time this call paid (0 on reuse).
    /// `profitable_only` applies the profitability gate (GameBackend::Auto;
    /// see CompiledGameCore::compile).  A declined gate is cached too, so a
    /// batch pays the decision once.  Thread-safe.
    const CompiledGameCore* compiled(const GameSpec& spec, const LabeledGraph& g,
                                     const IdentifierAssignment& id,
                                     const ExecutionOptions& exec,
                                     double* built_now_ms = nullptr,
                                     bool profitable_only = false) const;

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

    /// Memoize per-node run_local verdicts keyed by canonical r-ball views
    /// (sound for the paper's deterministic machines; see DESIGN.md).  The
    /// cache never changes verdicts or the deterministic counters, only the
    /// perf stats.  Automatically disabled when the execution options carry
    /// run-global couplings (fault plans, byte caps).
    bool memoize_views = true;

    /// Optional shared cache (e.g. across instances of the same machine);
    /// nullptr gives the game a private cache of view_cache_entries.
    ViewCache* view_cache = nullptr;
    std::size_t view_cache_entries = 1 << 20;

    /// Leaf-evaluation core.  Interpreted is the default so engine-level
    /// callers keep their exact perf-stat profile; the serving layer runs
    /// Auto, the differential checks and the benches' speedup rows Compiled.
    GameBackend backend = GameBackend::Interpreted;

    /// Partial leaf recomputation for dynamic-graph serving (DESIGN.md
    /// "Incremental serving").  When the context is cacheable, a leaf whose
    /// view-cache probe misses on some nodes re-derives just those nodes'
    /// verdicts by running the machine on their induced radius-R balls —
    /// sound by the ball rule (dtm/view_cache.hpp: a clean completed ball
    /// run reproduces the full-graph verdict) — and merges them with the
    /// cached verdicts of the untouched region.
    /// Any unclean or incomplete ball run falls back to the ordinary
    /// full-graph leaf run, keeping the deterministic counters and fault
    /// ordering bit-identical to a full solve.  Interpreted backend only
    /// (the Compiled backend already evaluates per-ball).
    bool partial_leaves = false;

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
    std::uint64_t local_runs = 0;       ///< run_local invocations (cache misses)
    std::uint64_t leaf_cache_hits = 0;  ///< leaves served fully from the cache
    std::uint64_t node_cache_hits = 0;
    std::uint64_t node_cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    double wall_ms = 0;     ///< wall-clock of the whole solve, compile included
    double busy_ms = 0;     ///< summed per-worker processing time
    unsigned workers = 1;   ///< participants in the fan-out
    std::uint64_t chunks = 1;

    // Compiled-backend counters (all zero on the interpreted path).
    double compile_ms = 0;  ///< table compilation paid by THIS solve (0 on reuse)
    std::uint64_t orbit_hits = 0; ///< nodes served by another node's class table
    std::uint64_t compiled_classes = 0;
    /// 64-leaf pattern words ANDed during packed evaluation (per node, per
    /// word — the packed path's unit of work).
    std::uint64_t packed_words_evaluated = 0;

    // Partial-leaf counters (all zero unless GameOptions::partial_leaves).
    std::uint64_t partial_leaf_evals = 0; ///< leaves completed from ball runs
    std::uint64_t ball_runs = 0;          ///< induced-ball run_local calls
    std::uint64_t partial_fallbacks = 0;  ///< eligible leaves that ran fully

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
