#pragma once

#include "dtm/execution.hpp"
#include "dtm/local.hpp"
#include "graph/certificates.hpp"
#include "graph/identifiers.hpp"
#include "obs/metrics.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lph {

/// Counters of a ViewCache; all monotone except `entries`.
struct ViewCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    /// Re-inserts of an existing key with a *different* verdict.  Equal keys
    /// must imply equal verdicts (the cache-soundness invariant), so any
    /// nonzero value here means a key collision between genuinely different
    /// views — a bug in the key builder or a cache shared across machines.
    std::uint64_t verdict_mismatches = 0;

    double hit_rate() const {
        const double total = static_cast<double>(hits + misses);
        return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }

    /// Metric list under the `cache.` naming scheme (DESIGN.md
    /// Observability), for absorption into an obs::MetricsRegistry.
    obs::MetricList to_metrics() const;
};

/// Thread-safe bounded map from canonical r-ball view encodings to the
/// per-node verdicts of *clean* LOCAL runs (no faults, no aborts).
///
/// The locality property of the paper's machines (a node's verdict after R
/// rounds is determined by its radius-R view) makes the encoding produced by
/// ViewKeyBuilder a sound key: two nodes — in the same leaf, across leaves of
/// the certificate game, or even across instances — with identical encodings
/// receive identical verdicts.  DESIGN.md ("Parallel certificate-game
/// engine") has the full soundness argument.
///
/// Entries are evicted LRU per shard; sharding keeps the lock hot path short
/// when game workers probe concurrently.  One cache must only ever be shared
/// across runs of the *same* machine under the same ExecutionOptions — the
/// key deliberately excludes both to keep it small.
class ViewCache {
public:
    explicit ViewCache(std::size_t max_entries = 1 << 20);

    /// Returns the cached verdict for the key, refreshing its LRU position.
    std::optional<std::string> lookup(const std::string& key);

    /// Inserts (or refreshes) a verdict, evicting the shard's LRU tail when
    /// the shard is over budget.  Re-inserting an existing key with a
    /// different verdict is a cache-soundness violation: it asserts in debug
    /// builds and is counted in stats().verdict_mismatches (the first verdict
    /// is kept) instead of being silently overwritten.
    void insert(const std::string& key, const std::string& verdict);

    ViewCacheStats stats() const;
    void clear();

    /// Every live entry, oldest-first per shard — the serving layer's
    /// snapshot support.  Replaying them through restore() reproduces the
    /// LRU recency order.
    std::vector<std::pair<std::string, std::string>> export_entries() const;

    /// Re-inserts snapshot entries without touching the hit/miss counters.
    /// A restored key that already exists keeps its current verdict (and
    /// counts a verdict mismatch if they differ — a corrupted-but-valid-
    /// checksum snapshot must not overwrite live soundness data).  Returns
    /// how many entries were admitted.
    std::size_t restore(
        const std::vector<std::pair<std::string, std::string>>& entries);

private:
    using Entry = std::pair<std::string, std::string>;
    struct Shard {
        mutable std::mutex mutex;
        /// Front = most recently used.
        std::list<Entry> lru;
        /// Keys view the strings owned by `lru` (list nodes never move), so
        /// each key is stored once.
        std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    };

    enum class Admit { Added, Refreshed, Mismatch };

    static constexpr std::size_t kShards = 16;
    Shard& shard_for(const std::string& key);

    /// The one insert path of insert() and restore(), under the shard lock:
    /// an existing key moves to the MRU end and keeps its first verdict; a
    /// new one goes in there and the LRU tail is evicted down to budget,
    /// each victim's key passed to `on_evict` just before it is dropped.
    template <typename OnEvict>
    Admit admit(Shard& shard, const std::string& key,
                const std::string& verdict, OnEvict&& on_evict);

    std::array<Shard, kShards> shards_;
    std::size_t max_entries_per_shard_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> verdict_mismatches_{0};
};

/// BFS distances from u, cut off beyond `radius`; -1 = outside the ball.
/// Shared by the key builder below and the serving layer's dirty-ball
/// computation (a graph edit can only change verdicts of nodes whose
/// radius-R ball touches it — the r-locality invariant).
std::vector<int> bounded_distances(const LabeledGraph& g, NodeId u, int radius);

// --- The ball rule --------------------------------------------------------
//
// A LOCAL machine stops within R rounds, so a node's output depends only on
// its radius-R view, and the induced radius-R ball preserves that view
// (shortest paths between ball nodes stay inside the ball).  Hence a clean,
// completed run of the machine on a node's induced ball yields exactly the
// output the full-graph run gives that node.  The view-cache keys, the
// engine's per-ball store (its tables and ball runs) and the serving
// layer's dirty-ball recomputation all rest on this fact; the helpers below
// are its one implementation.

/// The effective information radius R of the machine's clean runs under
/// `exec`: the declared round bound when enforced (capped by the max_rounds
/// guard), otherwise the guard itself; at least 1.
int view_radius(const LocalMachine& machine, const ExecutionOptions& exec);

/// Node u's induced radius-R ball with u's identifiers carried over.
struct InducedBall {
    InducedSubgraph sub;
    IdentifierAssignment id; ///< indexed by ball node
    NodeId center = 0;       ///< u's index inside the ball
};

InducedBall induced_ball(const LabeledGraph& g, const IdentifierAssignment& id,
                         NodeId u, int radius);

/// Runs the machine on the ball (certificate lists indexed by ball node)
/// under `exec` with FaultPolicy::Record, and returns the center's output
/// when the run was clean and completed — then it equals the full-graph
/// output (the ball rule above) — and nullopt otherwise.
std::optional<std::string> clean_ball_output(const LocalMachine& machine,
                                             const InducedBall& ball,
                                             const CertificateListAssignment& certs,
                                             const ExecutionOptions& exec);

/// Builds the per-node cache keys for one (machine, graph, identifiers,
/// execution options) context.
///
/// The key for node u is a canonical serialization of u's effective ball:
/// with R the number of rounds a clean run can take (the declared round
/// bound when enforced, otherwise the max_rounds guard), it contains
///  - distance, identifier, label, and degree of every node within R-1,
///  - the identifier of every node at distance exactly R (their ids order
///    the message slots of boundary nodes; nothing else about them can
///    reach u in R rounds),
///  - all ball edges with an endpoint within R-1, and
///  - the certificate list of every node within R-1 (the dynamic part,
///    appended per leaf by key_for).
/// Ball nodes are ordered by (distance, id, NodeId); the NodeId tie-break
/// keeps keys deterministic when identifiers repeat inside a ball, at the
/// cost of some cross-instance sharing (never of soundness: equal keys
/// imply equal rooted attributed balls, hence equal verdicts).
class ViewKeyBuilder {
public:
    ViewKeyBuilder(const LocalMachine& machine, const LabeledGraph& g,
                   const IdentifierAssignment& id, const ExecutionOptions& exec);

    /// False when this context cannot be cached at all: a fault plan or the
    /// run-global total-byte cap makes node verdicts depend on more than
    /// their views, or the identifiers are not locally unique so every run
    /// fatals anyway.  A wall-clock deadline does not gate: it can only abort
    /// a run, and only clean, completed runs are ever cached.
    bool cacheable() const { return cacheable_; }

    /// The effective information radius used for the keys.
    int radius() const { return radius_; }

    /// Appends node u's full key (static prefix + the ball's certificate
    /// lists from `certs`) into `out` (cleared first).
    void key_for(NodeId u, const CertificateListAssignment& certs,
                 std::string& out) const;

    /// The static (certificate-independent) part of u's key: the canonical
    /// serialization of u's rooted attributed ball.  Two nodes with equal
    /// prefixes have isomorphic balls, so their verdicts are the same
    /// function of the certificates at their (positionally corresponding)
    /// cert members — the property the compiled game core's class sharing
    /// rests on.
    const std::string& static_prefix(NodeId u) const {
        return nodes_.at(u).static_prefix;
    }

    /// The nodes whose certificates u's verdict can depend on (distance
    /// <= radius()-1 from u), in the canonical (distance, id, NodeId) order
    /// key_for serializes them in.
    const std::vector<NodeId>& cert_members(NodeId u) const {
        return nodes_.at(u).cert_members;
    }

private:
    struct NodeKey {
        std::string static_prefix;
        std::vector<NodeId> cert_members; ///< canonical order, distance <= R-1
    };

    std::vector<NodeKey> nodes_;
    bool cacheable_ = false;
    int radius_ = 0;
};

} // namespace lph
