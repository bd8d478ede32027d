#include "dtm/view_cache.hpp"

#include "dtm/errors.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <unordered_set>

namespace lph {

ViewCache::ViewCache(std::size_t max_entries) {
    max_entries_per_shard_ = std::max<std::size_t>(1, max_entries / kShards);
}

ViewCache::Shard& ViewCache::shard_for(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
}

std::optional<std::string> ViewCache::lookup(const std::string& key) {
    LPH_SPAN_NAMED(span, "cache", "cache.lookup");
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        span.arg("hit", 0);
        return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    span.arg("hit", 1);
    return it->second->second;
}

template <typename OnEvict>
ViewCache::Admit ViewCache::admit(Shard& shard, const std::string& key,
                                  const std::string& verdict,
                                  OnEvict&& on_evict) {
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        if (it->second->second != verdict) {
            // Equal keys must imply equal verdicts; overwriting would mask a
            // soundness violation, so keep the first verdict and count it.
            verdict_mismatches_.fetch_add(1, std::memory_order_relaxed);
            return Admit::Mismatch;
        }
        return Admit::Refreshed;
    }
    shard.lru.emplace_front(key, verdict);
    shard.index.emplace(shard.lru.front().first, shard.lru.begin());
    while (shard.lru.size() > max_entries_per_shard_) {
        const std::string& victim = shard.lru.back().first;
        on_evict(victim);
        shard.index.erase(victim);
        shard.lru.pop_back();
    }
    return Admit::Added;
}

void ViewCache::insert(const std::string& key, const std::string& verdict) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const Admit result = admit(shard, key, verdict, [this](const std::string&) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
        obs::Tracer::instance().instant("cache", "cache.evict");
    });
    (void)result;
    assert(result != Admit::Mismatch &&
           "ViewCache::insert: verdict mismatch for equal keys");
}

ViewCacheStats ViewCache::stats() const {
    ViewCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.verdict_mismatches = verdict_mismatches_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        stats.entries += shard.lru.size();
    }
    return stats;
}

obs::MetricList ViewCacheStats::to_metrics() const {
    return {
        {"cache.hits", static_cast<double>(hits)},
        {"cache.misses", static_cast<double>(misses)},
        {"cache.evictions", static_cast<double>(evictions)},
        {"cache.entries", static_cast<double>(entries)},
        {"cache.verdict_mismatches", static_cast<double>(verdict_mismatches)},
        {"cache.hit_rate", hit_rate()},
    };
}

void ViewCache::clear() {
    for (Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        shard.lru.clear();
        shard.index.clear();
    }
}

std::vector<std::pair<std::string, std::string>>
ViewCache::export_entries() const {
    std::vector<std::pair<std::string, std::string>> entries;
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        // The list runs MRU-to-LRU; walk it backwards for oldest-first.
        for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
            entries.push_back(*it);
        }
    }
    return entries;
}

std::size_t ViewCache::restore(
    const std::vector<std::pair<std::string, std::string>>& entries) {
    std::size_t admitted = 0;
    std::unordered_set<std::string_view> admitted_keys;
    for (const auto& [key, verdict] : entries) {
        Shard& shard = shard_for(key);
        const std::lock_guard<std::mutex> lock(shard.mutex);
        // Only evictions of entries *this call* admitted cancel out of the
        // admitted count; displacing a pre-existing LRU tail does not make
        // the snapshot entry any less admitted.
        const Admit result =
            admit(shard, key, verdict, [&](const std::string& victim) {
                if (admitted_keys.erase(victim) > 0) {
                    --admitted;
                }
            });
        if (result == Admit::Added) {
            ++admitted;
            admitted_keys.insert(key);
        }
    }
    return admitted;
}

/// BFS distances from u, cut off beyond `radius`; -1 = outside the ball.
std::vector<int> bounded_distances(const LabeledGraph& g, NodeId u, int radius) {
    std::vector<int> dist(g.num_nodes(), -1);
    dist[u] = 0;
    std::queue<NodeId> frontier;
    frontier.push(u);
    while (!frontier.empty()) {
        const NodeId v = frontier.front();
        frontier.pop();
        if (dist[v] >= radius) {
            continue;
        }
        for (NodeId w : g.neighbors(v)) {
            if (dist[w] < 0) {
                dist[w] = dist[v] + 1;
                frontier.push(w);
            }
        }
    }
    return dist;
}

int view_radius(const LocalMachine& machine, const ExecutionOptions& exec) {
    const int radius = exec.enforce_declared_bounds
                           ? std::min(machine.round_bound(), exec.max_rounds)
                           : exec.max_rounds;
    return std::max(radius, 1);
}

InducedBall induced_ball(const LabeledGraph& g, const IdentifierAssignment& id,
                         NodeId u, int radius) {
    InducedSubgraph sub = g.neighborhood(u, radius);
    const NodeId center = sub.from_original.at(u);
    std::vector<BitString> ids(sub.graph.num_nodes());
    for (NodeId s = 0; s < sub.graph.num_nodes(); ++s) {
        ids[s] = id(sub.to_original[s]);
    }
    return InducedBall{std::move(sub), IdentifierAssignment(std::move(ids)),
                       center};
}

std::optional<std::string> clean_ball_output(const LocalMachine& machine,
                                             const InducedBall& ball,
                                             const CertificateListAssignment& certs,
                                             const ExecutionOptions& exec) {
    ExecutionOptions record = exec;
    record.on_violation = FaultPolicy::Record;
    try {
        ExecutionResult run =
            run_local(machine, ball.sub.graph, ball.id, certs, record);
        if (!run.ok() || !run.faults.empty() || !run.completed) {
            return std::nullopt;
        }
        return std::move(run.outputs[ball.center]);
    } catch (const run_error&) {
        return std::nullopt;
    }
}

ViewKeyBuilder::ViewKeyBuilder(const LocalMachine& machine, const LabeledGraph& g,
                               const IdentifierAssignment& id,
                               const ExecutionOptions& exec) {
    // Run-global couplings break the per-node view determinism the cache
    // relies on: injected faults address nodes by index and round, the
    // total-byte cap ties one node's fate to the whole run's traffic.
    if (exec.faults != nullptr || exec.max_total_message_bytes > 0) {
        return;
    }
    // Non-unique identifiers fatal every run before round 1; nothing clean
    // will ever be inserted, so skip the key work entirely.
    if (!id.is_locally_unique(g, std::max(1, machine.id_radius()))) {
        return;
    }
    // A clean run finishes within R rounds; information (including the step
    // charges that decide per-node bound violations) travels one hop per
    // round from round 2 on.
    radius_ = view_radius(machine, exec);
    cacheable_ = true;

    nodes_.resize(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const std::vector<int> dist = bounded_distances(g, u, radius_);
        std::vector<NodeId> ball;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
            if (dist[v] >= 0) {
                ball.push_back(v);
            }
        }
        std::sort(ball.begin(), ball.end(), [&](NodeId a, NodeId b) {
            return std::make_tuple(dist[a], std::cref(id(a)), a) <
                   std::make_tuple(dist[b], std::cref(id(b)), b);
        });
        std::vector<std::size_t> canonical(g.num_nodes(),
                                           static_cast<std::size_t>(-1));
        for (std::size_t i = 0; i < ball.size(); ++i) {
            canonical[ball[i]] = i;
        }

        NodeKey& key = nodes_[u];
        std::string& out = key.static_prefix;
        out += "r";
        out += std::to_string(radius_);
        out += ';';
        for (NodeId v : ball) {
            out += std::to_string(dist[v]);
            out += '|';
            out += id(v);
            out += '|';
            if (dist[v] <= radius_ - 1) {
                out += g.label(v);
                out += '|';
                out += std::to_string(g.degree(v));
                key.cert_members.push_back(v);
            }
            out += ';';
        }
        out += 'E';
        // Collect edges in canonical-index terms and sort before emitting:
        // the prefix must not depend on original NodeIds or adjacency-list
        // order, or isomorphic balls (e.g. rotations of a cycle with
        // periodic identifiers) would serialize differently and defeat both
        // cross-instance cache sharing and the compiled core's orbit
        // sharing.  Interior edges are kept once (smaller canonical index
        // first); interior-boundary edges order themselves the same way
        // because boundary nodes sort after all interior nodes.
        std::vector<std::pair<std::size_t, std::size_t>> edges;
        for (NodeId v : ball) {
            if (dist[v] > radius_ - 1) {
                continue; // edges among the boundary ring are irrelevant
            }
            for (NodeId w : g.neighbors(v)) {
                if (canonical[w] == static_cast<std::size_t>(-1)) {
                    continue; // captured by v's degree
                }
                if (dist[w] <= radius_ - 1 && canonical[w] < canonical[v]) {
                    continue; // emit interior edges once
                }
                edges.emplace_back(canonical[v], canonical[w]);
            }
        }
        std::sort(edges.begin(), edges.end());
        for (const auto& [a, b] : edges) {
            out += std::to_string(a);
            out += '-';
            out += std::to_string(b);
            out += ',';
        }
        out += '#';
    }
}

void ViewKeyBuilder::key_for(NodeId u, const CertificateListAssignment& certs,
                             std::string& out) const {
    const NodeKey& key = nodes_[u];
    out.clear();
    out += key.static_prefix;
    for (NodeId v : key.cert_members) {
        out += certs.at(v);
        out += ';';
    }
}

} // namespace lph
