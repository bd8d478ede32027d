#include "hierarchy/compiled.hpp"

#include "core/check.hpp"
#include "dtm/view_cache.hpp"
#include "obs/trace.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

namespace lph {

namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
/// Configuration budgets: a class past either one keeps an all-Unknown table.
constexpr std::uint64_t kMaxConfigsPerClass = 1 << 12;
constexpr std::uint64_t kMaxTotalConfigs = 1 << 20;
/// Profitability gate of GameBackend::Auto: compilation costs one ball run
/// per in-budget configuration, an amount known before any simulation, while
/// what it can save is bounded by the exhaustive leaf space.  Planned ball
/// runs above this multiple of tree_size decline the compile.
constexpr double kMaxCompileCostRatio = 1.0;

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
    if (a == 0 || b == 0) {
        return 0;
    }
    return a > kSaturated / b ? kSaturated : a * b;
}

/// Class signature: the canonical rooted-ball serialization plus every
/// member's per-layer option list.  Equal signatures mean the node's verdict
/// is the same function of the (positionally indexed) member digits — the
/// ball serialization pins the view, the option lists pin what each digit
/// *means* — so one compiled table is sound for the whole class.
std::string class_signature(const ViewKeyBuilder& keys, const GameTables& tables,
                            NodeId u) {
    std::string sig = keys.static_prefix(u);
    sig += '\x01';
    for (const NodeId member : keys.cert_members(u)) {
        for (std::size_t l = 0; l < tables.layers(); ++l) {
            for (const BitString& option : tables.layer(l)[member]) {
                sig += option;
                sig += '\x02';
            }
            sig += '\x03';
        }
        sig += '\x04';
    }
    return sig;
}

} // namespace

std::unique_ptr<CompiledGameCore>
CompiledGameCore::compile(const GameSpec& spec, const GameTables& tables,
                          const LabeledGraph& g, const IdentifierAssignment& id,
                          const ExecutionOptions& exec, bool profitable_only) {
    check(spec.machine != nullptr, "CompiledGameCore: no machine");
    check(tables.layers() == spec.layers.size(),
          "CompiledGameCore: tables were built for a different spec");
    if (tables.layers() == 0) {
        return nullptr; // leaf-only games have nothing to enumerate
    }
    const ViewKeyBuilder keys(*spec.machine, g, id, exec);
    if (!keys.cacheable()) {
        return nullptr; // same gates as the view cache (see ViewKeyBuilder)
    }

    LPH_SPAN_NAMED(span, "game", "game.compile");
    const auto start = std::chrono::steady_clock::now();

    auto core = std::make_unique<CompiledGameCore>();
    core->radius_ = keys.radius();
    core->layers_ = tables.layers();
    const std::size_t layers = tables.layers();
    const std::size_t n = g.num_nodes();

    core->nodes_.resize(n);
    core->affected_.resize(n);
    std::unordered_map<std::string, std::uint32_t> class_of;
    for (NodeId u = 0; u < n; ++u) {
        NodeTable& node = core->nodes_[u];
        node.members = keys.cert_members(u);
        for (const NodeId member : node.members) {
            core->affected_[member].push_back(u);
        }
        const auto [it, inserted] = class_of.emplace(
            class_signature(keys, tables, u),
            static_cast<std::uint32_t>(core->classes_.size()));
        node.cls = it->second;
        if (inserted) {
            ClassTable table;
            table.representative = u;
            table.sizes.reserve(node.members.size() * layers);
            table.strides.reserve(node.members.size() * layers);
            std::uint64_t stride = 1;
            bool overflow = false;
            for (const NodeId member : node.members) {
                for (std::size_t l = 0; l < layers; ++l) {
                    const std::uint64_t size = tables.layer(l)[member].size();
                    table.sizes.push_back(static_cast<std::uint32_t>(size));
                    table.strides.push_back(stride);
                    const std::uint64_t next = saturating_mul(stride, size);
                    overflow = overflow || next == kSaturated;
                    stride = next;
                }
            }
            table.configs = overflow ? kSaturated : stride;
            core->classes_.push_back(std::move(table));
        } else {
            ++core->orbit_hits_;
        }
        ++core->classes_[node.cls].members;
    }

    // Profitability gate: planned ball runs (mirroring the fill loop's
    // budget logic) against the exhaustive leaf space the tables can save.
    if (profitable_only) {
        std::uint64_t planned = 0;
        for (const ClassTable& table : core->classes_) {
            if (table.configs > kMaxConfigsPerClass ||
                planned + table.configs > kMaxTotalConfigs) {
                continue;
            }
            planned += table.configs;
        }
        if (static_cast<double>(planned) >
            kMaxCompileCostRatio * static_cast<double>(tables.tree_size())) {
            return nullptr;
        }
    }

    // Fill each in-budget class by running the machine on the class
    // representative's induced R-ball, one run per configuration; a clean
    // completed ball run yields the exact verdict the full-graph run would
    // give the center (the ball rule, dtm/view_cache.hpp).  Nodes on the
    // distance-R boundary ring get their layer-0 options as dummy
    // certificates: their certificate content cannot reach the center
    // within R rounds, only their identifiers (which order message slots)
    // matter, and those are preserved.
    std::uint64_t total_configs = 0;
    for (ClassTable& table : core->classes_) {
        core->table_entries_ += table.members * table.configs;
        if (table.configs > kMaxConfigsPerClass ||
            total_configs + table.configs > kMaxTotalConfigs) {
            core->unknown_entries_ += table.members * table.configs;
            continue;
        }
        total_configs += table.configs;

        const NodeId rep = table.representative;
        const std::vector<NodeId>& members = core->nodes_[rep].members;
        const InducedBall ball = induced_ball(g, id, rep, core->radius_);
        const std::size_t sub_n = ball.sub.graph.num_nodes();

        std::vector<std::string> default_lists(sub_n);
        for (NodeId s = 0; s < sub_n; ++s) {
            const NodeId orig = ball.sub.to_original[s];
            std::vector<std::string> parts(layers);
            for (std::size_t l = 0; l < layers; ++l) {
                parts[l] = tables.layer(l)[orig].front();
            }
            default_lists[s] = join_hash(parts);
        }

        const std::uint64_t words = (table.configs + 63) / 64;
        table.known.assign(static_cast<std::size_t>(words), 0);
        table.accept.assign(static_cast<std::size_t>(words), 0);
        std::vector<std::string> member_parts(layers);
        for (std::uint64_t config = 0; config < table.configs; ++config) {
            std::vector<std::string> lists = default_lists;
            for (std::size_t j = 0; j < members.size(); ++j) {
                const NodeId s = ball.sub.from_original.at(members[j]);
                for (std::size_t l = 0; l < layers; ++l) {
                    const std::size_t flat = j * layers + l;
                    const std::uint64_t digit =
                        (config / table.strides[flat]) % table.sizes[flat];
                    member_parts[l] = tables.layer(l)[members[j]]
                                          [static_cast<std::size_t>(digit)];
                }
                lists[s] = join_hash(member_parts);
            }
            const std::optional<std::string> verdict = clean_ball_output(
                *spec.machine, ball,
                CertificateListAssignment::from_raw(std::move(lists), layers),
                exec);
            if (verdict.has_value()) {
                table.known[static_cast<std::size_t>(config >> 6)] |=
                    std::uint64_t{1} << (config & 63);
                if (*verdict == "1") {
                    table.accept[static_cast<std::size_t>(config >> 6)] |=
                        std::uint64_t{1} << (config & 63);
                }
            } else {
                core->unknown_entries_ += table.members;
            }
        }
        table.filled = true;
    }

    core->compile_ms_ = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    span.arg("classes", core->classes_.size());
    span.arg("nodes", n);
    span.arg("orbit_hits", core->orbit_hits_);
    return core;
}

std::uint64_t CompiledGameCore::tree_size() const {
    std::uint64_t total = 1;
    for (const ClassTable& table : classes_) {
        std::uint64_t center_product = 1;
        for (std::size_t l = 0; l < layers_; ++l) {
            center_product = saturating_mul(center_product, table.sizes[l]);
        }
        for (std::uint64_t i = 0; i < table.members; ++i) {
            total = saturating_mul(total, center_product);
        }
    }
    return total;
}

} // namespace lph
