#include "hierarchy/compiled.hpp"

#include "core/check.hpp"
#include "obs/trace.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

namespace lph {

namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
/// Configuration budgets of the dense tables: a class past either one gets
/// no table and memoizes through the ViewCache.
constexpr std::uint64_t kMaxConfigsPerClass = 1 << 12;
constexpr std::uint64_t kMaxTotalConfigs = 1 << 20;

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
/// *means* — so one table is sound for the whole class.
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
                          const ExecutionOptions& exec) {
    check(spec.machine != nullptr, "CompiledGameCore: no machine");
    check(tables.layers() == spec.layers.size(),
          "CompiledGameCore: tables were built for a different spec");
    if (tables.layers() == 0) {
        return nullptr; // leaf-only games have nothing to enumerate
    }
    LPH_SPAN_NAMED(span, "game", "game.compile");
    const auto start = std::chrono::steady_clock::now();
    ViewKeyBuilder keys(*spec.machine, g, id, exec);
    if (!keys.cacheable()) {
        return nullptr; // same gates as the view cache (see ViewKeyBuilder)
    }

    auto core = std::make_unique<CompiledGameCore>(std::move(keys));
    core->layers_ = tables.layers();
    const std::size_t layers = tables.layers();
    const std::size_t n = g.num_nodes();

    core->nodes_.resize(n);
    core->affected_.resize(n);
    std::unordered_map<std::string, std::uint32_t> class_of;
    for (NodeId u = 0; u < n; ++u) {
        NodeTable& node = core->nodes_[u];
        node.members = core->keys_.cert_members(u);
        for (const NodeId member : node.members) {
            core->affected_[member].push_back(u);
        }
        const auto [it, inserted] = class_of.emplace(
            class_signature(core->keys_, tables, u),
            static_cast<std::uint32_t>(core->classes_.size()));
        node.cls = it->second;
        if (inserted) {
            ClassTable table;
            table.sizes.reserve(node.members.size() * layers);
            table.strides.reserve(node.members.size() * layers);
            std::uint64_t stride = 1;
            for (const NodeId member : node.members) {
                for (std::size_t l = 0; l < layers; ++l) {
                    const std::uint64_t size = tables.layer(l)[member].size();
                    table.sizes.push_back(static_cast<std::uint32_t>(size));
                    table.strides.push_back(stride);
                    stride = saturating_mul(stride, size);
                }
            }
            table.configs = stride;
            core->classes_.push_back(std::move(table));
        } else {
            ++core->orbit_hits_;
        }
        ++core->classes_[node.cls].members;
    }

    // Lay the in-budget tables out in one store of 2-bit entries, all
    // Unfilled: the solve fills what it visits.
    std::uint64_t total_configs = 0;
    std::uint64_t words = 0;
    for (ClassTable& table : core->classes_) {
        const std::uint64_t entries = saturating_mul(table.members, table.configs);
        core->table_entries_ = entries > kSaturated - core->table_entries_
                                   ? kSaturated
                                   : core->table_entries_ + entries;
        if (table.configs > kMaxConfigsPerClass ||
            total_configs + table.configs > kMaxTotalConfigs) {
            continue;
        }
        total_configs += table.configs;
        table.dense = true;
        table.first_word = words;
        words += (table.configs + 31) / 32;
    }
    core->store_ = std::vector<std::atomic<std::uint64_t>>(words);

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
