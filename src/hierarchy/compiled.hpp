#pragma once

#include "dtm/execution.hpp"
#include "hierarchy/game.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace lph {

/// One machine's per-view behaviour, compiled to flat decision tables.
///
/// For every node u the game engine ultimately needs one bit per leaf: does
/// u output "1" after a clean run?  By the locality invariant the view cache
/// already relies on (DESIGN.md "Parallel certificate-game engine"), that
/// bit is a function of u's canonical attributed R-ball plus the certificate
/// lists of u's *cert members* (the nodes within R-1).  compile() therefore:
///
///  1. groups nodes into *view classes* — equal ViewKeyBuilder static prefix
///     and equal per-member per-layer option lists imply the same decision
///     function, so one table serves the whole orbit;
///  2. fills each class's table by running the machine on the class
///     representative's induced R-ball once per *configuration* (one
///     mixed-radix digit per (member, layer) option choice), recording
///     Accept / Reject for clean completed runs and Unknown otherwise;
///  3. exposes the tables as packed bitsets (one known bit + one accept bit
///     per configuration) so the solver can AND 64 leaves per instruction.
///
/// Unknown entries (faulting, incomplete, or over-budget configurations)
/// make the solver fall back to the interpreted whole-graph run for that
/// leaf, which keeps the deterministic counters (machine_runs, faulted_runs,
/// probe_faults) bit-identical to the interpreted engine.
class CompiledGameCore {
public:
    /// Flat decision table of one view class.  Configurations are indexed in
    /// mixed radix over the (member, layer) digits: digit (j, l) has radix
    /// sizes[j * layers + l] and stride strides[j * layers + l], with
    /// (j=0, l=0) the fastest-running digit.
    struct ClassTable {
        std::vector<std::uint32_t> sizes;
        std::vector<std::uint64_t> strides;
        std::uint64_t configs = 0;
        bool filled = false; ///< false = over budget, every entry Unknown
        std::vector<std::uint64_t> known;  ///< bitset over configs
        std::vector<std::uint64_t> accept; ///< bitset over configs
        std::uint64_t members = 0;         ///< orbit cardinality
        NodeId representative = 0;
    };

    struct NodeTable {
        std::uint32_t cls = 0;
        /// u's cert members in the canonical ViewKeyBuilder order; the j-th
        /// member's option digit for layer l sits at stride
        /// classes[cls].strides[j * layers + l].
        std::vector<NodeId> members;
    };

    /// Compiles the machine's per-view behaviour for one (spec, tables,
    /// graph, identifiers, exec) context, or returns nullptr when the
    /// context is not compilable — the exact conditions under which the view
    /// cache refuses to cache (fault plans, byte caps, ids that are not
    /// locally unique), plus leaf-only games.  With `profitable_only` it
    /// also returns nullptr when the profitability gate declines (see
    /// GameBackend::Auto).  A view class past the per-class or total
    /// configuration budget stays all-Unknown, so the budgets only ever
    /// cost performance.
    static std::unique_ptr<CompiledGameCore>
    compile(const GameSpec& spec, const GameTables& tables,
            const LabeledGraph& g, const IdentifierAssignment& id,
            const ExecutionOptions& exec, bool profitable_only);

    const std::vector<ClassTable>& classes() const { return classes_; }
    const std::vector<NodeTable>& nodes() const { return nodes_; }

    /// affected()[v] lists the nodes u with v among u's cert members — the
    /// nodes whose table configuration changes when v's digit advances.
    const std::vector<std::vector<NodeId>>& affected() const {
        return affected_;
    }

    int radius() const { return radius_; }
    std::size_t layers() const { return layers_; }

    /// Looks up one entry; returns false for Unknown (accept_out untouched).
    bool entry(std::uint32_t cls, std::uint64_t config, bool& accept_out) const {
        const ClassTable& table = classes_[cls];
        if (!table.filled) {
            return false;
        }
        const std::uint64_t word = config >> 6;
        const std::uint64_t bit = config & 63;
        if (((table.known[word] >> bit) & 1) == 0) {
            return false;
        }
        accept_out = ((table.accept[word] >> bit) & 1) != 0;
        return true;
    }

    /// Nodes served by a class another node already paid to compile
    /// (sum over classes of |orbit| - 1).
    std::uint64_t orbit_hits() const { return orbit_hits_; }
    std::uint64_t table_entries() const { return table_entries_; }
    std::uint64_t unknown_entries() const { return unknown_entries_; }
    double compile_ms() const { return compile_ms_; }

    /// True when every entry of every class is decided — the solver never
    /// needs the interpreted fallback for this context.
    bool fully_known() const { return unknown_entries_ == 0; }

    /// Exhaustive leaf count with per-orbit contributions multiplied out:
    /// the product over classes of (the representative's per-layer option
    /// count product) raised to the orbit cardinality.  Saturates exactly
    /// like GameTables::tree_size(), and equals it bit for bit.
    std::uint64_t tree_size() const;

private:
    std::vector<ClassTable> classes_;
    std::vector<NodeTable> nodes_;
    std::vector<std::vector<NodeId>> affected_;
    int radius_ = 0;
    std::size_t layers_ = 0;
    std::uint64_t orbit_hits_ = 0;
    std::uint64_t table_entries_ = 0;
    std::uint64_t unknown_entries_ = 0;
    double compile_ms_ = 0;
};

} // namespace lph
