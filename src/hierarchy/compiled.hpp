#pragma once

#include "dtm/view_cache.hpp"
#include "hierarchy/game.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace lph {

/// One machine's per-view verdicts, memoized in flat per-class tables that
/// the solve fills as it visits them.
///
/// By the ball rule (dtm/view_cache.hpp) node u's clean-run verdict is a
/// function of its canonical attributed R-ball plus the certificate lists of
/// its *cert members* (the nodes within R-1).  compile() only classifies: it
/// groups nodes into *view classes* (equal ViewKeyBuilder static prefix and
/// equal per-member per-layer option lists imply the same decision
/// function, so one table serves the whole orbit) and lays out one table per
/// class, indexed by *configuration* (one mixed-radix digit per (member,
/// layer) option choice), every entry Unfilled.  It runs no machine.
///
/// The solver fills an entry the first time a leaf needs it (from the
/// ViewCache, an induced-ball run or a full-graph run) and serves later
/// visits from the table, 64 leaves per word on the packed path.  Entries
/// are atomic 2-bit codes, so workers fill them without locks; entries are
/// deterministic, so a race only repeats work.  A class past the per-class
/// or total configuration budget gets no table and memoizes through the
/// ViewCache alone.
class CompiledGameCore {
public:
    /// One entry's state.  Codes combine by bitwise OR, so conflicting
    /// writes collapse into Unknown, the state that always re-runs.
    enum class Entry : std::uint8_t {
        Unfilled = 0,
        Reject = 1,
        Accept = 2,
        Unknown = 3, ///< no clean ball run exists: the leaf runs in full
    };

    /// Layout of one view class's table.  Configurations are indexed in
    /// mixed radix over the (member, layer) digits: digit (j, l) has radix
    /// sizes[j * layers + l] and stride strides[j * layers + l], with
    /// (j=0, l=0) the fastest-running digit.
    struct ClassTable {
        std::vector<std::uint32_t> sizes;
        std::vector<std::uint64_t> strides;
        std::uint64_t configs = 0;
        bool dense = false;          ///< false = over budget, no table
        std::uint64_t first_word = 0; ///< offset into the entry store
        std::uint64_t members = 0;   ///< orbit cardinality
    };

    struct NodeTable {
        std::uint32_t cls = 0;
        /// u's cert members in the canonical ViewKeyBuilder order; the j-th
        /// member's option digit for layer l sits at stride
        /// classes[cls].strides[j * layers + l].
        std::vector<NodeId> members;
    };

    /// Classifies one (spec, tables, graph, identifiers, exec) context, or
    /// returns nullptr when the context is not memoizable — the exact
    /// conditions under which the view cache refuses to cache (fault plans,
    /// byte caps, ids that are not locally unique), plus leaf-only games.
    static std::unique_ptr<CompiledGameCore>
    compile(const GameSpec& spec, const GameTables& tables,
            const LabeledGraph& g, const IdentifierAssignment& id,
            const ExecutionOptions& exec);

    /// The context's one key builder: the ViewCache keys of the solves that
    /// use this core.
    const ViewKeyBuilder& keys() const { return keys_; }

    const std::vector<ClassTable>& classes() const { return classes_; }
    const std::vector<NodeTable>& nodes() const { return nodes_; }

    /// affected()[v] lists the nodes u with v among u's cert members — the
    /// nodes whose table configuration changes when v's digit advances.
    const std::vector<std::vector<NodeId>>& affected() const {
        return affected_;
    }

    /// Reads one entry (Unfilled for classes without a table).
    Entry entry(std::uint32_t cls, std::uint64_t config) const {
        const ClassTable& table = classes_[cls];
        if (!table.dense) {
            return Entry::Unfilled;
        }
        const std::uint64_t word =
            store_[table.first_word + (config >> 5)].load(
                std::memory_order_relaxed);
        return static_cast<Entry>((word >> ((config & 31) * 2)) & 3);
    }

    /// Records one entry (no-op for classes without a table).
    void fill(std::uint32_t cls, std::uint64_t config, Entry value) const {
        const ClassTable& table = classes_[cls];
        if (table.dense) {
            store_[table.first_word + (config >> 5)].fetch_or(
                static_cast<std::uint64_t>(value) << ((config & 31) * 2),
                std::memory_order_relaxed);
        }
    }

    /// Nodes served by a class another node already laid out
    /// (sum over classes of |orbit| - 1).
    std::uint64_t orbit_hits() const { return orbit_hits_; }
    /// Sum over classes of |orbit| x configurations: the ball runs an eager
    /// fill of every table would pay, orbit sharing aside.
    std::uint64_t table_entries() const { return table_entries_; }
    double compile_ms() const { return compile_ms_; }

    /// Exhaustive leaf count with per-orbit contributions multiplied out:
    /// the product over classes of (the representative's per-layer option
    /// count product) raised to the orbit cardinality.  Saturates exactly
    /// like GameTables::tree_size(), and equals it bit for bit.
    std::uint64_t tree_size() const;

    explicit CompiledGameCore(ViewKeyBuilder keys) : keys_(std::move(keys)) {}

private:
    ViewKeyBuilder keys_;
    std::vector<ClassTable> classes_;
    std::vector<NodeTable> nodes_;
    std::vector<std::vector<NodeId>> affected_;
    /// 32 two-bit entries per word; mutable because filling is memoization.
    mutable std::vector<std::atomic<std::uint64_t>> store_;
    std::size_t layers_ = 0;
    std::uint64_t orbit_hits_ = 0;
    std::uint64_t table_entries_ = 0;
    double compile_ms_ = 0;
};

} // namespace lph
