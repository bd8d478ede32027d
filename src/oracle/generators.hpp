#pragma once

#include "core/rng.hpp"
#include "graph/generators.hpp"
#include "graph/identifiers.hpp"
#include "logic/formula.hpp"

#include <cstdint>
#include <string>

namespace lph {

/// Seeded random instance generation for the differential harness.
///
/// Every generator draws exclusively from the Rng it is handed, so a corpus
/// replays byte-identically from `--seed`: same seed, same graphs, same
/// identifier schemes, same formulas, in the same order.

/// Knobs for one random graph draw.  Sizes are kept tiny on purpose — every
/// oracle the instance is fed to is exponential.
struct GraphGenOptions {
    std::size_t min_nodes = 2;
    std::size_t max_nodes = 5;
    /// Extra non-tree edges on top of the random spanning tree (per
    /// connected component), drawn in [0, max_extra_edges].
    std::size_t max_extra_edges = 3;
    /// When true, the draw may produce a union of several connected
    /// components plus isolated vertices — the shapes the graph-algorithm
    /// fast paths historically got wrong.  Paper graphs are connected, so
    /// the game/logic checks leave this off.
    bool allow_disconnected = false;
    enum class Labels {
        AllOnes,   ///< every label "1" (paper's selected-node convention)
        ZeroOrOne, ///< each label independently "0" or "1"
        RandomBits ///< independent random labels of length label_length
    };
    Labels labels = Labels::AllOnes;
    std::size_t label_length = 2;
};

/// One random graph from a family mix (tree / sparse connected / path /
/// cycle / complete / star, optionally a disconnected union with isolated
/// vertices), labeled per `opt.labels`.
LabeledGraph random_graph_instance(Rng& rng, const GraphGenOptions& opt);

/// One of the library's identifier schemes, chosen by the rng:
/// "global" (make_global_ids) or "local" (make_small_local_ids at r_id).
/// The chosen scheme's name is written to *scheme so the harness can record
/// it in repro files and rebuild the same assignment from the name alone.
IdentifierAssignment random_identifier_scheme(Rng& rng, const LabeledGraph& g,
                                              int r_id, std::string* scheme);

/// Rebuilds the identifier assignment a repro file names.
IdentifierAssignment identifier_scheme_by_name(const std::string& scheme,
                                               const LabeledGraph& g, int r_id);

/// Knobs for one random sentence over the graph-structure signature
/// (1 unary, 2 binary relations).
struct FormulaGenOptions {
    /// Total quantifier budget (FO + connected + SO combined).
    int max_quantifiers = 4;
    /// Connective depth budget below the quantifier prefix.
    int max_depth = 4;
    /// Allow monadic second-order quantifiers (keep the structure's domain
    /// at or below SOPolicy::max_universe_size when set).
    bool allow_so = false;
};

/// One random *sentence* (no free variables): every atom only mentions
/// variables bound by an enclosing quantifier, so both model checkers accept
/// it without an assignment.
Formula random_sentence(Rng& rng, const FormulaGenOptions& opt);

/// Splits one corpus seed into a per-instance seed.  A plain counter would
/// make adjacent instances' streams overlap after a shared prefix; this
/// takes the index-th splitmix64 draw from corpus_seed, whose avalanche mix
/// leaves instance i and i+1 unrelated.
std::uint64_t instance_seed(std::uint64_t corpus_seed, std::uint64_t index);

} // namespace lph
