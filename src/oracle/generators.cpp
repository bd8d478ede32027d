#include "oracle/generators.hpp"

#include "core/check.hpp"

#include <utility>
#include <vector>

namespace lph {

namespace {

BitString random_label(Rng& rng, const GraphGenOptions& opt) {
    switch (opt.labels) {
    case GraphGenOptions::Labels::AllOnes:
        return "1";
    case GraphGenOptions::Labels::ZeroOrOne:
        return rng.chance(0.5) ? "1" : "0";
    case GraphGenOptions::Labels::RandomBits: {
        BitString label;
        for (std::size_t i = 0; i < opt.label_length; ++i) {
            label += rng.chance(0.5) ? '1' : '0';
        }
        return label;
    }
    }
    return "1";
}

void relabel(LabeledGraph& g, Rng& rng, const GraphGenOptions& opt) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        g.set_label(u, random_label(rng, opt));
    }
}

/// One connected piece of `n` nodes from the family mix.
LabeledGraph connected_piece(Rng& rng, std::size_t n, std::size_t max_extra) {
    switch (rng.index(6)) {
    case 0:
        return random_tree(n, rng);
    case 1:
        return path_graph(n);
    case 2:
        return n >= 3 ? cycle_graph(n) : path_graph(n);
    case 3:
        return complete_graph(n);
    case 4:
        return n >= 2 ? star_graph(n) : path_graph(n);
    default:
        return random_connected_graph(n, rng.uniform(0, max_extra), rng);
    }
}

/// Disjoint union, appending `piece` onto `g` with shifted node ids.
void append_component(LabeledGraph& g, const LabeledGraph& piece) {
    const NodeId base = g.num_nodes();
    for (NodeId u = 0; u < piece.num_nodes(); ++u) {
        g.add_node(piece.label(u));
    }
    for (NodeId u = 0; u < piece.num_nodes(); ++u) {
        for (NodeId v : piece.neighbors(u)) {
            if (u < v) {
                g.add_edge(base + u, base + v);
            }
        }
    }
}

} // namespace

LabeledGraph random_graph_instance(Rng& rng, const GraphGenOptions& opt) {
    check(opt.min_nodes >= 1 && opt.min_nodes <= opt.max_nodes,
          "random_graph_instance: bad node range");
    const std::size_t n = opt.min_nodes + rng.index(opt.max_nodes - opt.min_nodes + 1);

    LabeledGraph g;
    if (!opt.allow_disconnected || rng.chance(0.3)) {
        g = connected_piece(rng, n, opt.max_extra_edges);
    } else {
        // A union of small components, padded with isolated vertices — the
        // connectivity edge cases the Eulerian fast path used to reject.
        std::size_t remaining = n;
        while (remaining > 0) {
            if (rng.chance(0.3)) {
                g.add_node("1"); // isolated vertex
                --remaining;
                continue;
            }
            const std::size_t piece = 1 + rng.index(remaining);
            append_component(
                g, piece == 1 ? single_node_graph("1")
                              : connected_piece(rng, piece, opt.max_extra_edges));
            remaining -= piece;
        }
    }
    relabel(g, rng, opt);
    return g;
}

IdentifierAssignment random_identifier_scheme(Rng& rng, const LabeledGraph& g,
                                              int r_id, std::string* scheme) {
    // Locally unique small ids only make sense on connected graphs (the
    // greedy construction BFSes); fall back to global ids otherwise.
    const bool local = g.is_connected() && rng.chance(0.5);
    const std::string name = local ? "local" : "global";
    if (scheme != nullptr) {
        *scheme = name;
    }
    return identifier_scheme_by_name(name, g, r_id);
}

IdentifierAssignment identifier_scheme_by_name(const std::string& scheme,
                                               const LabeledGraph& g, int r_id) {
    if (scheme == "local") {
        return make_small_local_ids(g, r_id);
    }
    check(scheme == "global",
          "identifier_scheme_by_name: unknown scheme " + scheme);
    return make_global_ids(g);
}

namespace {

struct FormulaScope {
    std::vector<std::string> fo_vars;
    std::vector<std::string> so_vars; // all arity 1 (monadic)
    int quantifiers_left = 0;
    int so_left = 0;
};

std::string fresh_fo(const FormulaScope& scope) {
    return "x" + std::to_string(scope.fo_vars.size());
}

std::string fresh_so(const FormulaScope& scope) {
    return "X" + std::to_string(scope.so_vars.size());
}

const std::string& pick_var(Rng& rng, const std::vector<std::string>& vars) {
    return vars[rng.index(vars.size())];
}

Formula random_atom(Rng& rng, const FormulaScope& scope) {
    if (scope.fo_vars.empty()) {
        return rng.chance(0.5) ? fl::top() : fl::bottom();
    }
    const std::size_t kinds = scope.so_vars.empty() ? 4 : 5;
    switch (rng.index(kinds)) {
    case 0:
        return fl::unary(1, pick_var(rng, scope.fo_vars));
    case 1:
        return fl::binary(1, pick_var(rng, scope.fo_vars),
                          pick_var(rng, scope.fo_vars));
    case 2:
        return fl::binary(2, pick_var(rng, scope.fo_vars),
                          pick_var(rng, scope.fo_vars));
    case 3:
        return fl::equals(pick_var(rng, scope.fo_vars),
                          pick_var(rng, scope.fo_vars));
    default:
        return fl::apply(pick_var(rng, scope.so_vars),
                         {pick_var(rng, scope.fo_vars)});
    }
}

Formula random_body(Rng& rng, FormulaScope scope, int depth) {
    // Spend remaining quantifiers with decreasing probability so formulas
    // mix quantifier prefixes with connective structure.
    if (scope.quantifiers_left > 0 && rng.chance(0.45)) {
        --scope.quantifiers_left;
        const bool so_allowed = scope.so_left > 0;
        const bool conn_allowed = !scope.fo_vars.empty();
        const std::size_t kinds = 2 + (conn_allowed ? 2 : 0) + (so_allowed ? 2 : 0);
        std::size_t kind = rng.index(kinds);
        if (kind < 2) {
            const std::string x = fresh_fo(scope);
            FormulaScope inner = scope;
            inner.fo_vars.push_back(x);
            Formula body = random_body(rng, std::move(inner), depth);
            return kind == 0 ? fl::exists(x, std::move(body))
                             : fl::forall(x, std::move(body));
        }
        kind -= 2;
        if (conn_allowed && kind < 2) {
            const std::string x = fresh_fo(scope);
            const std::string anchor = pick_var(rng, scope.fo_vars);
            FormulaScope inner = scope;
            inner.fo_vars.push_back(x);
            Formula body = random_body(rng, std::move(inner), depth);
            return kind == 0 ? fl::exists_conn(x, anchor, std::move(body))
                             : fl::forall_conn(x, anchor, std::move(body));
        }
        if (conn_allowed) {
            kind -= 2;
        }
        --scope.so_left;
        const std::string rel = fresh_so(scope);
        FormulaScope inner = scope;
        inner.so_vars.push_back(rel);
        Formula body = random_body(rng, std::move(inner), depth);
        return kind == 0 ? fl::exists_so(rel, 1, std::move(body))
                         : fl::forall_so(rel, 1, std::move(body));
    }
    if (depth <= 0 || rng.chance(0.3)) {
        return random_atom(rng, scope);
    }
    switch (rng.index(5)) {
    case 0:
        return fl::negate(random_body(rng, scope, depth - 1));
    case 1:
        return fl::disj(random_body(rng, scope, depth - 1),
                        random_body(rng, scope, depth - 1));
    case 2:
        return fl::conj(random_body(rng, scope, depth - 1),
                        random_body(rng, scope, depth - 1));
    case 3:
        return fl::implies(random_body(rng, scope, depth - 1),
                           random_body(rng, scope, depth - 1));
    default:
        return fl::iff(random_body(rng, scope, depth - 1),
                       random_body(rng, scope, depth - 1));
    }
}

} // namespace

Formula random_sentence(Rng& rng, const FormulaGenOptions& opt) {
    FormulaScope scope;
    scope.quantifiers_left = opt.max_quantifiers;
    // At most one SO quantifier per sentence keeps the 2^|universe| subset
    // folds affordable for the no-early-exit reference checker.
    scope.so_left = opt.allow_so ? 1 : 0;
    return random_body(rng, std::move(scope), opt.max_depth);
}

std::uint64_t instance_seed(std::uint64_t corpus_seed, std::uint64_t index) {
    // The index-th draw of a splitmix64 stream started at corpus_seed.
    return splitmix64(corpus_seed + kSplitMix64Gamma * index);
}

} // namespace lph
