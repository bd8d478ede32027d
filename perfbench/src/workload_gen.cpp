#include "workload_gen.hpp"

#include "core/rng.hpp"
#include "graph/generators.hpp"
#include "graph/identifiers.hpp"
#include "graph/serialize.hpp"
#include "graphalg/coloring.hpp"
#include "logic/examples.hpp"
#include "machines/formula_arbiter.hpp"
#include "obs/metrics.hpp"
#include "service/graph_store.hpp"
#include "service/registry.hpp"
#include "service/wire.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <sstream>

namespace perfbench {

using namespace lph;

namespace {

/// `g` with its nodes renumbered by a seeded permutation (same graph up to
/// isomorphism; the engine's enumeration order and identifiers change).
LabeledGraph renumbered(const LabeledGraph& g, Rng& rng) {
    std::vector<NodeId> to(g.num_nodes());
    std::iota(to.begin(), to.end(), NodeId{0});
    std::shuffle(to.begin(), to.end(), rng.engine());
    std::vector<NodeId> from(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        from[to[u]] = u;
    }
    LabeledGraph out;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        out.add_node(g.label(from[v]));
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (const NodeId w : g.neighbors(u)) {
            if (u < w) {
                out.add_edge(to[u], to[w]);
            }
        }
    }
    return out;
}

std::string payload(const LabeledGraph& g) {
    return obs::json_escape(graph_to_text(g));
}

// --- serve_open -------------------------------------------------------------

struct PoolGraph {
    std::string text; ///< json-escaped graph_to_text payload
    std::uint64_t digest = 0; ///< the wire's digest of the canonical text
    bool labelled = false;
    std::size_t nodes = 0;
};

/// Graph sizes by rank, round-robin: small graphs carry the requests whose
/// cost is exponential in n (certificate games, set quantifiers, Hamiltonian
/// search), medium ones only the linear ones.  The sizes are spread without
/// a gap from 4 to 96 nodes, so the request latencies have no gap either: a
/// median that fell between two well-separated size classes would jump
/// with small shifts in the class shares.
constexpr std::size_t kSizes[] = {4, 5, 6, 7, 12, 16, 24, 32, 48, 64, 80, 96};
constexpr std::size_t kSmallMax = 7;

/// Connected graphs from the library's generators, in popularity order.
/// The size, family and labelling of the graph at each rank are the same for
/// every seed (round-robin over 12 sizes x 6 families, every tenth rank
/// labelled as in lph_client --generate's pool of ten), so seeds differ in
/// the graphs, numberings and request stream but not in how much work the
/// popular ranks carry.
std::vector<PoolGraph> make_pool(Rng& rng, std::size_t count) {
    std::vector<PoolGraph> pool;
    pool.reserve(count);
    constexpr std::size_t kSizeCount = std::size(kSizes);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t n = kSizes[i % kSizeCount];
        const bool small = n <= kSmallMax;
        LabeledGraph g;
        // Medium graphs keep degrees low: a hub of degree ~n overruns the
        // deciders' polynomial step bound (StepBoundViolated).
        switch ((i / kSizeCount) % 6) {
        case 0: g = cycle_graph(n, ""); break;
        case 1: g = path_graph(n, ""); break;
        case 2: g = small ? star_graph(n, "") : grid_graph(4, n / 4, ""); break;
        case 3:
            g = small ? wheel_graph(n, "") : random_connected_graph(n, n / 4, rng, "");
            break;
        case 4: g = random_tree(n, rng, ""); break;
        default: g = random_connected_graph(n, 1 + rng.index(3), rng, ""); break;
        }
        g = renumbered(g, rng);
        const bool labelled = i % 10 == 9;
        if (labelled) {
            randomize_labels(g, 1, rng);
        }
        const std::string canonical = graph_to_text(g);
        pool.push_back({obs::json_escape(canonical), service::fnv1a64(canonical),
                        labelled, g.num_nodes()});
    }
    return pool;
}

/// One distinct request shape; combined with a pool graph it is one memo key.
struct Variant {
    std::string head;  ///< JSON members after "id" and before "graph"
    /// Labelled graphs only carry game and decide requests: every label bit
    /// is a structure element, so model checking a labelled graph costs
    /// orders of magnitude more than its unlabelled twin.
    bool unlabelled_only = false;
    std::size_t max_nodes = kSizes[std::size(kSizes) - 1];
};

std::vector<Variant> make_variants() {
    std::vector<Variant> v;
    for (const char* ids : {"global", "local"}) {
        const std::string tail = std::string(",\"sigma\":true,\"ids\":\"") + ids + "\"";
        // The deciders: one LOCAL run, linear in n.
        v.push_back({"\"type\":\"game\",\"machine\":\"allsel\",\"layers\":0" + tail});
        v.push_back({"\"type\":\"game\",\"machine\":\"eulerian\",\"layers\":0" + tail});
        // Sigma_1 coloring games grow as k^n leaves (plus compiled tables):
        // kept to graphs where one request costs at most a few ms.
        v.push_back({"\"type\":\"game\",\"machine\":\"coloring2\",\"layers\":1" + tail,
                     false, 6});
        v.push_back({"\"type\":\"game\",\"machine\":\"coloring3\",\"layers\":1" + tail,
                     false, 5});
    }
    v.push_back({"\"type\":\"decide\",\"problem\":\"eulerian\""});
    v.push_back({"\"type\":\"decide\",\"problem\":\"coloring\",\"k\":2", false, 16});
    v.push_back({"\"type\":\"decide\",\"problem\":\"coloring\",\"k\":3", false, kSmallMax});
    v.push_back({"\"type\":\"decide\",\"problem\":\"hamiltonian\"", false, kSmallMax});
    // logic: all_selected on any graph; seeded random FO sentences only on
    // small ones (their nesting depth makes them n^d); the monadic-SO
    // two_colorable up to 5 nodes (each set quantifier enumerates 2^n
    // subsets).
    v.push_back({"\"type\":\"logic\",\"formula\":\"all_selected\"", true});
    v.push_back({"\"type\":\"logic\",\"formula\":\"random\",\"fseed\":3", true, kSmallMax});
    v.push_back({"\"type\":\"logic\",\"formula\":\"random\",\"fseed\":11", true,
                 kSmallMax});
    v.push_back({"\"type\":\"logic\",\"formula\":\"two_colorable\"", true, 5});
    // eval: user-written FO text through the language frontend.
    v.push_back({"\"type\":\"eval\",\"formula\":\"exists x. O1(x)\"", true});
    v.push_back({"\"type\":\"eval\",\"formula\":\"forall x. exists y. x ->1 y\"", true});
    v.push_back({"\"type\":\"eval\",\"formula\":\"exists x. exists y. exists z. "
                 "(x ->1 y & (y ->1 z & z ->1 x))\"",
                 true, 16});
    return v;
}

/// Request-type weights, in the order game, decide, logic, eval.  Game,
/// decide and logic are lph_client --generate's 7 : 3 : 3 out of 16 draws.
/// Its other 3 draws are control-plane lines (stats, health, oracle_check);
/// here they go to eval, which --generate does not emit: an assumption,
/// made so the language frontend (src/lang) carries load.
constexpr double kTypeWeights[4] = {7, 3, 3, 3};

std::size_t type_of(const Variant& variant) {
    if (variant.head.find("\"game\"") != std::string::npos) return 0;
    if (variant.head.find("\"decide\"") != std::string::npos) return 1;
    if (variant.head.find("\"logic\"") != std::string::npos) return 2;
    return 3;
}

std::string serve_line(const Variant& variant, const PoolGraph& graph,
                       std::size_t id, bool by_digest) {
    const std::string ref =
        by_digest ? "\"digest\":\"" + std::to_string(graph.digest) + "\""
                  : "\"graph\":\"" + graph.text + "\"";
    return "{\"id\":" + std::to_string(id) + "," + variant.head + "," + ref + "}";
}

} // namespace

ServeWorkload make_serve_open(std::uint64_t seed, double rate, double warmup_s,
                              double seconds) {
    Rng rng(seed);
    // Assumptions, not measured traffic (the repository has no request
    // logs): 800 graphs with Zipf(0.8) popularity, so popular graphs repeat
    // (micro-batching, the result memo) while the tail keeps misses coming
    // (the engine, the compile decision, the view cache); 15% of requests
    // name a registered graph by digest (graph_store lookups on the read
    // path).
    constexpr std::size_t kPool = 800;
    constexpr double kZipf = 0.8;
    constexpr double kByDigest = 0.15;
    const std::vector<PoolGraph> pool = make_pool(rng, kPool);
    const std::vector<Variant> variants = make_variants();

    // Zipf popularity over the pool's rank order.
    std::vector<double> weights(kPool);
    for (std::size_t r = 0; r < kPool; ++r) {
        weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    }
    std::discrete_distribution<std::size_t> popular(weights.begin(), weights.end());
    std::discrete_distribution<std::size_t> type_pick(std::begin(kTypeWeights),
                                                      std::end(kTypeWeights));

    // Variants usable per (type, graph kind).
    std::vector<std::vector<std::size_t>> by_type(4);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        by_type[type_of(variants[i])].push_back(i);
    }

    ServeWorkload out;
    for (const PoolGraph& graph : pool) {
        out.register_lines.push_back("{\"type\":\"graph_register\",\"graph\":\"" +
                                     graph.text + "\"}");
    }
    std::vector<std::size_t> key_index(kPool * variants.size(), SIZE_MAX);
    std::exponential_distribution<double> gap(rate);
    double due = 0;
    for (std::size_t i = 0;; ++i) {
        due += gap(rng.engine());
        if (due >= warmup_s + seconds) {
            break;
        }
        const std::size_t g = popular(rng.engine());
        const PoolGraph& graph = pool[g];
        std::size_t variant = 0;
        for (;;) {
            const auto& choices = by_type[type_pick(rng.engine())];
            variant = choices[rng.index(choices.size())];
            const Variant& v = variants[variant];
            if ((!v.unlabelled_only || !graph.labelled) && graph.nodes <= v.max_nodes) {
                break;
            }
        }
        std::size_t& key = key_index[g * variants.size() + variant];
        if (key == SIZE_MAX) {
            key = out.distinct_lines.size();
            out.distinct_lines.push_back(serve_line(variants[variant], graph, 0, false));
        }
        const bool by_digest = rng.chance(kByDigest);
        ServeRequest request{serve_line(variants[variant], graph, i, by_digest), key, due};
        if (due < warmup_s) {
            out.warmup.push_back(std::move(request));
        } else {
            request.due_s -= warmup_s;
            out.requests.push_back(std::move(request));
        }
    }
    return out;
}

// --- patch_churn ------------------------------------------------------------

namespace {

constexpr std::size_t kMaxGrown = 2;
constexpr std::size_t kChordCandidates = 32;

std::string render_ops(const std::vector<service::PatchOp>& ops) {
    std::ostringstream out;
    out << '[';
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const service::PatchOp& op = ops[i];
        out << (i ? "," : "") << "{\"op\":\"" << service::to_string(op.kind) << '"';
        switch (op.kind) {
        case service::PatchOp::Kind::AddEdge:
        case service::PatchOp::Kind::RemoveEdge:
            out << ",\"u\":" << op.u << ",\"v\":" << op.v;
            break;
        case service::PatchOp::Kind::Relabel:
            out << ",\"u\":" << op.u << ",\"label\":\"" << op.label << '"';
            break;
        case service::PatchOp::Kind::AddNode:
            out << ",\"label\":\"" << op.label << '"';
            break;
        case service::PatchOp::Kind::RemoveNode:
            out << ",\"u\":" << op.u;
            break;
        }
        out << '}';
    }
    out << ']';
    return out.str();
}

} // namespace

ChurnStream::ChurnStream(std::uint64_t seed, std::size_t index)
    : rng_(seed * 1000003 + index), base_(192 + 8 * index) {
    mirror_ = cycle_graph(base_, "1");
    // Chords toggle within a fixed set of candidate pairs (endpoints at
    // cyclic distance >= 2, so the base cycle is never cut), as lph_client's
    // 10-cycle bounds its own.  About half of them are present at any time,
    // so the graph's density, and with it the cost of an op, stays the same
    // over a run however long it is.
    for (std::size_t c = 0; c < kChordCandidates; ++c) {
        const NodeId u = static_cast<NodeId>(rng_.index(base_));
        const NodeId v = static_cast<NodeId>((u + 2 + rng_.index(base_ - 3)) % base_);
        chords_.emplace_back(std::min(u, v), std::max(u, v));
    }
    for (std::size_t c = 0; c < kChordCandidates; ++c) {
        service::apply_patch_op(mirror_, chord_op());
    }
    digest_ = service::fnv1a64(graph_to_text(mirror_));
}

std::string ChurnStream::register_line() const {
    return "{\"type\":\"graph_register\",\"id\":0,\"graph\":\"" + payload(mirror_) +
           "\"}";
}

ChurnOp ChurnStream::next(std::size_t id, bool with_twin) {
    // lph_client --patch's stream: every 8th op is a digest-referenced game
    // read, the rest are graph_patch writes; each draws its query machine
    // as 20% allsel, 80% eulerian.  (lph_client gives 10 of the 80 points
    // to a one-layer coloring2 game, which on ~200 nodes has 2^200
    // certificate assignments and is refused by GameOptions'
    // max_assignments_per_layer guard; here they go to eulerian.)
    const bool patch = id % 8 != 0;
    std::string query = rng_.index(100) < 20 ? "\"machine\":\"allsel\",\"layers\":0"
                                             : "\"machine\":\"eulerian\",\"layers\":0";
    query += ",\"sigma\":true,\"ids\":\"global\"";
    const std::string ref = ",\"digest\":\"" + std::to_string(digest_) + "\"";
    ChurnOp op;
    op.patch = patch;
    if (patch) {
        op.line = "{\"type\":\"graph_patch\",\"id\":" + std::to_string(id) + ref +
                  ",\"ops\":" + mutate() + "," + query + "}";
        digest_ = service::fnv1a64(graph_to_text(mirror_));
    } else {
        op.line = "{\"type\":\"game\",\"id\":" + std::to_string(id) + ref + "," + query + "}";
    }
    op.digest = digest_;
    if (with_twin) {
        op.twin = "{\"type\":\"game\",\"id\":" + std::to_string(id) + "," + query +
                  ",\"graph\":\"" + payload(mirror_) + "\"}";
    }
    return op;
}

service::PatchOp ChurnStream::chord_op() {
    const auto [u, v] = chords_[rng_.index(chords_.size())];
    service::PatchOp op;
    op.kind = mirror_.has_edge(u, v) ? service::PatchOp::Kind::RemoveEdge
                                     : service::PatchOp::Kind::AddEdge;
    op.u = u;
    op.v = v;
    return op;
}

std::string ChurnStream::mutate() {
    std::vector<service::PatchOp> ops;
    const std::uint64_t pick = rng_.index(100);
    if (pick < 55) {
        ops.push_back(chord_op());
    } else if (pick < 75) {
        service::PatchOp op;
        op.kind = service::PatchOp::Kind::Relabel;
        op.u = static_cast<NodeId>(rng_.index(mirror_.num_nodes()));
        op.label = rng_.chance(0.5) ? "1" : "0";
        ops.push_back(op);
    } else if (grown_.empty() || (pick < 90 && grown_.size() < kMaxGrown)) {
        // Grow: add a node and wire it to the cycle in one patch, so no
        // query ever sees the graph disconnected.
        const NodeId anchor = static_cast<NodeId>(rng_.index(base_));
        service::PatchOp add;
        add.kind = service::PatchOp::Kind::AddNode;
        add.label = "1";
        service::PatchOp wire_up;
        wire_up.kind = service::PatchOp::Kind::AddEdge;
        wire_up.u = static_cast<NodeId>(mirror_.num_nodes());
        wire_up.v = anchor;
        ops.push_back(add);
        ops.push_back(wire_up);
        grown_.push_back(anchor);
    } else {
        // Shrink the latest growth; LIFO keeps the victim at the highest id.
        const NodeId victim = static_cast<NodeId>(mirror_.num_nodes() - 1);
        service::PatchOp cut;
        cut.kind = service::PatchOp::Kind::RemoveEdge;
        cut.u = victim;
        cut.v = grown_.back();
        service::PatchOp drop;
        drop.kind = service::PatchOp::Kind::RemoveNode;
        drop.u = victim;
        ops.push_back(cut);
        ops.push_back(drop);
        grown_.pop_back();
    }
    for (const service::PatchOp& op : ops) {
        service::apply_patch_op(mirror_, op);
    }
    return render_ops(ops);
}

// --- engine_solve -----------------------------------------------------------

namespace {

/// Per-node options of the Fagin game for a monadic Sigma_1 sentence: each
/// node's slice of the block's unary relations, i.e. one option per subset
/// of the relations that contain the node's own element.
class UnarySliceDomain : public CertificateDomain {
public:
    explicit UnarySliceDomain(std::vector<SOVariable> vars) : vars_(std::move(vars)) {}

    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment& id,
                                   NodeId u) const override {
        std::vector<BitString> out;
        for (std::size_t mask = 0; mask < (std::size_t{1} << vars_.size()); ++mask) {
            RelationSlice slice;
            for (std::size_t i = 0; i < vars_.size(); ++i) {
                std::vector<RefTuple> tuples;
                if ((mask >> i) & 1) {
                    tuples.push_back({ElementRef{id(u), 0}});
                }
                slice.emplace(vars_[i].name, std::move(tuples));
            }
            out.push_back(encode_relation_certificate(slice, vars_));
        }
        return out;
    }

private:
    std::vector<SOVariable> vars_;
};

} // namespace

const GameSpec& EngineDeck::spec_of(const EngineInstance& instance) const {
    return games.at(instance.spec)->spec;
}

EngineDeck make_engine_deck(std::uint64_t seed) {
    EngineDeck deck;
    const auto add = [&](service::BuiltGame game) {
        deck.games.push_back(std::make_shared<service::BuiltGame>(std::move(game)));
        return deck.games.size() - 1;
    };
    // The serving layer's own game builders, so engine_solve and the service
    // workloads play the same machines and certificate domains.
    const std::size_t col2 = add(service::build_game("coloring2", 1, true));
    const std::size_t col3 = add(service::build_game("coloring3", 1, true));
    const std::size_t sigma2 = add(service::build_game("implies", 2, true));
    const std::size_t fagin = [&] {
        service::BuiltGame game;
        auto arbiter = std::make_unique<FormulaArbiter>(paper_formulas::two_colorable());
        game.domains.push_back(
            std::make_unique<UnarySliceDomain>(arbiter->prefix().blocks.front().variables));
        game.machine = std::move(arbiter);
        game.spec.machine = game.machine.get();
        game.spec.layers = {game.domains.front().get()};
        game.spec.starts_existential = true;
        return add(std::move(game));
    }();

    Rng rng(seed);
    struct Shape {
        const char* kind;
        std::size_t spec;
        LabeledGraph graph;
        int colors; ///< k for the graphalg decider; 0 = decided by the oracle
    };
    // The odd 13-cycle (the BM_EngineSpeedup shape) is listed twice, so the
    // median solve of a pass falls inside its cluster of latencies rather
    // than on the edge between two shapes of different cost.
    const std::vector<Shape> shapes = {
        {"coloring2/odd_cycle", col2, cycle_graph(11, ""), 2},
        {"coloring2/odd_cycle", col2, cycle_graph(13, ""), 2},
        {"coloring2/odd_cycle", col2, cycle_graph(13, ""), 2},
        {"coloring2/odd_cycle", col2, cycle_graph(15, ""), 2},
        {"coloring2/even_cycle", col2, cycle_graph(12, ""), 2},
        {"coloring2/even_cycle", col2, cycle_graph(14, ""), 2},
        {"coloring3/odd_cycle", col3, cycle_graph(11, ""), 3},
        {"coloring3/odd_wheel", col3, wheel_graph(6, ""), 3},
        {"fagin2col/odd_cycle", fagin, cycle_graph(5, ""), 2},
        {"fagin2col/even_cycle", fagin, cycle_graph(6, ""), 2},
        {"sigma2_implies/cycle", sigma2, cycle_graph(10, ""), 0},
    };
    deck.pass_size = shapes.size();
    for (std::size_t copy = 0; copy < EngineDeck::kPasses; ++copy) {
        const std::size_t first = deck.instances.size();
        for (const Shape& shape : shapes) {
            EngineInstance instance;
            instance.kind = shape.kind;
            instance.spec = shape.spec;
            instance.oracle = shape.colors == 0;
            instance.expected =
                !instance.oracle && is_k_colorable(shape.graph, shape.colors);
            // A no-instance costs the same under any numbering: the game
            // plays out every certificate assignment.  A yes-instance stops
            // at the first accepting one, whose place in the enumeration
            // order a renumbering moves by up to the whole search (the
            // 14-cycle's solve took 22 or 49 ms depending on it), so the
            // yes-instances and the oracle-decided game keep the
            // generator's numbering and the seed renumbers only the rest.
            const bool exhaustive = !instance.oracle && !instance.expected;
            instance.graph = exhaustive ? renumbered(shape.graph, rng) : shape.graph;
            instance.nodes = instance.graph.num_nodes();
            deck.instances.push_back(std::move(instance));
        }
        std::shuffle(deck.instances.begin() + static_cast<std::ptrdiff_t>(first),
                     deck.instances.end(), rng.engine());
    }
    return deck;
}

} // namespace perfbench
