#include "oracle/harness.hpp"

#include "core/bitstring.hpp"
#include "core/check.hpp"
#include "dtm/view_cache.hpp"
#include "graphalg/coloring.hpp"
#include "graphalg/eulerian.hpp"
#include "graphalg/hamiltonian.hpp"
#include "hierarchy/compiled.hpp"
#include "hierarchy/game.hpp"
#include "logic/eval.hpp"
#include "machines/deciders.hpp"
#include "machines/verifiers.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "oracle/generators.hpp"
#include "oracle/reference.hpp"
#include "oracle/shrink.hpp"
#include "reductions/classic_reductions.hpp"
#include "structure/graph_structure.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

namespace lph {

namespace {

const std::string& param(const ReproCase& r, const std::string& key) {
    const auto it = r.params.find(key);
    check(it != r.params.end(), "repro case is missing param '" + key + "'");
    return it->second;
}

// --------------------------------------------------------------------------
// Machine corpus for the game checks.  Every machine here is deterministic
// and cheap; what matters is that accept/fault patterns depend on the
// certificates in order-sensitive ways, so enumeration-order bugs show up in
// machine_runs and witness, not just the verdict.
// --------------------------------------------------------------------------

/// Violates its declared step bound whenever its certificate list contains a
/// '1' and accepts iff the list is exactly "0" — exercises the
/// tolerate_faults path and the faulted_runs counter.
class FussyVerifier : public LocalMachine {
public:
    int round_bound() const override { return 1; }
    Polynomial step_bound() const override { return Polynomial::constant(64); }
    RoundOutput on_round(const RoundInput& input, std::string&,
                         StepMeter& meter) const override {
        if (input.certificates.find('1') != std::string::npos) {
            meter.charge(1'000'000); // blows the declared bound
        }
        return {{}, true, input.certificates == "0" ? "1" : "0"};
    }
};

/// Two-layer arbiter: a node accepts iff its Adam bit implies its Eve bit —
/// the certificate list at each node is "<eve>#<adam>".
class ImpliesVerifier : public LocalMachine {
public:
    int round_bound() const override { return 1; }
    Polynomial step_bound() const override { return Polynomial{256, 16}; }
    RoundOutput on_round(const RoundInput& input, std::string&,
                         StepMeter& meter) const override {
        meter.charge(input.certificates.size());
        const auto parts = split_hash(input.certificates);
        const bool eve = !parts.empty() && parts[0] == "1";
        const bool adam = parts.size() > 1 && parts[1] == "1";
        return {{}, true, (!adam || eve) ? "1" : "0"};
    }
};

std::unique_ptr<LocalMachine> make_corpus_machine(const std::string& name) {
    if (name == "coloring2") {
        return std::make_unique<ColoringVerifier>(2);
    }
    if (name == "coloring3") {
        return std::make_unique<ColoringVerifier>(3);
    }
    if (name == "allsel") {
        return std::make_unique<AllSelectedDecider>();
    }
    if (name == "fussy") {
        return std::make_unique<FussyVerifier>();
    }
    if (name == "implies") {
        return std::make_unique<ImpliesVerifier>();
    }
    check(false, "unknown corpus machine '" + name + "'");
    return nullptr;
}

std::unique_ptr<CertificateDomain> make_corpus_domain(const std::string& machine,
                                                      const LocalMachine& m) {
    if (machine == "coloring2" || machine == "coloring3") {
        const auto& verifier = dynamic_cast<const ColoringVerifier&>(m);
        std::vector<BitString> colors;
        for (int c = 0; c < verifier.k(); ++c) {
            colors.push_back(verifier.encode_color(c));
        }
        return std::make_unique<FixedOptionsDomain>(std::move(colors));
    }
    if (machine == "implies") {
        return std::make_unique<FixedOptionsDomain>(
            std::vector<BitString>{"0", "1"});
    }
    // allsel / fussy enumerate the raw strings of length <= 1: "", "0", "1".
    return std::make_unique<RawBitStringDomain>(1);
}

struct BuiltGame {
    std::unique_ptr<LocalMachine> machine;
    std::vector<std::unique_ptr<CertificateDomain>> domains;
    GameSpec spec;
    bool tolerate = false;
};

BuiltGame build_game(const ReproCase& r) {
    BuiltGame built;
    const std::string machine = param(r, "machine");
    built.machine = make_corpus_machine(machine);
    const int layers = std::stoi(param(r, "layers"));
    check(layers >= 1 && layers <= 3, "game repro: bad layer count");
    for (int l = 0; l < layers; ++l) {
        built.domains.push_back(make_corpus_domain(machine, *built.machine));
    }
    built.spec.machine = built.machine.get();
    for (const auto& domain : built.domains) {
        built.spec.layers.push_back(domain.get());
    }
    built.spec.starts_existential = param(r, "sigma") == "1";
    built.tolerate = machine == "fussy";
    return built;
}

IdentifierAssignment ids_of(const ReproCase& r, const LocalMachine& m) {
    return identifier_scheme_by_name(param(r, "ids"), r.graph, m.id_radius());
}

ReproCase generate_game_case(Rng& rng) {
    static const char* kMachines[] = {"coloring2", "coloring3", "allsel", "fussy",
                                      "implies"};
    ReproCase r;
    const std::string machine = kMachines[rng.index(5)];
    GraphGenOptions gopt;
    gopt.min_nodes = 2;
    gopt.max_nodes = machine == "coloring3" ? 3 : 4;
    gopt.max_extra_edges = 2;
    gopt.labels = (machine == "allsel" || machine == "fussy")
                      ? GraphGenOptions::Labels::ZeroOrOne
                      : GraphGenOptions::Labels::AllOnes;
    r.graph = random_graph_instance(rng, gopt);
    r.params["machine"] = machine;
    const int layers = machine == "implies" ? 2
                       : (machine != "fussy" && rng.chance(0.35)) ? 2
                                                                  : 1;
    r.params["layers"] = std::to_string(layers);
    r.params["sigma"] = rng.chance(0.5) ? "1" : "0";
    std::string scheme;
    const auto machine_obj = make_corpus_machine(machine);
    random_identifier_scheme(rng, r.graph, machine_obj->id_radius(), &scheme);
    r.params["ids"] = scheme;
    return r;
}

/// The deterministic fields of one engine or reference run, with thrown
/// run_errors folded in (both sides must throw on the same instances).
struct GameOutcome {
    bool threw = false;
    bool accepted = false;
    std::uint64_t machine_runs = 0;
    std::uint64_t faulted_runs = 0;
    std::optional<CertificateAssignment> witness;
};

GameOutcome run_engine(const GameSpec& spec, const LabeledGraph& g,
                       const IdentifierAssignment& id, const GameOptions& options) {
    GameOutcome out;
    try {
        GameResult result = play_game(spec, g, id, options);
        out.accepted = result.accepted;
        out.machine_runs = result.machine_runs;
        out.faulted_runs = result.faulted_runs;
        out.witness = std::move(result.witness);
    } catch (const run_error&) {
        out.threw = true;
    }
    return out;
}

GameOutcome run_reference(const GameSpec& spec, const LabeledGraph& g,
                          const IdentifierAssignment& id, bool tolerate) {
    GameOutcome out;
    try {
        RefGameResult result = ref_play_game(spec, g, id, ExecutionOptions{}, tolerate);
        out.accepted = result.accepted;
        out.machine_runs = result.machine_runs;
        out.faulted_runs = result.faulted_runs;
        out.witness = std::move(result.witness);
    } catch (const run_error&) {
        out.threw = true;
    }
    return out;
}

std::optional<std::string> diff_outcome(const std::string& a_name,
                                        const GameOutcome& a,
                                        const std::string& b_name,
                                        const GameOutcome& b) {
    std::ostringstream out;
    if (a.threw != b.threw) {
        out << (a.threw ? a_name : b_name) << " threw run_error but "
            << (a.threw ? b_name : a_name) << " did not";
        return out.str();
    }
    if (a.threw) {
        return std::nullopt; // both aborted identically
    }
    if (a.accepted != b.accepted) {
        out << a_name << " accepted=" << a.accepted << " but " << b_name
            << " accepted=" << b.accepted;
        return out.str();
    }
    if (a.machine_runs != b.machine_runs) {
        out << a_name << " machine_runs=" << a.machine_runs << " but " << b_name
            << " machine_runs=" << b.machine_runs;
        return out.str();
    }
    if (a.faulted_runs != b.faulted_runs) {
        out << a_name << " faulted_runs=" << a.faulted_runs << " but " << b_name
            << " faulted_runs=" << b.faulted_runs;
        return out.str();
    }
    if (a.witness.has_value() != b.witness.has_value() ||
        (a.witness.has_value() && !(*a.witness == *b.witness))) {
        out << a_name << " and " << b_name << " disagree on the witness";
        return out.str();
    }
    return std::nullopt;
}

std::optional<std::string> compare_game_par_vs_ref(const ReproCase& r) {
    const BuiltGame built = build_game(r);
    const IdentifierAssignment id = ids_of(r, *built.machine);
    GameOptions fast;
    fast.threads = 4;
    fast.memoize_views = true;
    fast.tolerate_faults = built.tolerate;
    const GameOutcome engine = run_engine(built.spec, r.graph, id, fast);
    const GameOutcome reference =
        run_reference(built.spec, r.graph, id, built.tolerate);
    return diff_outcome("engine(threads=4,cache=on)", engine, "reference",
                        reference);
}

std::optional<std::string> compare_game_cache_vs_nocache(const ReproCase& r) {
    const BuiltGame built = build_game(r);
    const IdentifierAssignment id = ids_of(r, *built.machine);
    GameOptions uncached;
    uncached.threads = 1;
    uncached.memoize_views = false;
    uncached.tolerate_faults = built.tolerate;
    GameOptions cached = uncached;
    cached.memoize_views = true;
    const GameOutcome off = run_engine(built.spec, r.graph, id, uncached);
    const GameOutcome on = run_engine(built.spec, r.graph, id, cached);
    if (auto diff = diff_outcome("cache=on", on, "cache=off", off)) {
        return diff;
    }
    // A cache reused across solves must not bleed verdicts between runs.
    ViewCache shared(1 << 12);
    GameOptions shared_opts = cached;
    shared_opts.view_cache = &shared;
    const GameOutcome warm1 = run_engine(built.spec, r.graph, id, shared_opts);
    const GameOutcome warm2 = run_engine(built.spec, r.graph, id, shared_opts);
    if (auto diff = diff_outcome("shared-cache pass 1", warm1, "cache=off", off)) {
        return diff;
    }
    if (auto diff = diff_outcome("shared-cache pass 2", warm2, "cache=off", off)) {
        return diff;
    }
    const std::uint64_t mismatches = shared.stats().verdict_mismatches;
    if (mismatches != 0) {
        return "shared view cache recorded " + std::to_string(mismatches) +
               " verdict mismatch(es) for equal keys";
    }
    return std::nullopt;
}

std::optional<std::string>
compare_game_compiled_vs_interpreted(const ReproCase& r) {
    const BuiltGame built = build_game(r);
    const IdentifierAssignment id = ids_of(r, *built.machine);
    GameOptions interpreted;
    interpreted.threads = 4;
    interpreted.memoize_views = true;
    interpreted.tolerate_faults = built.tolerate;
    interpreted.backend = GameBackend::Interpreted;
    GameOptions compiled = interpreted;
    compiled.backend = GameBackend::Compiled;
    const GameOutcome itp = run_engine(built.spec, r.graph, id, interpreted);
    const GameOutcome cmp = run_engine(built.spec, r.graph, id, compiled);
    if (auto diff = diff_outcome("compiled(threads=4)", cmp, "interpreted", itp)) {
        return diff;
    }
    // The sequential packed path (one chunk, no published terminals) must
    // agree too.
    GameOptions compiled_seq = compiled;
    compiled_seq.threads = 1;
    const GameOutcome seq = run_engine(built.spec, r.graph, id, compiled_seq);
    if (auto diff = diff_outcome("compiled(threads=1)", seq, "interpreted", itp)) {
        return diff;
    }
    // When the context is memoizable, the orbit-multiplied game_tree_size
    // must equal the interpreted per-node product bit for bit.
    const GameTables tables(built.spec, r.graph, id);
    if (const CompiledGameCore* core =
            tables.compiled(built.spec, r.graph, id, ExecutionOptions{})) {
        if (core->tree_size() != tables.tree_size()) {
            return "compiled tree_size=" + std::to_string(core->tree_size()) +
                   " but interpreted tree_size=" +
                   std::to_string(tables.tree_size());
        }
    }
    return std::nullopt;
}

std::vector<std::map<std::string, std::string>>
game_param_shrinks(const std::map<std::string, std::string>& params) {
    std::vector<std::map<std::string, std::string>> candidates;
    if (params.count("layers") && params.at("layers") == "2" &&
        params.at("machine") != "implies") {
        auto p = params;
        p["layers"] = "1";
        candidates.push_back(std::move(p));
    }
    if (params.count("machine") && params.at("machine") == "coloring3") {
        auto p = params;
        p["machine"] = "coloring2";
        candidates.push_back(std::move(p));
    }
    if (params.count("ids") && params.at("ids") == "local") {
        auto p = params;
        p["ids"] = "global";
        candidates.push_back(std::move(p));
    }
    return candidates;
}

// --------------------------------------------------------------------------
// Logic: evaluate() vs the no-early-exit quantifier-expansion reference.
// --------------------------------------------------------------------------

ReproCase generate_logic_case(Rng& rng) {
    ReproCase r;
    // With an SO quantifier the reference folds 2^|domain| subsets, so SO
    // instances stay much smaller than FO-only ones.
    const bool so = rng.chance(0.3);
    GraphGenOptions gopt;
    gopt.min_nodes = 2;
    gopt.max_nodes = so ? 3 : 5;
    gopt.max_extra_edges = 2;
    gopt.labels = GraphGenOptions::Labels::RandomBits;
    gopt.label_length = so ? 1 : 2;
    r.graph = random_graph_instance(rng, gopt);
    r.params["so"] = so ? "1" : "0";
    r.params["fseed"] = std::to_string(rng.uniform(0, ~std::uint64_t{0} - 1));
    return r;
}

std::optional<std::string> compare_logic(const ReproCase& r) {
    FormulaGenOptions fopt;
    fopt.max_quantifiers = 3;
    fopt.max_depth = 3;
    fopt.allow_so = param(r, "so") == "1";
    Rng frng(std::stoull(param(r, "fseed")));
    const Formula sentence = random_sentence(frng, fopt);
    const GraphStructure gs(r.graph);
    const bool fast = satisfies(gs.structure(), sentence);
    const bool slow = ref_satisfies(gs.structure(), sentence);
    if (fast != slow) {
        std::ostringstream out;
        out << "evaluate() says " << fast << " but quantifier expansion says "
            << slow << " for sentence " << to_string(sentence);
        return out.str();
    }
    return std::nullopt;
}

// --------------------------------------------------------------------------
// Graph algorithms vs brute force.
// --------------------------------------------------------------------------

ReproCase generate_eulerian_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 1;
    gopt.max_nodes = 6;
    gopt.max_extra_edges = 2;
    gopt.allow_disconnected = true; // isolated vertices are the point here
    r.graph = random_graph_instance(rng, gopt);
    return r;
}

std::optional<std::string> compare_eulerian(const ReproCase& r) {
    const LabeledGraph& g = r.graph;
    const bool fast = is_eulerian(g);
    const bool slow = ref_is_eulerian(g);
    if (fast != slow) {
        return "is_eulerian says " + std::to_string(fast) +
               " but the brute-force trail search says " + std::to_string(slow);
    }
    const auto cycle = find_eulerian_cycle(g);
    if (cycle.has_value() != fast) {
        return std::string("find_eulerian_cycle ") +
               (cycle ? "found a cycle" : "found nothing") +
               " but is_eulerian says " + std::to_string(fast);
    }
    if (cycle.has_value() && !verify_eulerian_cycle(g, *cycle)) {
        return "find_eulerian_cycle returned a walk verify_eulerian_cycle rejects";
    }
    return std::nullopt;
}

ReproCase generate_coloring_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 1;
    gopt.max_nodes = 6;
    gopt.max_extra_edges = 4;
    gopt.allow_disconnected = true;
    r.graph = random_graph_instance(rng, gopt);
    r.params["k"] = std::to_string(2 + rng.index(3));
    return r;
}

std::optional<std::string> compare_coloring(const ReproCase& r) {
    const LabeledGraph& g = r.graph;
    const int k = std::stoi(param(r, "k"));
    check(k >= 1, "coloring repro: bad k");
    const auto found = find_k_coloring(g, k);
    const bool fast = found.has_value();
    const bool slow = ref_is_k_colorable(g, k);
    if (fast != slow) {
        return "find_k_coloring says " + std::to_string(fast) +
               " but the k^n brute force says " + std::to_string(slow);
    }
    if (found.has_value() && !verify_coloring(g, *found, k)) {
        return "find_k_coloring returned a coloring verify_coloring rejects";
    }
    const bool dsatur = is_k_colorable_dsatur(g, k);
    if (dsatur != slow) {
        return "DSATUR says " + std::to_string(dsatur) +
               " but the k^n brute force says " + std::to_string(slow);
    }
    if (k == 2 && is_bipartite(g) != slow) {
        return "is_bipartite disagrees with the 2^n brute force";
    }
    return std::nullopt;
}

std::vector<std::map<std::string, std::string>>
coloring_param_shrinks(const std::map<std::string, std::string>& params) {
    std::vector<std::map<std::string, std::string>> candidates;
    const auto it = params.find("k");
    if (it != params.end() && std::stoi(it->second) > 2) {
        auto p = params;
        p["k"] = std::to_string(std::stoi(it->second) - 1);
        candidates.push_back(std::move(p));
    }
    return candidates;
}

ReproCase generate_hamiltonian_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 3;
    gopt.max_nodes = 7;
    gopt.max_extra_edges = 4;
    r.graph = random_graph_instance(rng, gopt);
    return r;
}

std::optional<std::string> compare_hamiltonian(const ReproCase& r) {
    const LabeledGraph& g = r.graph;
    if (g.num_nodes() == 0) {
        return std::nullopt; // the fast path requires a nonempty graph
    }
    const auto cycle = find_hamiltonian_cycle(g);
    const bool fast = cycle.has_value();
    const bool slow = ref_is_hamiltonian(g);
    if (fast != slow) {
        return "find_hamiltonian_cycle says " + std::to_string(fast) +
               " but the permutation brute force says " + std::to_string(slow);
    }
    if (cycle.has_value() && !verify_hamiltonian_cycle(g, *cycle)) {
        return "find_hamiltonian_cycle returned a cycle "
               "verify_hamiltonian_cycle rejects";
    }
    return std::nullopt;
}

// --------------------------------------------------------------------------
// Reductions: AllSelectedToEulerian output vs Proposition 15.
// --------------------------------------------------------------------------

ReproCase generate_reduction_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 1;
    gopt.max_nodes = 3;
    gopt.max_extra_edges = 1;
    gopt.labels = GraphGenOptions::Labels::ZeroOrOne;
    r.graph = random_graph_instance(rng, gopt);
    std::string scheme;
    const AllSelectedToEulerian machine;
    random_identifier_scheme(rng, r.graph, machine.id_radius(), &scheme);
    r.params["ids"] = scheme;
    return r;
}

std::optional<std::string> compare_reduction_eulerian(const ReproCase& r) {
    const LabeledGraph& g = r.graph;
    const AllSelectedToEulerian machine;
    const IdentifierAssignment id =
        identifier_scheme_by_name(param(r, "ids"), g, machine.id_radius());
    const ReducedGraph reduced = apply_reduction(machine, g, id);
    const bool fast = is_eulerian(reduced.graph);
    const bool slow = ref_is_eulerian(reduced.graph);
    if (fast != slow) {
        return "on the reduced graph, is_eulerian says " + std::to_string(fast) +
               " but the brute-force trail search says " + std::to_string(slow);
    }
    bool all_selected = true;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        all_selected = all_selected && g.label(u) == "1";
    }
    if (fast != all_selected) {
        return "Proposition 15 violated: input all-selected=" +
               std::to_string(all_selected) + " but the reduced graph is " +
               (fast ? "" : "not ") + "Eulerian";
    }
    return std::nullopt;
}

// --------------------------------------------------------------------------
// Registry and runner.
// --------------------------------------------------------------------------

/// The open check registry: the built-in engine checks plus whatever higher
/// layers add through register_check().  Guarded by one mutex; callers copy
/// what they need out so a concurrent registration never invalidates an
/// in-flight corpus run.
std::mutex& registry_mutex() {
    static std::mutex mutex;
    return mutex;
}

std::vector<RegisteredCheck>& registry_locked() {
    static std::vector<RegisteredCheck> checks = {
        {"game-par-vs-ref", generate_game_case, compare_game_par_vs_ref,
         game_param_shrinks},
        {"game-cache-vs-nocache", generate_game_case,
         compare_game_cache_vs_nocache, game_param_shrinks},
        {"game-compiled-vs-interpreted", generate_game_case,
         compare_game_compiled_vs_interpreted, game_param_shrinks},
        {"logic-eval-vs-expansion", generate_logic_case, compare_logic, nullptr},
        {"eulerian-vs-bruteforce", generate_eulerian_case, compare_eulerian,
         nullptr},
        {"coloring-vs-bruteforce", generate_coloring_case, compare_coloring,
         coloring_param_shrinks},
        {"hamiltonian-vs-bruteforce", generate_hamiltonian_case,
         compare_hamiltonian, nullptr},
        {"reduction-eulerian-vs-theorem", generate_reduction_case,
         compare_reduction_eulerian, nullptr},
    };
    return checks;
}

RegisteredCheck find_check(const std::string& name) {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const RegisteredCheck& c : registry_locked()) {
        if (name == c.name) {
            return c;
        }
    }
    check(false, "unknown differential check '" + name + "'");
    throw precondition_error("unreachable");
}

/// Shrinks a diverging case to a fixpoint, alternating graph delta-debugging
/// with check-specific parameter simplification.
Divergence shrink_case(const RegisteredCheck& c, const ReproCase& original,
                       const std::string& original_detail) {
    Divergence result;
    result.original_nodes = original.graph.num_nodes();

    ReproCase current = original;
    bool progress = true;
    while (progress) {
        progress = false;
        const DivergencePredicate still_diverges = [&](const LabeledGraph& g) {
            ReproCase candidate = current;
            candidate.graph = g;
            return c.compare(candidate).has_value();
        };
        const LabeledGraph smaller = shrink_graph(current.graph, still_diverges);
        if (!(smaller == current.graph)) {
            current.graph = smaller;
            progress = true;
        }
        if (c.param_shrinks != nullptr) {
            for (auto& candidate_params : c.param_shrinks(current.params)) {
                ReproCase candidate = current;
                candidate.params = candidate_params;
                bool diverges = false;
                try {
                    diverges = c.compare(candidate).has_value();
                } catch (...) {
                    diverges = false;
                }
                if (diverges) {
                    current.params = std::move(candidate_params);
                    progress = true;
                    break;
                }
            }
        }
    }

    result.repro = current;
    result.shrunk_nodes = current.graph.num_nodes();
    const auto detail = c.compare(current);
    result.detail = detail.value_or(original_detail);
    return result;
}

} // namespace

std::vector<std::string> check_names() {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    std::vector<std::string> names;
    for (const RegisteredCheck& c : registry_locked()) {
        names.emplace_back(c.name);
    }
    return names;
}

bool is_check_name(const std::string& name) {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const RegisteredCheck& c : registry_locked()) {
        if (name == c.name) {
            return true;
        }
    }
    return false;
}

void register_check(const RegisteredCheck& new_check) {
    check(!new_check.name.empty() && new_check.generate != nullptr &&
              new_check.compare != nullptr,
          "register_check needs a name, a generator, and a comparator");
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const RegisteredCheck& c : registry_locked()) {
        if (c.name == new_check.name) {
            check(c.generate == new_check.generate &&
                      c.compare == new_check.compare,
                  "differential check '" + new_check.name +
                      "' is already registered with different functions");
            return; // idempotent re-registration
        }
    }
    registry_locked().push_back(new_check);
}

CheckReport run_check(const std::string& name, std::uint64_t seed,
                      std::size_t instances, obs::Session* obs) {
    const RegisteredCheck c = find_check(name);
    CheckReport report;
    report.check = name;
    report.seed = seed;
    report.instances = instances;
    const auto start = std::chrono::steady_clock::now();
    {
        LPH_SPAN_NAMED(check_span, "oracle", "oracle.check");
        check_span.arg("instances", instances);
        for (std::size_t i = 0; i < instances; ++i) {
            const std::uint64_t iseed = instance_seed(seed, i);
            Rng rng(iseed);
            ReproCase instance = c.generate(rng);
            instance.check = name;
            instance.seed = iseed;
            instance.params["instance"] = std::to_string(i);
            const auto detail = c.compare(instance);
            if (detail.has_value()) {
                LPH_SPAN_NAMED(shrink_span, "oracle", "oracle.shrink");
                shrink_span.arg("original_nodes", instance.graph.num_nodes());
                report.divergences.push_back(shrink_case(c, instance, *detail));
            }
        }
    }
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (obs != nullptr) {
        obs->metrics().accumulate(
            "oracle.",
            {
                {"checks", 1.0},
                {"instances", static_cast<double>(instances)},
                {"divergences", static_cast<double>(report.divergences.size())},
                {"wall_ms", report.wall_ms},
            });
    }
    return report;
}

std::optional<std::string> replay_repro(const ReproCase& repro) {
    return find_check(repro.check).compare(repro);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string report_row_json(const CheckReport& report) {
    std::ostringstream out;
    out << "{\"check\":\"" << json_escape(report.check) << "\""
        << ",\"seed\":" << report.seed << ",\"instances\":" << report.instances
        << ",\"wall_ms\":" << report.wall_ms
        << ",\"instances_per_sec\":" << report.instances_per_sec()
        << ",\"divergences\":" << report.divergences.size() << ",\"status\":\""
        << (report.passed() ? "pass" : "fail") << "\",\"details\":[";
    for (std::size_t i = 0; i < report.divergences.size(); ++i) {
        const Divergence& d = report.divergences[i];
        if (i > 0) {
            out << ",";
        }
        out << "{\"detail\":\"" << json_escape(d.detail)
            << "\",\"original_nodes\":" << d.original_nodes
            << ",\"shrunk_nodes\":" << d.shrunk_nodes << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace lph
