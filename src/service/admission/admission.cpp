#include "service/admission/admission.hpp"

#include "lang/analyze.hpp"
#include "service/registry.hpp"

#include <map>
#include <mutex>

namespace lph {
namespace service {
namespace admission {

namespace {

Features analyzed_features(const lang::FormulaAnalysis& analysis) {
    Features f;
    f.radius = analysis.radius;
    f.quantifiers = analysis.fo_quantifiers + analysis.conn_quantifiers;
    f.alternation_depth = static_cast<int>(analysis.so_quantifiers);
    return f;
}

/// Features of a corpus formula, cached by name: the deep corpus sentences
/// (hamiltonian and friends) are moderately expensive to build, and pricing
/// a request must stay far cheaper than serving it.  "random" depends on
/// fseed and is analyzed per request — generated sentences are tiny.
Features logic_features(const std::string& name, std::uint64_t fseed) {
    static std::mutex mutex;
    static std::map<std::string, Features> cache;
    if (name != "random") {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(name);
        if (it != cache.end()) {
            return it->second;
        }
    }
    const Features f =
        analyzed_features(lang::analyze(formula_by_name(name, fseed)));
    if (name != "random") {
        const std::lock_guard<std::mutex> lock(mutex);
        cache.emplace(name, f);
    }
    return f;
}

} // namespace

bool is_workload(RequestType type) {
    switch (type) {
    case RequestType::Game:
    case RequestType::Logic:
    case RequestType::Eval:
    case RequestType::Decide:
    case RequestType::OracleCheck:
        return true;
    case RequestType::Stats:
    case RequestType::Health:
    case RequestType::GraphRegister:
    case RequestType::GraphPatch:
        return false;
    }
    return false;
}

Features features_for(const Request& request, std::size_t resolved_nodes) {
    Features f;
    f.nodes = request.has_graph ? request.graph.num_nodes() : resolved_nodes;
    switch (request.type) {
    case RequestType::Game:
        // Radius-1 views; each certificate layer alternates the game.
        f.radius = 1;
        f.alternation_depth = request.layers;
        break;
    case RequestType::Logic: {
        const Features lf = logic_features(request.formula, request.fseed);
        f.radius = lf.radius;
        f.quantifiers = lf.quantifiers;
        f.alternation_depth = lf.alternation_depth;
        break;
    }
    case RequestType::Eval: {
        Features ef = analyzed_features(lang::analyze(request.eval_formula));
        ef.nodes = f.nodes;
        return ef;
    }
    case RequestType::Decide:
        // Hand-assigned shapes for the decision procedures: eulerian is a
        // degree scan, coloring backtracks one subset family, hamiltonian
        // searches permutations (the deepest of the three).
        if (request.problem == "eulerian") {
            f.radius = 1;
            f.quantifiers = 1;
        } else if (request.problem == "coloring") {
            f.radius = 1;
            f.quantifiers = 2;
            f.alternation_depth = 1;
        } else {
            f.radius = 2;
            f.quantifiers = 3;
            f.alternation_depth = 2;
        }
        break;
    case RequestType::OracleCheck:
    case RequestType::Stats:
    case RequestType::Health:
    case RequestType::GraphRegister:
    case RequestType::GraphPatch:
        break;
    }
    return f;
}

double predict_request_cost_us(const Request& request,
                               std::size_t resolved_nodes,
                               const CostModel& model) {
    if (request.type == RequestType::OracleCheck) {
        // Harness instances have their own generated graphs; the request's
        // only cost lever is how many of them it asks for.
        return model.oracle_instance_us *
               static_cast<double>(request.instances);
    }
    const Features f = features_for(request, resolved_nodes);
    return predict_cost_us(f.nodes, f.radius, f.quantifiers,
                           f.alternation_depth, model);
}

Decision decide(const Request& request, std::size_t resolved_nodes,
                const AdmissionOptions& options, const CostModel& model) {
    Decision d;
    d.predicted_us = predict_request_cost_us(request, resolved_nodes, model);
    if (options.max_cost_us > 0 && d.predicted_us > options.max_cost_us) {
        d.verdict = Verdict::Reject;
        d.limit_us = options.max_cost_us;
    } else if (options.defer_cost_us > 0 &&
               d.predicted_us > options.defer_cost_us) {
        d.verdict = Verdict::Defer;
        d.limit_us = options.defer_cost_us;
    }
    return d;
}

} // namespace admission
} // namespace service
} // namespace lph
