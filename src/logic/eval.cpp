#include "logic/eval.hpp"

#include "core/check.hpp"
#include "dtm/errors.hpp"

#include <algorithm>
#include <chrono>

namespace lph {

void RelationValue::insert(ElementTuple t) {
    check(t.size() == arity_, "RelationValue::insert: arity mismatch");
    tuples_.insert(std::move(t));
}

namespace {

Element lookup(const Assignment& sigma, const std::string& var) {
    const auto it = sigma.fo.find(var);
    check(it != sigma.fo.end(), "evaluate: unassigned first-order variable " + var);
    return it->second;
}

/// Second-order assignments between two deadline checks.
constexpr std::uint64_t kDeadlineCheckInterval = 4096;

class Evaluator {
public:
    Evaluator(const Structure& s, const SOPolicy& policy) : s_(s), policy_(policy) {}

    bool eval(const Formula& phi, Assignment& sigma) {
        const FormulaNode& node = *phi;
        switch (node.kind) {
        case FormulaKind::Top:
            return true;
        case FormulaKind::Bottom:
            return false;
        case FormulaKind::Unary:
            check(node.rel_index <= s_.num_unary(),
                  "evaluate: unary relation index out of signature");
            return s_.unary_holds(node.rel_index - 1, lookup(sigma, node.var));
        case FormulaKind::Binary:
            check(node.rel_index <= s_.num_binary(),
                  "evaluate: binary relation index out of signature");
            return s_.binary_holds(node.rel_index - 1, lookup(sigma, node.var),
                                   lookup(sigma, node.var2));
        case FormulaKind::Equals:
            return lookup(sigma, node.var) == lookup(sigma, node.var2);
        case FormulaKind::Apply: {
            const auto it = sigma.so.find(node.rel_var);
            check(it != sigma.so.end(),
                  "evaluate: unassigned second-order variable " + node.rel_var);
            check(it->second.arity() == node.arity,
                  "evaluate: arity mismatch for " + node.rel_var);
            ElementTuple t;
            t.reserve(node.args.size());
            for (const auto& a : node.args) {
                t.push_back(lookup(sigma, a));
            }
            return it->second.contains(t);
        }
        case FormulaKind::Not:
            return !eval(node.children[0], sigma);
        case FormulaKind::Or:
            return eval(node.children[0], sigma) || eval(node.children[1], sigma);
        case FormulaKind::And:
            return eval(node.children[0], sigma) && eval(node.children[1], sigma);
        case FormulaKind::Implies:
            return !eval(node.children[0], sigma) || eval(node.children[1], sigma);
        case FormulaKind::Iff:
            return eval(node.children[0], sigma) == eval(node.children[1], sigma);
        case FormulaKind::ExistsFO:
        case FormulaKind::ForallFO: {
            const bool existential = node.kind == FormulaKind::ExistsFO;
            for (Element a = 0; a < s_.domain_size(); ++a) {
                if (eval_with(node.children[0], sigma, node.var, a) == existential) {
                    return existential;
                }
            }
            return !existential;
        }
        case FormulaKind::ExistsConn:
        case FormulaKind::ForallConn: {
            const bool existential = node.kind == FormulaKind::ExistsConn;
            const Element anchor = lookup(sigma, node.var2);
            for (Element a : s_.connected_to(anchor)) {
                if (eval_with(node.children[0], sigma, node.var, a) == existential) {
                    return existential;
                }
            }
            return !existential;
        }
        case FormulaKind::ExistsSO:
        case FormulaKind::ForallSO:
            return eval_so(node, sigma);
        }
        check(false, "evaluate: unreachable");
        return false;
    }

private:
    bool eval_with(const Formula& phi, Assignment& sigma, const std::string& var,
                   Element a) {
        const auto it = sigma.fo.find(var);
        if (it == sigma.fo.end()) {
            sigma.fo.emplace(var, a);
            const bool result = eval(phi, sigma);
            sigma.fo.erase(var);
            return result;
        }
        const Element saved = it->second;
        it->second = a;
        const bool result = eval(phi, sigma);
        sigma.fo[var] = saved;
        return result;
    }

    bool eval_so(const FormulaNode& node, Assignment& sigma) {
        const bool existential = node.kind == FormulaKind::ExistsSO;
        const auto universe = so_tuple_universe(s_, node.arity, policy_);
        check(universe.size() <= policy_.max_universe_size,
              "evaluate: second-order universe too large (" +
                  std::to_string(universe.size()) + " tuples for " + node.rel_var +
                  "); shrink the instance or use SOPolicy::LocalTuples");
        const std::uint64_t count = std::uint64_t{1} << universe.size();

        const auto saved = sigma.so.find(node.rel_var);
        const bool had = saved != sigma.so.end();
        const RelationValue saved_value = had ? saved->second : RelationValue(node.arity);
        if (had) {
            sigma.so.erase(node.rel_var);
        }

        bool result = !existential;
        for (std::uint64_t mask = 0; mask < count; ++mask) {
            check_deadline();
            RelationValue value(node.arity);
            for (std::size_t i = 0; i < universe.size(); ++i) {
                if ((mask >> i) & 1) {
                    value.insert(universe[i]);
                }
            }
            sigma.so.insert_or_assign(node.rel_var, std::move(value));
            const bool inner = eval(node.children[0], sigma);
            sigma.so.erase(node.rel_var);
            if (inner == existential) {
                result = existential;
                break;
            }
        }
        if (had) {
            sigma.so.insert_or_assign(node.rel_var, saved_value);
        }
        return result;
    }

    /// Counts one second-order assignment and, every
    /// kDeadlineCheckInterval of them, compares the clock with the policy's
    /// deadline.
    void check_deadline() {
        if (policy_.deadline_ms <= 0 || ++assignments_ % kDeadlineCheckInterval != 0) {
            return;
        }
        const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() - start_)
                                      .count();
        if (elapsed_ms > policy_.deadline_ms) {
            RunFault fault;
            fault.code = RunError::DeadlineExceeded;
            fault.fatal = true;
            fault.detail = "wall-clock deadline of " +
                           std::to_string(policy_.deadline_ms) +
                           " ms exceeded after " + std::to_string(assignments_) +
                           " second-order assignments";
            throw run_error(std::move(fault));
        }
    }

    const Structure& s_;
    const SOPolicy& policy_;
    const std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::uint64_t assignments_ = 0;
};

} // namespace

std::vector<ElementTuple> so_tuple_universe(const Structure& s, std::size_t arity,
                                            const SOPolicy& policy) {
    std::vector<ElementTuple> universe;
    if (arity == 1) {
        for (Element a = 0; a < s.domain_size(); ++a) {
            universe.push_back({a});
        }
        return universe;
    }
    if (policy.universe == SOPolicy::Universe::AllTuples) {
        ElementTuple t(arity, 0);
        while (true) {
            universe.push_back(t);
            std::size_t pos = arity;
            while (pos > 0) {
                --pos;
                if (++t[pos] < s.domain_size()) {
                    break;
                }
                t[pos] = 0;
                if (pos == 0) {
                    return universe;
                }
            }
        }
    }
    // LocalTuples: every element lies within locality_radius of the first.
    for (Element a = 0; a < s.domain_size(); ++a) {
        const auto nearby = s.ball(a, policy.locality_radius);
        ElementTuple t(arity, a);
        std::vector<std::size_t> idx(arity - 1, 0);
        while (true) {
            for (std::size_t i = 0; i + 1 < arity; ++i) {
                t[i + 1] = nearby[idx[i]];
            }
            universe.push_back(t);
            std::size_t pos = arity - 1;
            while (pos > 0) {
                --pos;
                if (++idx[pos] < nearby.size()) {
                    break;
                }
                idx[pos] = 0;
                if (pos == 0) {
                    goto next_first;
                }
            }
        }
    next_first:;
    }
    return universe;
}

bool evaluate(const Structure& s, const Formula& phi, const Assignment& sigma,
              const SOPolicy& policy) {
    Assignment working = sigma;
    Evaluator evaluator(s, policy);
    return evaluator.eval(phi, working);
}

bool satisfies(const Structure& s, const Formula& sentence, const SOPolicy& policy) {
    check(free_fo_variables(sentence).empty(),
          "satisfies: sentence has free first-order variables");
    check(free_so_variables(sentence).empty(),
          "satisfies: sentence has free second-order variables");
    return evaluate(s, sentence, Assignment{}, policy);
}

} // namespace lph
