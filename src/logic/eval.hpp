#pragma once

#include "logic/formula.hpp"
#include "structure/structure.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace lph {

/// A k-tuple of structure elements.
using ElementTuple = std::vector<Element>;

/// The value of a second-order variable: a finite k-ary relation.
class RelationValue {
public:
    explicit RelationValue(std::size_t arity) : arity_(arity) {}

    std::size_t arity() const { return arity_; }
    bool contains(const ElementTuple& t) const { return tuples_.count(t) > 0; }
    void insert(ElementTuple t);
    void erase(const ElementTuple& t) { tuples_.erase(t); }
    std::size_t size() const { return tuples_.size(); }
    const std::set<ElementTuple>& tuples() const { return tuples_; }

    bool operator==(const RelationValue& other) const {
        return arity_ == other.arity_ && tuples_ == other.tuples_;
    }

private:
    std::size_t arity_;
    std::set<ElementTuple> tuples_;
};

/// A variable assignment sigma: first-order variables to elements,
/// second-order variables to relations (Section 5.1).
struct Assignment {
    std::map<std::string, Element> fo;
    std::map<std::string, RelationValue> so;
};

/// How second-order quantifiers are enumerated by the model checker.
///
/// Brute-force enumeration of all subsets of D^k is only feasible for tiny
/// domains; the `LocalTuples` universe restricts quantification to tuples
/// whose elements all lie within `locality_radius` of the tuple's first
/// element.  By the argument in the proof of Theorem 12 (backward direction),
/// this loses no generality when the matrix is a BF formula of matching
/// radius: far-apart tuples are never inspected.
struct SOPolicy {
    enum class Universe { AllTuples, LocalTuples };
    Universe universe = Universe::AllTuples;
    int locality_radius = 2;
    /// Enumeration guard: a quantifier whose tuple universe has more than
    /// this many tuples throws precondition_error instead of running for
    /// astronomically long.
    std::size_t max_universe_size = 24;
    /// Wall-clock budget of one evaluate()/satisfies() call in milliseconds;
    /// 0 disables.  Checked every few thousand second-order assignments;
    /// past it the call throws run_error(RunError::DeadlineExceeded).
    double deadline_ms = 0;
};

/// Evaluates phi on S under sigma (Table 1 semantics).  All free variables of
/// phi must be assigned; SO quantifiers are enumerated per `policy`.
bool evaluate(const Structure& s, const Formula& phi, const Assignment& sigma,
              const SOPolicy& policy = {});

/// Evaluates a sentence (no free variables).
bool satisfies(const Structure& s, const Formula& sentence,
               const SOPolicy& policy = {});

/// The tuple universe a second-order quantifier of the given arity ranges
/// over under `policy` (exposed for tests and for certificate encodings).
std::vector<ElementTuple> so_tuple_universe(const Structure& s, std::size_t arity,
                                            const SOPolicy& policy);

} // namespace lph
