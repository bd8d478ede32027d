#include "core/check.hpp"
#include "dtm/errors.hpp"
#include "graph/generators.hpp"
#include "logic/eval.hpp"
#include "logic/examples.hpp"
#include "structure/graph_structure.hpp"

#include <gtest/gtest.h>

namespace lph {
namespace {

using namespace fl;

Structure word_structure(const BitString& word) {
    Structure s(word.size(), 1, 1);
    for (std::size_t i = 0; i < word.size(); ++i) {
        if (word[i] == '1') {
            s.set_unary(0, i);
        }
        if (i + 1 < word.size()) {
            s.add_binary(0, i, i + 1);
        }
    }
    return s;
}

TEST(Eval, AtomsOnWords) {
    const Structure s = word_structure("010");
    Assignment sigma;
    sigma.fo["x"] = 1;
    sigma.fo["y"] = 2;
    EXPECT_TRUE(evaluate(s, unary(1, "x"), sigma));
    EXPECT_FALSE(evaluate(s, unary(1, "y"), sigma));
    EXPECT_TRUE(evaluate(s, binary(1, "x", "y"), sigma));
    EXPECT_FALSE(evaluate(s, binary(1, "y", "x"), sigma));
    EXPECT_FALSE(evaluate(s, equals("x", "y"), sigma));
}

TEST(Eval, Connectives) {
    const Structure s = word_structure("1");
    Assignment sigma;
    sigma.fo["x"] = 0;
    EXPECT_TRUE(evaluate(s, disj(bottom(), unary(1, "x")), sigma));
    EXPECT_FALSE(evaluate(s, conj(top(), bottom()), sigma));
    EXPECT_TRUE(evaluate(s, implies(bottom(), bottom()), sigma));
    EXPECT_TRUE(evaluate(s, iff(top(), unary(1, "x")), sigma));
    EXPECT_FALSE(evaluate(s, negate(top()), sigma));
}

TEST(Eval, UnboundedQuantifiers) {
    const Structure s = word_structure("010");
    EXPECT_TRUE(satisfies(s, exists("x", unary(1, "x"))));
    EXPECT_FALSE(satisfies(s, forall("x", unary(1, "x"))));
    EXPECT_TRUE(satisfies(word_structure("111"), forall("x", unary(1, "x"))));
}

TEST(Eval, BoundedQuantifiersRangeOverConnected) {
    const Structure s = word_structure("0100");
    Assignment sigma;
    sigma.fo["y"] = 0;
    // Position 1 is connected to 0 and carries a 1.
    EXPECT_TRUE(evaluate(s, exists_conn("z", "y", unary(1, "z")), sigma));
    sigma.fo["y"] = 3;
    // Position 3's only neighbor is 2, which is 0.
    EXPECT_FALSE(evaluate(s, exists_conn("z", "y", unary(1, "z")), sigma));
}

TEST(Eval, SecondOrderWithExplicitRelation) {
    const Structure s = word_structure("000");
    RelationValue r(2);
    r.insert({0, 2});
    Assignment sigma;
    sigma.so.emplace("R", r);
    sigma.fo["x"] = 0;
    sigma.fo["y"] = 2;
    EXPECT_TRUE(evaluate(s, apply("R", {"x", "y"}), sigma));
    EXPECT_FALSE(evaluate(s, apply("R", {"y", "x"}), sigma));
}

TEST(Eval, ExistentialSOFindsWitness) {
    // There is a set X containing exactly the 1-positions.
    const Structure s = word_structure("0110");
    const Formula phi =
        exists_so("X", 1, forall("x", iff(apply("X", {"x"}), unary(1, "x"))));
    EXPECT_TRUE(satisfies(s, phi));
}

TEST(Eval, UniversalSOCanFail) {
    const Structure s = word_structure("01");
    // Not every set X agrees with the bit predicate.
    const Formula phi =
        forall_so("X", 1, forall("x", iff(apply("X", {"x"}), unary(1, "x"))));
    EXPECT_FALSE(satisfies(s, phi));
}

TEST(Eval, UniverseGuardThrows) {
    const Structure s = word_structure("0000000000"); // 10 elements
    SOPolicy policy;
    policy.max_universe_size = 8;
    const Formula phi = exists_so("X", 1, top());
    EXPECT_THROW(satisfies(s, phi, policy), precondition_error);
}

TEST(Eval, DeadlineStopsTheEnumeration) {
    // 2-colourability of an 11-cycle enumerates 2^11 sets per colour class;
    // a 1 ms budget must end it with the runners' DeadlineExceeded error.
    const GraphStructure gs(cycle_graph(11, "1"));
    SOPolicy policy;
    policy.deadline_ms = 1;
    try {
        satisfies(gs.structure(), paper_formulas::two_colorable(), policy);
        FAIL() << "expected DeadlineExceeded";
    } catch (const run_error& e) {
        EXPECT_EQ(e.code(), RunError::DeadlineExceeded);
    }
    // A budget the evaluation fits in changes nothing.
    const GraphStructure small(cycle_graph(4, "1"));
    policy.deadline_ms = 60000;
    EXPECT_TRUE(satisfies(small.structure(), paper_formulas::two_colorable(), policy));
}

TEST(Eval, TupleUniverseSizes) {
    const Structure s = word_structure("000");
    SOPolicy all;
    EXPECT_EQ(so_tuple_universe(s, 1, all).size(), 3u);
    EXPECT_EQ(so_tuple_universe(s, 2, all).size(), 9u);
    SOPolicy local;
    local.universe = SOPolicy::Universe::LocalTuples;
    local.locality_radius = 1;
    // Pairs (a,b) with b within distance 1 of a on the 3-chain:
    // 0:{0,1} 1:{0,1,2} 2:{1,2} -> 2+3+2 = 7.
    EXPECT_EQ(so_tuple_universe(s, 2, local).size(), 7u);
}

// --- Section 5.2 formulas evaluated on structural representations. ---

TEST(PaperEval, IsNodeAndBits) {
    LabeledGraph g = path_graph(2, "1");
    const GraphStructure gs(g);
    Assignment sigma;
    sigma.fo["x"] = gs.node_element(0);
    EXPECT_TRUE(evaluate(gs.structure(), paper_formulas::is_node("x"), sigma));
    sigma.fo["x"] = gs.bit_element(0, 1);
    EXPECT_FALSE(evaluate(gs.structure(), paper_formulas::is_node("x"), sigma));
    EXPECT_TRUE(evaluate(gs.structure(), paper_formulas::is_bit1("x"), sigma));
    EXPECT_FALSE(evaluate(gs.structure(), paper_formulas::is_bit0("x"), sigma));
}

TEST(PaperEval, IsSelectedExactlyLabelOne) {
    LabeledGraph g = path_graph(3, "1");
    g.set_label(1, "11"); // "11" is selected-looking but not exactly "1"
    g.set_label(2, "0");
    const GraphStructure gs(g);
    Assignment sigma;
    sigma.fo["x"] = gs.node_element(0);
    EXPECT_TRUE(evaluate(gs.structure(), paper_formulas::is_selected("x"), sigma));
    sigma.fo["x"] = gs.node_element(1);
    EXPECT_FALSE(evaluate(gs.structure(), paper_formulas::is_selected("x"), sigma));
    sigma.fo["x"] = gs.node_element(2);
    EXPECT_FALSE(evaluate(gs.structure(), paper_formulas::is_selected("x"), sigma));
}

class AllSelectedFormula : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllSelectedFormula, MatchesGroundTruth) {
    const std::size_t n = GetParam();
    LabeledGraph yes = cycle_graph(n, "1");
    LabeledGraph no = cycle_graph(n, "1");
    no.set_label(n / 2, "0");
    EXPECT_TRUE(satisfies(GraphStructure(yes).structure(),
                          paper_formulas::all_selected()));
    EXPECT_FALSE(satisfies(GraphStructure(no).structure(),
                           paper_formulas::all_selected()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllSelectedFormula, ::testing::Values(3u, 4u, 6u, 9u));

TEST(PaperEval, TwoColorableOnSmallCycles) {
    // Unlabeled cycles keep the SO universes tiny.
    const Formula phi = paper_formulas::two_colorable();
    EXPECT_TRUE(satisfies(GraphStructure(cycle_graph(4, "")).structure(), phi));
    EXPECT_FALSE(satisfies(GraphStructure(cycle_graph(5, "")).structure(), phi));
}

TEST(PaperEval, ThreeColorableSmall) {
    const Formula phi = paper_formulas::three_colorable();
    EXPECT_TRUE(satisfies(GraphStructure(cycle_graph(5, "")).structure(), phi));
    EXPECT_FALSE(satisfies(GraphStructure(complete_graph(4, "")).structure(), phi));
}

} // namespace
} // namespace lph
