#pragma once

#include <cstddef>

namespace lph {
namespace service {
namespace admission {

/// The admission cost model: a calibrated linear element-scan term scaled by
/// multiplicative structure factors.  The linear coefficients (base_us,
/// per_element_us, elements_per_node) come from calibration.hpp, which
/// scripts/cost_calibrate.py fits against the committed
/// BM_Row_LPComplete_Eulerian baseline rows; the structural factors model
/// how the evaluator's search space grows and are deliberately pessimistic —
/// admission exists to keep the service responsive, not to meter accurately.
struct CostModel {
    double base_us;            ///< fixed per-request overhead
    double per_element_us;     ///< linear scan cost per structure element
    double elements_per_node;  ///< structure elements minted per graph node
    double avg_degree = 4.0;   ///< ball growth per locality-radius step
    double fo_exponent_cap = 12.0;  ///< largest modeled m^quantifiers power
    double so_exponent_cap = 48.0;  ///< largest modeled lg of SO enumeration
    double oracle_instance_us = 2000.0; ///< per oracle_check instance
};

/// The model with the committed calibration table baked in.
const CostModel& calibrated_cost_model();

/// Predicted serving cost in microseconds of one request with:
///   nodes              graph size n (m = elements_per_node * n + 1)
///   radius             locality radius r of the query's view/ball
///   quantifiers        first-order quantifier count p (visits ~ m^p)
///   alternation_depth  SO-quantifier / layer alternation depth
///                      (enumeration ~ 2^(depth * m))
///
/// The game engine picks its leaf-evaluation core itself, so a request is
/// priced by its shape alone.
///
/// Strictly monotone in each of nodes / radius / quantifiers /
/// alternation_depth until the corresponding cap saturates (the radius ball
/// at m, the exponents at fo_exponent_cap / so_exponent_cap) — anything past
/// a cap is far beyond every admission limit anyway.
double predict_cost_us(std::size_t nodes, int radius, std::size_t quantifiers,
                       int alternation_depth,
                       const CostModel& model = calibrated_cost_model());

} // namespace admission
} // namespace service
} // namespace lph
