#include "service/admission/cost_model.hpp"

#include "service/admission/calibration.hpp"

#include <algorithm>
#include <cmath>

namespace lph {
namespace service {
namespace admission {

const CostModel& calibrated_cost_model() {
    static const CostModel model = [] {
        CostModel m;
        m.base_us = kCalibratedBaseUs;
        m.per_element_us = kCalibratedPerElementUs;
        m.elements_per_node = kCalibratedElementsPerNode;
        return m;
    }();
    return model;
}

double predict_cost_us(std::size_t nodes, int radius, std::size_t quantifiers,
                       int alternation_depth, const CostModel& model) {
    // m = 3n + 1 matches the calibration fit: one element per node plus the
    // label-bit elements the structure mints alongside it.
    const double m =
        model.elements_per_node * static_cast<double>(nodes) + 1.0;
    const double linear = model.base_us + model.per_element_us * m;

    // Each FO quantifier multiplies the visit count by the domain size.
    const double fo_visits = std::pow(
        m, std::min(static_cast<double>(quantifiers), model.fo_exponent_cap));

    // A radius-r query touches the r-ball around each anchor; the ball grows
    // geometrically with the radius until it swallows the whole structure.
    const double ball =
        std::min(m, std::pow(model.avg_degree, std::max(radius, 0)));

    // Each SO alternation enumerates subsets of the element universe:
    // 2^(depth * m), capped — past the cap the prediction is already orders
    // of magnitude beyond any admission limit.
    const double so_exponent =
        std::min(model.so_exponent_cap,
                 static_cast<double>(std::max(alternation_depth, 0)) * m);
    const double so_factor = std::pow(2.0, so_exponent);
    return linear * fo_visits * ball * so_factor;
}

} // namespace admission
} // namespace service
} // namespace lph
