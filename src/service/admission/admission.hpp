#pragma once

#include "service/admission/cost_model.hpp"
#include "service/wire.hpp"

namespace lph {
namespace service {
namespace admission {

/// Admission-control policy (DESIGN.md "Language frontend & admission
/// control").  Default-off: an un-configured ServiceCore behaves exactly as
/// before.  When enabled, every workload request is priced by the cost
/// model before it is queued:
///
///   predicted >  max_cost_us    structured AdmissionRejected response,
///                               never queued
///   predicted >  defer_cost_us  routed to the big-job queue with its own
///                               worker budget, so interactive requests
///                               never wait behind it
///   otherwise                   admitted to the interactive queue
struct AdmissionOptions {
    bool enabled = false;
    double max_cost_us = 5e6;      ///< reject above this; 0 = never reject
    double defer_cost_us = 250e3;  ///< defer above this; 0 = never defer
    unsigned big_job_threads = 1;  ///< worker budget of the big-job queue
};

enum class Verdict { Admit, Defer, Reject };

struct Decision {
    Verdict verdict = Verdict::Admit;
    double predicted_us = 0;
    double limit_us = 0; ///< the limit that drove a Defer/Reject verdict
};

/// Whether this request type carries priceable engine work.  Control-plane
/// types (stats, health, graph_register, graph_patch) are always admitted:
/// their cost is bounded by the wire limits, and patches must never be
/// reordered behind a queue decision.
bool is_workload(RequestType type);

/// The cost-model features of one request.  `resolved_nodes` supplies the
/// graph size when the request references a resident graph by digest
/// (0 when the digest is unknown — the serve path will fail it anyway).
struct Features {
    std::size_t nodes = 0;
    int radius = 0;
    std::size_t quantifiers = 0;
    int alternation_depth = 0;
};

Features features_for(const Request& request, std::size_t resolved_nodes);

double predict_request_cost_us(
    const Request& request, std::size_t resolved_nodes,
    const CostModel& model = calibrated_cost_model());

Decision decide(const Request& request, std::size_t resolved_nodes,
                const AdmissionOptions& options,
                const CostModel& model = calibrated_cost_model());

} // namespace admission
} // namespace service
} // namespace lph
