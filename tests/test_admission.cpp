// Tests for the admission-control subsystem (src/service/admission): the
// calibrated cost model's monotonicity and saturation caps, the
// reject/defer/admit decision tree, and the ServiceCore integration — a
// structured AdmissionRejected response (never a hang), big jobs routed to
// their own queue so interactive requests are served first, and the
// admission counters flowing through ServiceStats.

#include "service/admission/admission.hpp"
#include "service/admission/cost_model.hpp"
#include "service/core.hpp"
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <vector>

namespace {

using namespace lph;
using namespace lph::service;

std::string cycle6_payload() {
    return "graph 6\\nedge 0 1\\nedge 1 2\\nedge 2 3\\nedge 3 4\\nedge 4 5\\n"
           "edge 5 0\\n";
}

Request eval_request(const std::string& formula, const std::string& id) {
    return parse_request("{\"type\":\"eval\",\"id\":\"" + id +
                             "\",\"formula\":\"" + formula + "\",\"graph\":\"" +
                             cycle6_payload() + "\"}",
                         1, WireLimits{});
}

/// Hostile-but-valid input: eight unbounded quantifiers price far beyond any
/// sane admission limit (the evaluator would visit ~n^8 assignments).
std::string oversized_formula() {
    return "exists a. exists b. exists c. exists d. exists e. exists f. "
           "exists g. exists h. (a = b & O1(c))";
}

// -------------------------------------------------------------- cost model -

TEST(CostModel, MonotoneInEveryFeatureUntilCapsSaturate) {
    const auto cost = [](std::size_t n, int r, std::size_t q, int d) {
        return admission::predict_cost_us(n, r, q, d);
    };
    // Nodes.
    EXPECT_LT(cost(8, 1, 2, 0), cost(16, 1, 2, 0));
    // Radius grows the ball until it saturates at the whole universe.
    EXPECT_LT(cost(8, 0, 2, 0), cost(8, 1, 2, 0));
    EXPECT_LT(cost(8, 1, 2, 0), cost(8, 2, 2, 0));
    EXPECT_EQ(cost(8, 3, 2, 0), cost(8, 9, 2, 0));
    // Quantifier count, capped at the exponent guard.
    EXPECT_LT(cost(8, 1, 1, 0), cost(8, 1, 2, 0));
    EXPECT_EQ(cost(8, 1, 12, 0), cost(8, 1, 20, 0));
    // Alternation depth, capped at the SO exponent guard.
    EXPECT_LT(cost(8, 1, 1, 0), cost(8, 1, 1, 1));
    EXPECT_EQ(cost(8, 1, 1, 2), cost(8, 1, 1, 3));
}

TEST(CostModel, CalibrationConstantsAreSane) {
    const admission::CostModel& model = admission::calibrated_cost_model();
    EXPECT_GT(model.base_us, 0.0);
    EXPECT_GT(model.per_element_us, 0.0);
    EXPECT_GT(model.elements_per_node, 0.0);
}

TEST(CostModel, OracleChecksArePricedPerInstance) {
    const Request r = parse_request(
        "{\"type\":\"oracle_check\",\"check\":\"eulerian-vs-bruteforce\","
        "\"seed\":1,\"instances\":10}",
        1, WireLimits{});
    const admission::CostModel& model = admission::calibrated_cost_model();
    EXPECT_DOUBLE_EQ(admission::predict_request_cost_us(r, 0),
                     model.oracle_instance_us * 10);
}

// ---------------------------------------------------------- decision tree --

TEST(AdmissionDecide, RejectDeferAdmitByThreshold) {
    const Request cheap = eval_request("exists x. O1(x)", "a");
    const Request big = eval_request(oversized_formula(), "b");

    admission::AdmissionOptions options;
    options.enabled = true;
    options.max_cost_us = 5e6;
    options.defer_cost_us = 250e3;

    const admission::Decision admit = admission::decide(cheap, 0, options);
    EXPECT_EQ(admit.verdict, admission::Verdict::Admit);
    EXPECT_GT(admit.predicted_us, 0.0);

    const admission::Decision reject = admission::decide(big, 0, options);
    EXPECT_EQ(reject.verdict, admission::Verdict::Reject);
    EXPECT_GT(reject.predicted_us, options.max_cost_us);
    EXPECT_DOUBLE_EQ(reject.limit_us, options.max_cost_us);

    // Between the thresholds: deferred to the big-job queue.
    options.max_cost_us = reject.predicted_us * 2;
    const admission::Decision defer = admission::decide(big, 0, options);
    EXPECT_EQ(defer.verdict, admission::Verdict::Defer);
    EXPECT_DOUBLE_EQ(defer.limit_us, options.defer_cost_us);
}

TEST(AdmissionDecide, ControlPlaneIsNeverWorkload) {
    EXPECT_FALSE(admission::is_workload(RequestType::Stats));
    EXPECT_FALSE(admission::is_workload(RequestType::Health));
    EXPECT_FALSE(admission::is_workload(RequestType::GraphRegister));
    EXPECT_FALSE(admission::is_workload(RequestType::GraphPatch));
    EXPECT_TRUE(admission::is_workload(RequestType::Eval));
    EXPECT_TRUE(admission::is_workload(RequestType::Game));
}

// --------------------------------------------------- ServiceCore wiring ----

ServiceOptions admission_options() {
    ServiceOptions options;
    options.manual_drain = true;
    options.admission.enabled = true;
    return options;
}

TEST(AdmissionCore, OversizedRequestIsStructuredRejection) {
    ServiceCore core(admission_options());
    std::future<Response> f = core.submit(eval_request(oversized_formula(), "x"));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const Response r = f.get();
    EXPECT_EQ(r.status, "rejected");
    EXPECT_EQ(r.error, "AdmissionRejected");
    EXPECT_NE(r.detail.find("predicted cost"), std::string::npos);
    EXPECT_NE(r.body.find("\"predicted_cost_us\":"), std::string::npos);
    EXPECT_NE(r.body.find("\"admission_limit_us\":"), std::string::npos);
    EXPECT_EQ(r.id, "\"x\"");

    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.admission_rejected, 1u);
    EXPECT_EQ(stats.admission_admitted, 0u);
    core.stop();
}

TEST(AdmissionCore, DeferredJobsWaitBehindInteractiveOnes) {
    ServiceOptions options = admission_options();
    // Price every request above the defer threshold except the trivial one.
    options.admission.defer_cost_us = 1e5;
    options.admission.max_cost_us = 1e18;
    ServiceCore core(options);

    // Four quantifiers price past 1e5 us but still execute in milliseconds.
    std::future<Response> big = core.submit(
        eval_request("exists a. exists b. exists c. exists d. a = b", "big"));
    std::future<Response> small =
        core.submit(eval_request("exists x. O1(x)", "small"));

    {
        const ServiceStats stats = core.stats();
        EXPECT_EQ(stats.admission_deferred, 1u);
        EXPECT_EQ(stats.admission_admitted, 1u);
        EXPECT_EQ(stats.big_queue_depth, 1u);
        EXPECT_EQ(stats.queue_depth, 1u);
    }

    // The manual pump drains the interactive queue first, even though the
    // big job was submitted first.
    ASSERT_TRUE(core.drain_some());
    ASSERT_EQ(small.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(big.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(small.get().status, "ok");

    ASSERT_TRUE(core.drain_some());
    EXPECT_EQ(big.get().status, "ok");
    EXPECT_EQ(core.stats().big_queue_depth, 0u);
    core.stop();
}

TEST(AdmissionCore, BigJobPoolIsolatesInteractiveTrafficUnderLoad) {
    ServiceOptions options;
    options.threads = 2;
    options.admission.enabled = true;
    options.admission.defer_cost_us = 1e5;
    options.admission.max_cost_us = 1e18;
    options.admission.big_job_threads = 1;
    ServiceCore core(options);

    std::vector<std::future<Response>> big, small;
    for (int i = 0; i < 4; ++i) {
        big.push_back(core.submit(eval_request(
            "exists a. exists b. exists c. exists d. a = b",
            "big" + std::to_string(i))));
    }
    for (int i = 0; i < 16; ++i) {
        small.push_back(core.submit(
            eval_request("exists x. O1(x)", "small" + std::to_string(i))));
    }
    for (auto& f : small) {
        EXPECT_EQ(f.get().status, "ok");
    }
    for (auto& f : big) {
        EXPECT_EQ(f.get().status, "ok");
    }
    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.admission_deferred, 4u);
    EXPECT_EQ(stats.admission_admitted, 16u);
    EXPECT_EQ(stats.admission_rejected, 0u);
    core.stop();
}

TEST(AdmissionCore, DisabledAdmissionCountsNothing) {
    ServiceOptions options;
    options.manual_drain = true;
    ServiceCore core(options);
    std::future<Response> f = core.submit(eval_request("exists x. O1(x)", "a"));
    ASSERT_TRUE(core.drain_some());
    EXPECT_EQ(f.get().status, "ok");
    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.admission_admitted, 0u);
    EXPECT_EQ(stats.admission_rejected, 0u);
    EXPECT_EQ(stats.admission_deferred, 0u);
    core.stop();
}

TEST(AdmissionCore, ControlPlaneAlwaysAdmittedEvenWithTinyLimit) {
    ServiceOptions options = admission_options();
    options.admission.max_cost_us = 0.001; // rejects every priced workload
    ServiceCore core(options);

    std::future<Response> health =
        core.submit(parse_request("{\"type\":\"health\"}", 1, WireLimits{}));
    std::future<Response> stats_rq =
        core.submit(parse_request("{\"type\":\"stats\"}", 1, WireLimits{}));
    ASSERT_TRUE(core.drain_some());
    ASSERT_TRUE(core.drain_some());
    EXPECT_EQ(health.get().status, "ok");
    EXPECT_EQ(stats_rq.get().status, "ok");

    std::future<Response> priced =
        core.submit(eval_request("exists x. O1(x)", "w"));
    const Response r = priced.get();
    EXPECT_EQ(r.status, "rejected");
    EXPECT_EQ(r.error, "AdmissionRejected");
    core.stop();
}

TEST(AdmissionCore, MetricsSnapshotCarriesAdmissionCounters) {
    ServiceOptions options = admission_options();
    ServiceCore core(options);
    std::future<Response> f = core.submit(eval_request(oversized_formula(), "x"));
    EXPECT_EQ(f.get().status, "rejected");
    const std::vector<std::pair<std::string, double>> metrics =
        core.stats().to_metrics();
    bool saw_rejected = false;
    for (const auto& [name, value] : metrics) {
        if (name == "admission.rejected") {
            saw_rejected = true;
            EXPECT_EQ(value, 1.0);
        }
    }
    EXPECT_TRUE(saw_rejected);
    core.stop();
}

} // namespace
