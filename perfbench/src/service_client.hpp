#pragma once

// The in-process client side of the service workloads: one generator thread
// parses wire lines, submits them to a ServiceCore, harvests the futures and
// renders each response line, recording where every request's time went.

#include "common.hpp"
#include "layers.hpp"

#include "service/core.hpp"

#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One finished request as the client saw it.
struct Sample {
    ClientOp t;
    std::size_t key = 0;   ///< caller's tag (distinct-request index, graph...)
    bool patch = false;
    lph::service::RequestType type = lph::service::RequestType::Health;
    std::string status;    ///< "ok" | "error" | "rejected"
    std::string error;
    bool has_verdict = false;
    bool verdict = false;
    std::size_t bytes_in = 0, bytes_out = 0;
    std::uint64_t queue_us = 0, batch_us = 0, exec_us = 0, write_us = 0;
    std::uint64_t digest = 0; ///< the "digest" a graph_patch response echoes

    /// Client-observed: due time to rendered response line.
    double latency_ms() const { return ms_between(t.due, t.render_end); }
    /// The program's share of it: parse, the server stages, render.
    double service_ms() const {
        return ms_between(t.parse_start, t.parse_end) +
               static_cast<double>(queue_us + batch_us + exec_us + write_us) / 1000.0 +
               ms_between(t.observed, t.render_end);
    }
    bool ok() const { return status == "ok"; }
};

/// A request in flight.
struct Inflight {
    std::future<lph::service::Response> future;
    Sample sample;
};

/// Parses `line` and submits it; parse and submit are timed into the sample.
/// A line that fails to parse resolves immediately as a protocol error.
Inflight submit_line(lph::service::ServiceCore& core, const std::string& line,
                     const lph::service::WireLimits& limits, Clock::time_point due,
                     std::size_t key, bool patch);

/// Takes the response out of a ready future and renders it.
Sample finish(Inflight& inflight);

/// The generator's harvest loop step: waits until `deadline` for the oldest
/// in-flight request (with a short tick while several are in flight, so an
/// out-of-order completion is noticed promptly) and moves every ready
/// request into `done`.
void harvest(std::deque<Inflight>& inflight, Clock::time_point deadline,
             std::vector<Sample>& done);

/// Counter deltas of a measured phase (`after` minus `before`).  Gauges
/// (queue depth, entries) and verdict_mismatches keep their `after` value:
/// a soundness violation at any time fails the run.
lph::service::ServiceStats since(const lph::service::ServiceStats& after,
                                 const lph::service::ServiceStats& before);
lph::service::ResultMemoStats since(const lph::service::ResultMemoStats& after,
                                    const lph::service::ResultMemoStats& before);
lph::ViewCacheStats since(const lph::ViewCacheStats& after,
                          const lph::ViewCacheStats& before);

/// Adds the samples to report.attempted and the ones not ok to report.failed.
void count_outcomes(const std::vector<Sample>& samples, Report& report);

/// The correctness gates' reference server: a manually drained core with
/// memo, batching and view-cache sharing off.
lph::service::ServiceOptions reference_options(const lph::service::WireLimits& limits);

/// The verdict the reference core gives `line` served unbatched on the
/// interpreted backend; nullopt when it answers without an ok verdict.
std::optional<bool> reference_verdict(lph::service::ServiceCore& reference,
                                      const std::string& line,
                                      const lph::service::WireLimits& limits);

/// Stage sums over samples, for the unattributed-time share.
struct StageTotals {
    double parse_ms = 0, queue_ms = 0, batch_ms = 0, exec_ms = 0, write_ms = 0,
           render_ms = 0, latency_ms = 0;
    double unattributed_share() const;
};
StageTotals stage_totals(const std::vector<Sample>& samples);

/// CPU the generator thread spent outside the program's wire code (waiting,
/// bookkeeping): what cpu_ms_per_op subtracts so it measures the program.
double generator_overhead_cpu_s(double generator_cpu_s,
                                const std::vector<Sample>& samples);

/// Fills the service-side per-layer metrics shared by serve_open and
/// patch_churn from the samples and the core's stats getters.
void service_layer_metrics(const std::vector<Sample>& samples,
                           const lph::service::ServiceStats& stats,
                           const lph::service::ResultMemoStats& memo,
                           const lph::ViewCacheStats& cache, Report& report);

} // namespace perfbench
