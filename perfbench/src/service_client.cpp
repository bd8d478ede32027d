#include "service_client.hpp"

#include "core/check.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace perfbench {

using namespace lph::service;

Inflight submit_line(ServiceCore& core, const std::string& line,
                     const WireLimits& limits, Clock::time_point due, std::size_t key,
                     bool patch) {
    Inflight inflight;
    Sample& s = inflight.sample;
    s.key = key;
    s.patch = patch;
    s.bytes_in = line.size() + 1; // the newline that frames a wire line
    s.t.due = due;
    s.t.parse_start = Clock::now();
    try {
        Request request = parse_request(line, 1, limits);
        s.type = request.type;
        s.t.parse_end = Clock::now();
        inflight.future = core.submit(std::move(request));
    } catch (const lph::precondition_error& e) {
        s.t.parse_end = Clock::now();
        core.note_protocol_error();
        std::promise<Response> promise;
        inflight.future = promise.get_future();
        promise.set_value(Response::protocol_error(e.what()));
    }
    return inflight;
}

Sample finish(Inflight& inflight) {
    Sample s = std::move(inflight.sample);
    s.t.observed = Clock::now();
    const Response response = inflight.future.get();
    const std::string line = response.to_json();
    s.t.render_end = Clock::now();
    s.bytes_out = line.size() + 1;
    s.status = response.status;
    s.error = response.error;
    if (response.timing.present) {
        s.queue_us = response.timing.queue_us;
        s.batch_us = response.timing.batch_us;
        s.exec_us = response.timing.exec_us;
        s.write_us = response.timing.write_us;
    }
    if (const auto view = parse_verdict(line)) {
        s.has_verdict = view->has_verdict;
        s.verdict = view->verdict;
    }
    if (s.type == RequestType::GraphPatch) {
        const std::string key = "\"digest\":\"";
        const auto at = line.find(key);
        if (at != std::string::npos) {
            s.digest = std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
        }
    }
    return s;
}

void harvest(std::deque<Inflight>& inflight, Clock::time_point deadline,
             std::vector<Sample>& done) {
    // While several requests are in flight a later one may finish first;
    // waking every tick bounds how late such a completion is observed.
    constexpr auto kTick = std::chrono::microseconds(50);
    if (inflight.empty()) {
        std::this_thread::sleep_until(deadline);
        return;
    }
    if (inflight.size() > 1) {
        deadline = std::min(deadline, Clock::now() + kTick);
    }
    inflight.front().future.wait_until(deadline);
    for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            done.push_back(finish(*it));
            it = inflight.erase(it);
        } else {
            ++it;
        }
    }
}

ServiceStats since(const ServiceStats& after, const ServiceStats& before) {
    ServiceStats d = after;
    d.submitted -= before.submitted;
    d.rejected -= before.rejected;
    d.completed -= before.completed;
    d.errors -= before.errors;
    d.memo_served -= before.memo_served;
    d.batches -= before.batches;
    d.batched_requests -= before.batched_requests;
    d.busy_ms -= before.busy_ms;
    d.patches_applied -= before.patches_applied;
    d.patch_incremental -= before.patch_incremental;
    d.patch_full -= before.patch_full;
    d.patch_dirty_nodes -= before.patch_dirty_nodes;
    d.patch_total_nodes -= before.patch_total_nodes;
    return d;
}

ResultMemoStats since(const ResultMemoStats& after, const ResultMemoStats& before) {
    ResultMemoStats d = after;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.evictions -= before.evictions;
    d.invalidated -= before.invalidated;
    return d;
}

lph::ViewCacheStats since(const lph::ViewCacheStats& after,
                          const lph::ViewCacheStats& before) {
    lph::ViewCacheStats d = after;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.evictions -= before.evictions;
    return d;
}

void count_outcomes(const std::vector<Sample>& samples, Report& report) {
    report.attempted += samples.size();
    for (const Sample& s : samples) {
        if (!s.ok()) {
            ++report.failed;
        }
    }
}

ServiceOptions reference_options(const WireLimits& limits) {
    ServiceOptions options;
    options.manual_drain = true;
    options.memoize_results = false;
    options.batch_by_graph = false;
    options.share_view_cache = false;
    options.wire = limits;
    return options;
}

std::optional<bool> reference_verdict(ServiceCore& reference, const std::string& line,
                                      const WireLimits& limits) {
    Request request = parse_request(line, 1, limits);
    request.backend = "interpreted";
    const auto view = parse_verdict(reference.serve_unbatched(request).to_json());
    if (!view.has_value() || view->status != "ok" || !view->has_verdict) {
        return std::nullopt;
    }
    return view->verdict;
}

double StageTotals::unattributed_share() const {
    if (latency_ms <= 0) {
        return 0.0;
    }
    const double attributed =
        parse_ms + queue_ms + batch_ms + exec_ms + write_ms + render_ms;
    return 1.0 - attributed / latency_ms;
}

StageTotals stage_totals(const std::vector<Sample>& samples) {
    StageTotals t;
    for (const Sample& s : samples) {
        t.parse_ms += ms_between(s.t.parse_start, s.t.parse_end);
        t.render_ms += ms_between(s.t.observed, s.t.render_end);
        t.queue_ms += static_cast<double>(s.queue_us) / 1000.0;
        t.batch_ms += static_cast<double>(s.batch_us) / 1000.0;
        t.exec_ms += static_cast<double>(s.exec_us) / 1000.0;
        t.write_ms += static_cast<double>(s.write_us) / 1000.0;
        t.latency_ms += s.latency_ms();
    }
    return t;
}

double generator_overhead_cpu_s(double generator_cpu_s,
                                const std::vector<Sample>& samples) {
    const StageTotals t = stage_totals(samples);
    return std::max(0.0, generator_cpu_s - (t.parse_ms + t.render_ms) / 1000.0);
}

void service_layer_metrics(const std::vector<Sample>& samples,
                           const ServiceStats& stats, const ResultMemoStats& memo,
                           const lph::ViewCacheStats& cache, Report& report) {
    std::vector<double> parse, render, queue, batch, exec, write, patch_ms;
    double bytes_in = 0, bytes_out = 0;
    double exec_ms[5] = {0, 0, 0, 0, 0}; // game, logic, eval, decide, patch
    for (const Sample& s : samples) {
        parse.push_back(us_between(s.t.parse_start, s.t.parse_end));
        render.push_back(us_between(s.t.observed, s.t.render_end));
        queue.push_back(static_cast<double>(s.queue_us));
        batch.push_back(static_cast<double>(s.batch_us));
        exec.push_back(static_cast<double>(s.exec_us));
        write.push_back(static_cast<double>(s.write_us));
        bytes_in += static_cast<double>(s.bytes_in);
        bytes_out += static_cast<double>(s.bytes_out);
        const double ms = static_cast<double>(s.exec_us) / 1000.0;
        switch (s.type) {
        case RequestType::Game: exec_ms[0] += ms; break;
        case RequestType::Logic: exec_ms[1] += ms; break;
        case RequestType::Eval: exec_ms[2] += ms; break;
        case RequestType::Decide: exec_ms[3] += ms; break;
        case RequestType::GraphPatch: exec_ms[4] += ms; break;
        default: break;
        }
        if (s.patch) {
            patch_ms.push_back(s.latency_ms());
        }
    }
    const double n = std::max<double>(1.0, static_cast<double>(samples.size()));
    report.set("wire.parse_us_p50", percentile(parse, 0.5));
    report.set("wire.render_us_p50", percentile(render, 0.5));
    report.set("wire.bytes_in_per_op", bytes_in / n);
    report.set("wire.bytes_out_per_op", bytes_out / n);
    report.set("service.queue_us_p50", percentile(queue, 0.5));
    report.set("service.queue_us_p99", percentile(queue, 0.99));
    report.set("service.batch_us_p99", percentile(batch, 0.99));
    report.set("service.exec_us_p50", percentile(exec, 0.5));
    report.set("service.exec_us_p99", percentile(exec, 0.99));
    report.set("service.write_us_p99", percentile(write, 0.99));
    report.set("service.avg_batch", stats.avg_batch());
    report.set("service.unattributed_share", stage_totals(samples).unattributed_share());
    report.set("service.exec_ms.game", exec_ms[0]);
    report.set("service.exec_ms.logic", exec_ms[1]);
    report.set("service.exec_ms.eval", exec_ms[2]);
    report.set("service.exec_ms.decide", exec_ms[3]);
    report.set("service.exec_ms.patch", exec_ms[4]);
    report.set("memo.hit_ratio", memo.hit_rate());
    report.set("memo.invalidated", static_cast<double>(memo.invalidated));
    report.set("patch_p50_ms", percentile(patch_ms, 0.5));
    report.set("patch_p99_ms", percentile(patch_ms, 0.99));
    const double patch_queries =
        static_cast<double>(stats.patch_incremental + stats.patch_full);
    report.set("patch.incremental_ratio",
               patch_queries > 0
                   ? static_cast<double>(stats.patch_incremental) / patch_queries
                   : 0.0);
    report.set("patch.dirty_fraction", stats.patch_dirty_fraction());
    report.set("view_cache.hit_ratio", cache.hit_rate());
    report.set("view_cache.evictions", static_cast<double>(cache.evictions));
}

} // namespace perfbench
