#include "service/core.hpp"

#include "core/check.hpp"
#include "dtm/errors.hpp"
#include "dtm/faults.hpp"
#include "graphalg/coloring.hpp"
#include "graphalg/eulerian.hpp"
#include "graphalg/hamiltonian.hpp"
#include "hierarchy/game.hpp"
#include "lang/analyze.hpp"
#include "logic/eval.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "oracle/generators.hpp"
#include "oracle/harness.hpp"
#include "service/chaos.hpp"
#include "service/registry.hpp"
#include "structure/graph_structure.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include <unistd.h>

namespace lph {
namespace service {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string render_ms(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

std::uint64_t ms_to_us(double ms) {
    return ms > 0 ? static_cast<std::uint64_t>(ms * 1000.0 + 0.5) : 0;
}

/// One game-result body fragment.  Shared by the plain `game` case and the
/// graph_patch incremental paths so their fragments are byte-identical — the
/// patch-vs-full-recompute oracle compares them directly.
void append_game_result(std::ostream& body, const GameResult& result) {
    body << "\"accepted\":" << (result.accepted ? "true" : "false")
         << ",\"machine_runs\":" << result.machine_runs
         << ",\"faulted_runs\":" << result.faulted_runs;
    if (!result.probe_faults.empty()) {
        body << ",\"faults\":[";
        for (std::size_t i = 0; i < result.probe_faults.size(); ++i) {
            body << (i ? "," : "") << '"'
                 << to_string(result.probe_faults[i].code) << '"';
        }
        body << ']';
    }
    if (result.witness) {
        body << ",\"witness\":[";
        for (NodeId u = 0; u < result.witness->size(); ++u) {
            body << (u ? "," : "") << '"'
                 << obs::json_escape((*result.witness)(u)) << '"';
        }
        body << ']';
    }
}

/// The evaluator policy of a logic/eval request: the default enumeration
/// under the request's remaining deadline (0 = none).
SOPolicy so_policy(double deadline_ms) {
    SOPolicy policy;
    policy.deadline_ms = deadline_ms;
    return policy;
}

/// The retention key of a layers-0 patch query: every field that can change
/// the per-node outputs.
std::string decider_flavor(const Request& request) {
    return request.machine + '|' + std::to_string(request.layers) + '|' +
           (request.sigma ? '1' : '0') + '|' + request.ids;
}

} // namespace

obs::MetricList ServiceStats::to_metrics() const {
    return {
        {"submitted", static_cast<double>(submitted)},
        {"rejected", static_cast<double>(rejected)},
        {"protocol_errors", static_cast<double>(protocol_errors)},
        {"completed", static_cast<double>(completed)},
        {"errors", static_cast<double>(errors)},
        {"memo_served", static_cast<double>(memo_served)},
        {"batches", static_cast<double>(batches)},
        {"batched_requests", static_cast<double>(batched_requests)},
        {"avg_batch", avg_batch()},
        {"expired_in_queue", static_cast<double>(expired_in_queue)},
        {"queue_depth", static_cast<double>(queue_depth)},
        {"max_queue_depth", static_cast<double>(max_queue_depth)},
        {"busy_ms", busy_ms},
        {"workers", static_cast<double>(workers)},
        {"graphs_resident", static_cast<double>(graphs_resident)},
        {"patch.applied", static_cast<double>(patches_applied)},
        {"patch.incremental", static_cast<double>(patch_incremental)},
        {"patch.full", static_cast<double>(patch_full)},
        {"patch.dirty_nodes", static_cast<double>(patch_dirty_nodes)},
        {"patch.total_nodes", static_cast<double>(patch_total_nodes)},
        {"patch.dirty_fraction", patch_dirty_fraction()},
        {"admission.admitted", static_cast<double>(admission_admitted)},
        {"admission.rejected", static_cast<double>(admission_rejected)},
        {"admission.deferred", static_cast<double>(admission_deferred)},
        {"admission.big_queue_depth", static_cast<double>(big_queue_depth)},
    };
}

/// Per-batch shared preparation: when a micro-batch of same-graph requests
/// is drained, the first request of each (machine, layers) flavor pays for
/// the built game, the identifier assignment, and the certificate option
/// tables; the rest of the batch reuses them.
struct ServiceCore::BatchContext {
    std::map<std::string, BuiltGame> games;
    std::map<std::string, IdentifierAssignment> ids;
    std::map<std::string, GameTables> tables;

    BuiltGame& game(const std::string& machine, int layers, bool sigma) {
        const std::string key = machine + '|' + std::to_string(layers) + '|' +
                                (sigma ? '1' : '0');
        auto it = games.find(key);
        if (it == games.end()) {
            it = games.emplace(key, build_game(machine, layers, sigma)).first;
        }
        return it->second;
    }

    IdentifierAssignment& id_for(const std::string& scheme, int r_id,
                                 const LabeledGraph& g) {
        const std::string key = scheme + '|' + std::to_string(r_id);
        auto it = ids.find(key);
        if (it == ids.end()) {
            it = ids.emplace(key, identifier_scheme_by_name(scheme, g, r_id))
                     .first;
        }
        return it->second;
    }

    GameTables& tables_for(const std::string& machine, int layers,
                           const std::string& scheme, const GameSpec& spec,
                           const LabeledGraph& g,
                           const IdentifierAssignment& id) {
        // Tables are sigma-independent (only layer count and domains matter).
        const std::string key =
            machine + '|' + std::to_string(layers) + '|' + scheme;
        auto it = tables.find(key);
        if (it == tables.end()) {
            it = tables.emplace(key, GameTables(spec, g, id)).first;
        }
        return it->second;
    }
};

ServiceCore::ServiceCore(ServiceOptions options)
    : options_(options),
      start_time_(std::chrono::steady_clock::now()),
      pid_(static_cast<std::int64_t>(::getpid())),
      memo_(options.memo_entries) {
    if (options_.threads == 0) {
        options_.threads = std::max(1u, std::thread::hardware_concurrency());
    }
    register_service_checks();
    if (!options_.snapshot_path.empty()) {
        load_snapshot();
        if (options_.snapshot_period_ms > 0) {
            snapshot_thread_ = std::thread([this] { snapshot_loop(); });
        }
    }
    if (!options_.manual_drain) {
        workers_.reserve(options_.threads);
        for (unsigned i = 0; i < options_.threads; ++i) {
            workers_.emplace_back([this] { worker_loop(/*big=*/false); });
        }
        if (options_.admission.enabled &&
            options_.admission.big_job_threads > 0) {
            big_workers_.reserve(options_.admission.big_job_threads);
            for (unsigned i = 0; i < options_.admission.big_job_threads; ++i) {
                big_workers_.emplace_back([this] { worker_loop(/*big=*/true); });
            }
        }
    }
}

ServiceCore::~ServiceCore() { stop(); }

void ServiceCore::stop() {
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    big_cv_.notify_all();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    workers_.clear();
    for (std::thread& worker : big_workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    big_workers_.clear();
    bool first_stop = false;
    {
        const std::lock_guard<std::mutex> lock(snapshot_wake_mutex_);
        first_stop = !snapshot_stop_;
        snapshot_stop_ = true;
    }
    snapshot_wake_cv_.notify_all();
    if (snapshot_thread_.joinable()) {
        snapshot_thread_.join();
    }
    if (first_stop && !options_.snapshot_path.empty()) {
        save_snapshot();
    }
}

admission::Decision ServiceCore::admission_decision(const Request& request) {
    if (!options_.admission.enabled || !admission::is_workload(request.type)) {
        return {};
    }
    // A digest reference is priced against the graph as currently resident;
    // an unknown digest prices as a 0-node graph — always admitted, and the
    // serve path turns it into the structured UnknownGraph error.
    std::size_t resolved_nodes = 0;
    if (!request.has_graph && request.has_ref_digest) {
        if (const std::shared_ptr<ResidentGraph> resident =
                graphs_.find(request.ref_digest)) {
            const std::lock_guard<std::mutex> lock(resident->mutex);
            resolved_nodes = resident->graph.num_nodes();
        }
    }
    const admission::Decision decision =
        admission::decide(request, resolved_nodes, options_.admission);
    stage_metrics_.observe("service.admission.predicted_cost_us",
                           decision.predicted_us);
    return decision;
}

std::future<Response> ServiceCore::submit(Request request) {
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();

    const admission::Decision decision = admission_decision(request);
    if (decision.verdict == admission::Verdict::Reject) {
        admission_rejected_.fetch_add(1, std::memory_order_relaxed);
        obs::Tracer::instance().instant("service", "service.admission_reject");
        promise.set_value(Response::admission_rejection(
            request.id, decision.predicted_us, decision.limit_us));
        return future;
    }
    // Deferral needs someone to drain the big queue: the dedicated workers,
    // or the caller's pump in manual_drain mode.  Without either, a deferred
    // job would hang — serve it on the interactive workers instead.
    const bool big = decision.verdict == admission::Verdict::Defer &&
                     (options_.manual_drain || !big_workers_.empty());
    if (options_.admission.enabled && admission::is_workload(request.type)) {
        (big ? admission_deferred_ : admission_admitted_)
            .fetch_add(1, std::memory_order_relaxed);
    }

    bool admitted = false;
    std::string reject_detail;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        std::deque<Pending>& target = big ? big_queue_ : queue_;
        if (stopping_) {
            reject_detail = "service is stopping";
        } else if (target.size() >= options_.queue_capacity) {
            reject_detail = "queue at capacity " +
                            std::to_string(options_.queue_capacity);
        } else {
            Pending pending;
            pending.digest = request.graph_digest();
            pending.request = std::move(request);
            pending.promise = std::move(promise);
            pending.enqueued = std::chrono::steady_clock::now();
            target.push_back(std::move(pending));
            submitted_.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t depth = queue_.size();
            if (depth > max_queue_depth_.load(std::memory_order_relaxed)) {
                max_queue_depth_.store(depth, std::memory_order_relaxed);
            }
            obs::Tracer::instance().instant("service", "service.enqueue",
                                            "depth", depth);
            admitted = true;
        }
    }
    if (!admitted) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        obs::Tracer::instance().instant("service", "service.reject");
        promise.set_value(Response::rejection(request.id, reject_detail));
        return future;
    }
    (big ? big_cv_ : queue_cv_).notify_one();
    return future;
}

Response ServiceCore::call(Request request) {
    std::future<Response> future = submit(std::move(request));
    if (options_.manual_drain) {
        while (future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!drain_some()) {
                break;
            }
        }
    }
    return future.get();
}

void ServiceCore::note_protocol_error() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    obs::Tracer::instance().instant("service", "service.protocol_error");
}

bool ServiceCore::drain_some() {
    std::vector<Pending> batch;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        // Interactive first: the manual pump honors the same priority the
        // dedicated worker pools give a live deployment.
        if (!queue_.empty()) {
            batch = take_batch_locked(queue_);
        } else if (!big_queue_.empty()) {
            batch = take_batch_locked(big_queue_);
        } else {
            return false;
        }
    }
    process_batch(std::move(batch));
    return true;
}

void ServiceCore::drain() {
    while (drain_some()) {
    }
}

void ServiceCore::worker_loop(bool big) {
    std::deque<Pending>& my_queue = big ? big_queue_ : queue_;
    std::condition_variable& my_cv = big ? big_cv_ : queue_cv_;
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            my_cv.wait(lock,
                       [&] { return stopping_ || !my_queue.empty(); });
            if (my_queue.empty()) {
                return; // stopping, queue fully drained
            }
            batch = take_batch_locked(my_queue);
        }
        process_batch(std::move(batch));
    }
}

std::vector<ServiceCore::Pending>
ServiceCore::take_batch_locked(std::deque<Pending>& from) {
    std::vector<Pending> batch;
    batch.push_back(std::move(from.front()));
    from.pop_front();
    if (options_.batch_by_graph && batch.front().request.has_graph) {
        const std::uint64_t digest = batch.front().digest;
        for (auto it = from.begin();
             it != from.end() && batch.size() < options_.max_batch;) {
            if (it->request.has_graph && it->digest == digest) {
                batch.push_back(std::move(*it));
                it = from.erase(it);
            } else {
                ++it;
            }
        }
    }
    return batch;
}

void ServiceCore::process_batch(std::vector<Pending> batch) {
    LPH_SPAN_NAMED(span, "service", "service.batch");
    span.arg("requests", batch.size());
    const auto batch_start = std::chrono::steady_clock::now();
    batches_.fetch_add(1, std::memory_order_relaxed);
    BatchContext ctx;
    std::uint64_t served = 0;
    for (Pending& pending : batch) {
        if (serve_one(pending, ctx, batch.size(), batch_start)) {
            ++served;
        }
    }
    // Only requests that were actually served count toward the batch-size
    // averages; requests that expired while queued never reached the engine.
    batched_requests_.fetch_add(served, std::memory_order_relaxed);
}

bool ServiceCore::serve_one(Pending& pending, BatchContext& ctx,
                            std::size_t batch_size,
                            std::chrono::steady_clock::time_point batch_start) {
    LPH_SPAN_NAMED(span, "service", "service.request");
    Request& request = pending.request;
    const auto start = std::chrono::steady_clock::now();

    Response response;
    response.id = request.id;
    response.type = request.type;
    response.batch = batch_size;

    const double waited_ms = ms_between(pending.enqueued, start);
    const double deadline_ms = request.deadline_ms > 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;

    // Resolve a resident-graph reference before anything else: the memo key
    // embeds the graph digest, so an unresolved reference must never reach
    // the memo, and a fire-and-forget patch chain must observe every earlier
    // patch (resolution happens at serve time, never at submit).
    bool unresolved_ref = false;
    if (request.has_ref_digest && !request.has_graph &&
        request.type != RequestType::GraphPatch) {
        unresolved_ref = !resolve_graph_ref(request);
    }

    const std::string memo_key = options_.memoize_results && !unresolved_ref
                                     ? request.memo_key()
                                     : std::string{};

    bool served = false;
    bool expired = false;
    if (!memo_key.empty()) {
        if (auto hit = memo_.lookup(memo_key)) {
            response.body = std::move(*hit);
            response.memo_hit = true;
            memo_served_.fetch_add(1, std::memory_order_relaxed);
            served = true;
        }
    }
    if (!served) {
        if (unresolved_ref) {
            response.status = "error";
            response.error = "UnknownGraph";
            response.detail = "no resident graph with digest " +
                              std::to_string(request.ref_digest) +
                              " (register it, or follow the digest echoed by "
                              "the latest patch)";
        } else if (deadline_ms > 0 && waited_ms >= deadline_ms) {
            expired = true;
            response.status = "error";
            response.error = to_string(RunError::DeadlineExceeded);
            response.detail = "deadline of " + render_ms(deadline_ms) +
                              " ms expired after " + render_ms(waited_ms) +
                              " ms in queue";
        } else {
            const double remaining_ms =
                deadline_ms > 0 ? deadline_ms - waited_ms : 0;
            try {
                response.body = execute(request, ctx, remaining_ms,
                                        response.timing.backend);
                // A tolerate_faults run under a deadline can score leaves as
                // losses depending on wall-clock — a time-dependent body must
                // never be replayed to other clients.
                const bool time_dependent =
                    request.tolerate_faults && deadline_ms > 0;
                if (!memo_key.empty() && !time_dependent) {
                    memo_.insert(memo_key, response.body);
                }
            } catch (const run_error& e) {
                response.status = "error";
                response.error = to_string(e.code());
                response.detail = e.what();
            } catch (const precondition_error& e) {
                response.status = "error";
                response.error = "InvalidRequest";
                response.detail = e.what();
            } catch (const std::exception& e) {
                response.status = "error";
                response.error = "InternalError";
                response.detail = e.what();
            }
        }
    }

    const auto end = std::chrono::steady_clock::now();
    response.service_ms = ms_between(start, end);
    if (expired) {
        // The request never reached the engine: it is an error, but it must
        // not count as served work (busy time, batch sizes).
        expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    } else {
        busy_us_.fetch_add(
            static_cast<std::uint64_t>(response.service_ms * 1000.0),
            std::memory_order_relaxed);
    }
    if (response.status == "ok") {
        completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
    span.arg("memo_hit", response.memo_hit ? 1 : 0);
    span.arg("ok", response.status == "ok" ? 1 : 0);
    // Stage split: queue covers submit -> batch formation, batch covers the
    // shared prep plus this request's intra-batch wait, exec is its own turn.
    finish_timing(response, request,
                  std::max(0.0, ms_between(pending.enqueued, batch_start)),
                  std::max(0.0, ms_between(batch_start, start)),
                  response.service_ms, end);
    pending.promise.set_value(std::move(response));
    return !expired;
}

void ServiceCore::finish_timing(
    Response& response, const Request& request, double queue_ms,
    double batch_ms, double exec_ms,
    std::chrono::steady_clock::time_point exec_end) {
    response.trace_id = request.trace_id;
    ResponseTiming& t = response.timing;
    t.present = true;
    t.queue_us = ms_to_us(queue_ms);
    t.batch_us = ms_to_us(batch_ms);
    t.exec_us = ms_to_us(exec_ms);
    t.worker_pid = pid_;
    t.generation = options_.worker_generation;
    // write covers response materialization after execute (memo insert,
    // counters, span args) — everything downstream of here (serialization,
    // socket) only the client can observe, so stage sum <= client wall time.
    t.write_us =
        ms_to_us(ms_between(exec_end, std::chrono::steady_clock::now()));

    const std::uint64_t total_us = t.stage_sum_us();
    stage_metrics_.observe("service.latency_us",
                           static_cast<double>(total_us));
    stage_metrics_.observe("service.queue_us", static_cast<double>(t.queue_us));
    stage_metrics_.observe("service.batch_us", static_cast<double>(t.batch_us));
    stage_metrics_.observe("service.exec_us", static_cast<double>(t.exec_us));
    stage_metrics_.observe("service.write_us", static_cast<double>(t.write_us));

    if (options_.slow_ms > 0 &&
        static_cast<double>(total_us) > options_.slow_ms * 1000.0) {
        std::string line = "{\"event\":\"slow_request\",\"type\":\"";
        line += to_string(request.type);
        line += '"';
        if (!response.id.empty()) {
            line += ",\"id\":" + response.id;
        }
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            ",\"status\":\"%s\",\"queue_us\":%llu,\"batch_us\":%llu,"
            "\"exec_us\":%llu,\"write_us\":%llu,\"total_us\":%llu,"
            "\"memo_hit\":%s,\"batch_size\":%zu,\"worker_pid\":%lld,"
            "\"generation\":%llu}\n",
            response.status.c_str(),
            static_cast<unsigned long long>(t.queue_us),
            static_cast<unsigned long long>(t.batch_us),
            static_cast<unsigned long long>(t.exec_us),
            static_cast<unsigned long long>(t.write_us),
            static_cast<unsigned long long>(total_us),
            response.memo_hit ? "true" : "false", response.batch,
            static_cast<long long>(t.worker_pid),
            static_cast<unsigned long long>(t.generation));
        line += buf;
        std::fwrite(line.data(), 1, line.size(), stderr);
    }
}

bool ServiceCore::resolve_graph_ref(Request& request) {
    const std::shared_ptr<ResidentGraph> resident =
        graphs_.find(request.ref_digest);
    if (resident == nullptr) {
        return false;
    }
    const std::lock_guard<std::mutex> lock(resident->mutex);
    if (resident->digest != request.ref_digest) {
        return false; // re-keyed by a patch between find() and the lock
    }
    request.attach_graph(resident->graph, resident->canonical);
    return true;
}

std::string ServiceCore::execute(const Request& request, BatchContext& ctx,
                                 double deadline_ms, std::string& backend) {
    std::ostringstream body;
    switch (request.type) {
    case RequestType::Game: {
        // Validate up front rather than letting run_local do it mid-game:
        // the engine only reaches a full-graph run on a cache-missing leaf,
        // so without this a disconnected graph would be accepted or rejected
        // depending on view-cache warmth and certificate-domain shape — the
        // answer to one request must never depend on who asked before.
        request.graph.validate();
        BuiltGame& game = ctx.game(request.machine, request.layers,
                                   request.sigma);
        const int r_id = game.spec.machine->id_radius();
        const IdentifierAssignment& id =
            ctx.id_for(request.ids, r_id, request.graph);
        const GameTables& tables =
            ctx.tables_for(request.machine, request.layers, request.ids,
                           game.spec, request.graph, id);

        GameOptions opt;
        opt.threads = 1; // the service parallelizes across requests
        opt.tolerate_faults = request.tolerate_faults;
        if (request.backend == "interpreted") {
            opt.backend = GameBackend::Interpreted;
        }
        opt.obs = options_.obs;
        opt.exec.deadline_ms = deadline_ms;
        FaultPlan plan;
        if (request.wants_fault_plan()) {
            plan.seed = request.fault_seed;
            plan.crash_prob = request.fault_crash;
            plan.drop_prob = request.fault_drop;
            plan.truncate_prob = request.fault_truncate;
            plan.corrupt_prob = request.fault_corrupt;
            opt.exec.faults = &plan;
        }
        if (options_.share_view_cache) {
            // Harmless for faulted requests: ViewKeyBuilder refuses
            // run-global couplings, so those runs bypass the cache.
            opt.view_cache = cache_for(request.machine);
        }
        opt.view_cache_entries = options_.view_cache_entries;

        const GameResult result =
            play_game(game.spec, tables, request.graph, id, opt);
        backend = result.stats.compiled_classes > 0 ? "compiled" : "interpreted";
        // The engine scores injected faults as probe losses either way; the
        // wire contract is stricter: without tolerate_faults, a faulted probe
        // escalates to a structured error carrying the taxonomy code.
        if (!request.tolerate_faults && !result.probe_faults.empty()) {
            throw run_error(result.probe_faults.front());
        }
        append_game_result(body, result);
        break;
    }
    case RequestType::Logic: {
        LPH_SPAN("logic", "logic.eval");
        const Formula formula = formula_by_name(request.formula, request.fseed);
        const GraphStructure gs(request.graph);
        const bool sat = satisfies(gs.structure(), formula, so_policy(deadline_ms));
        body << "\"satisfied\":" << (sat ? "true" : "false")
             << ",\"formula_size\":" << formula_size(formula)
             << ",\"cardinality\":" << gs.cardinality();
        break;
    }
    case RequestType::Eval: {
        // User-supplied formula text, already parsed and canonicalized by
        // the wire layer.  The SO-universe guard applies exactly as in the
        // logic case: an enumeration the evaluator refuses surfaces as a
        // structured InvalidRequest, never a hang.
        LPH_SPAN("lang", "lang.eval");
        const GraphStructure gs(request.graph);
        const lang::FormulaAnalysis analysis =
            lang::analyze(request.eval_formula);
        const bool sat = satisfies(gs.structure(), request.eval_formula,
                                   so_policy(deadline_ms));
        body << "\"satisfied\":" << (sat ? "true" : "false")
             << ",\"formula_size\":" << analysis.size << ",\"class\":\""
             << obs::json_escape(analysis.class_name()) << "\""
             << ",\"radius\":" << analysis.radius
             << ",\"cardinality\":" << gs.cardinality();
        break;
    }
    case RequestType::Decide: {
        LPH_SPAN("service", "decide");
        if (request.problem == "eulerian") {
            body << "\"answer\":"
                 << (is_eulerian(request.graph) ? "true" : "false");
        } else if (request.problem == "coloring") {
            const std::optional<Coloring> coloring =
                find_k_coloring(request.graph, request.k);
            body << "\"answer\":" << (coloring ? "true" : "false");
            if (coloring) {
                body << ",\"colors\":[";
                for (std::size_t i = 0; i < coloring->size(); ++i) {
                    body << (i ? "," : "") << (*coloring)[i];
                }
                body << ']';
            }
        } else {
            const std::optional<std::vector<NodeId>> cycle =
                find_hamiltonian_cycle(request.graph);
            body << "\"answer\":" << (cycle ? "true" : "false");
            if (cycle) {
                body << ",\"cycle\":[";
                for (std::size_t i = 0; i < cycle->size(); ++i) {
                    body << (i ? "," : "") << (*cycle)[i];
                }
                body << ']';
            }
        }
        break;
    }
    case RequestType::OracleCheck: {
        // run_check opens the oracle.check span.
        check(is_check_name(request.oracle_check),
              "unknown check '" + request.oracle_check + "'");
        const std::size_t instances =
            std::min(request.instances, options_.max_oracle_instances);
        const CheckReport report =
            run_check(request.oracle_check, request.seed, instances,
                      options_.obs);
        // wall_ms is deliberately omitted: the body must be deterministic so
        // the result memo can replay it.
        body << "\"passed\":" << (report.passed() ? "true" : "false")
             << ",\"instances\":" << report.instances
             << ",\"divergences\":" << report.divergences.size();
        break;
    }
    case RequestType::Stats:
        return render_stats_body(request.stats_detail == "full");
    case RequestType::Health:
        return render_health_body();
    case RequestType::GraphRegister: {
        const GraphStore::RegisterResult reg =
            graphs_.register_graph(request.graph, request.canonical_graph);
        body << "\"digest\":\"" << reg.digest << "\",\"nodes\":" << reg.nodes
             << ",\"edges\":" << reg.edges
             << ",\"existed\":" << (reg.existed ? "true" : "false");
        break;
    }
    case RequestType::GraphPatch:
        return execute_patch(request, ctx, deadline_ms, backend);
    }
    return body.str();
}

std::string ServiceCore::execute_patch(const Request& request,
                                       BatchContext& ctx, double deadline_ms,
                                       std::string& backend) {
    const bool has_query = !request.machine.empty();
    int radius = 1;
    int r_id = 1;
    BuiltGame* game = nullptr;
    if (has_query) {
        game = &ctx.game(request.machine, request.layers, request.sigma);
        r_id = game->spec.machine->id_radius();
        radius = view_radius(*game->spec.machine, ExecutionOptions{});
    }
    const std::string flavor = has_query && request.layers == 0
                                   ? decider_flavor(request)
                                   : std::string{};
    const PatchOutcome outcome = graphs_.apply_patch(
        request.ref_digest, request.ops, radius,
        has_query ? request.ids : std::string("global"), r_id, flavor,
        options_.wire);
    // Any body memoized for the pre-patch content must never be served again
    // under a digest the client could still be holding.
    memo_.invalidate_digest(outcome.old_digest);
    patches_applied_.fetch_add(1, std::memory_order_relaxed);
    patch_dirty_nodes_.fetch_add(outcome.dirty.size(),
                                 std::memory_order_relaxed);
    patch_total_nodes_.fetch_add(outcome.graph.num_nodes(),
                                 std::memory_order_relaxed);

    std::ostringstream body;
    const double fraction =
        outcome.graph.num_nodes() > 0
            ? static_cast<double>(outcome.dirty.size()) /
                  static_cast<double>(outcome.graph.num_nodes())
            : 0.0;
    body << "\"digest\":\"" << outcome.new_digest << '"'
         << ",\"version\":" << outcome.version
         << ",\"nodes\":" << outcome.graph.num_nodes()
         << ",\"edges\":" << outcome.graph.num_edges()
         << ",\"dirty_nodes\":" << outcome.dirty.size()
         << ",\"dirty_fraction\":" << render_ms(fraction);
    if (!has_query) {
        return body.str();
    }
    // Same upfront rule as the Game case: a patch may pass through a
    // disconnected state — that is how graphs grow, add_node then add_edge —
    // but a query attached to one fails like any other query on that graph.
    // The patch itself stays committed; a later patch can reconnect and
    // query again.
    outcome.graph.validate();
    body << ',';
    if (request.layers == 0) {
        backend = "interpreted";
        body << evaluate_patch_decider(request, *game, outcome, deadline_ms);
        return body.str();
    }

    // Layered query: the per-ball store probes the shared view cache, so
    // only the misses (the dirty balls) are re-derived, by induced-ball
    // runs; counters, fault ordering and the witness stay bit-identical to
    // a full solve.
    const IdentifierAssignment id =
        identifier_scheme_by_name(request.ids, outcome.graph, r_id);
    const GameTables tables(game->spec, outcome.graph, id);
    GameOptions opt;
    opt.threads = 1;
    opt.obs = options_.obs;
    opt.exec.deadline_ms = deadline_ms;
    opt.view_cache = cache_for(request.machine);
    opt.view_cache_entries = options_.view_cache_entries;
    const GameResult result =
        play_game(game->spec, tables, outcome.graph, id, opt);
    backend = result.stats.compiled_classes > 0 ? "compiled" : "interpreted";
    if (!result.probe_faults.empty()) {
        throw run_error(result.probe_faults.front());
    }
    // Incremental: no leaf needed a full-graph run.
    if (result.stats.local_runs == 0) {
        patch_incremental_.fetch_add(1, std::memory_order_relaxed);
    } else {
        patch_full_.fetch_add(1, std::memory_order_relaxed);
    }
    append_game_result(body, result);
    return body.str();
}

std::string ServiceCore::evaluate_patch_decider(const Request& request,
                                                const BuiltGame& game,
                                                const PatchOutcome& outcome,
                                                double deadline_ms) {
    const LabeledGraph& g = outcome.graph;
    const LocalMachine& machine = *game.spec.machine;
    const int radius = view_radius(machine, ExecutionOptions{});
    const IdentifierAssignment id =
        identifier_scheme_by_name(request.ids, g, machine.id_radius());

    std::vector<std::string> outputs;
    bool incremental = false;
    if (outcome.has_retained) {
        // Map the retained verdicts of the untouched region across the
        // patch's renumbering; every dirty node re-derives its verdict from
        // a clean run on its induced radius-R ball (sound by r-locality).
        outputs.assign(g.num_nodes(), std::string{});
        std::vector<char> dirty(g.num_nodes(), 0);
        for (const NodeId u : outcome.dirty) {
            dirty[u] = 1;
        }
        bool usable = true;
        for (NodeId v = 0; v < g.num_nodes() && usable; ++v) {
            if (dirty[v] != 0) {
                continue;
            }
            const std::ptrdiff_t old = outcome.old_of_new[v];
            if (old < 0 || static_cast<std::size_t>(old) >=
                               outcome.retained_outputs.size()) {
                usable = false; // retention predates this graph's shape
            } else {
                outputs[v] =
                    outcome.retained_outputs[static_cast<std::size_t>(old)];
            }
        }
        for (std::size_t i = 0; i < outcome.dirty.size() && usable; ++i) {
            const NodeId v = outcome.dirty[i];
            const InducedBall ball = induced_ball(g, id, v, radius);
            std::optional<std::string> verdict = clean_ball_output(
                machine, ball,
                CertificateListAssignment::empty(ball.sub.graph.num_nodes()),
                ExecutionOptions{});
            if (verdict.has_value()) {
                outputs[v] = std::move(*verdict);
            } else {
                usable = false; // unclean ball: replay the full run
            }
        }
        incremental = usable;
    }
    if (!incremental) {
        ExecutionOptions exec;
        exec.on_violation = FaultPolicy::Record;
        exec.deadline_ms = deadline_ms;
        const ExecutionResult run = run_local(
            machine, g, id, CertificateListAssignment::empty(g.num_nodes()),
            exec);
        // Mirror the wire contract of a plain game request (tolerate_faults
        // is not a patch field): a faulted run escalates to a structured
        // error carrying the taxonomy code.
        if (!run.faults.empty()) {
            throw run_error(run.faults.front());
        }
        check(run.ok() && run.completed, "patch: decider run did not complete");
        outputs = run.outputs;
    }
    graphs_.store_verdicts(outcome.new_digest, decider_flavor(request),
                           outputs);
    (incremental ? patch_incremental_ : patch_full_)
        .fetch_add(1, std::memory_order_relaxed);

    // Rendered through the same fragment as a clean full solve: one leaf,
    // no faults, no witness (layers == 0).
    GameResult shaped;
    shaped.accepted =
        std::all_of(outputs.begin(), outputs.end(),
                    [](const std::string& out) { return out == "1"; });
    shaped.machine_runs = 1;
    shaped.faulted_runs = 0;
    std::ostringstream fragment;
    append_game_result(fragment, shaped);
    return fragment.str();
}

std::string ServiceCore::render_stats_body(bool full) {
    // The body is derived from the same collect_metrics() snapshot that
    // feeds publish_metrics() and the --metrics= file, rendered through the
    // registry's own renderer — one schema, impossible to drift.  The only
    // hand-built fields are the worker identity (pid, generation, uptime)
    // that an aggregator needs to tell scraped workers apart.
    obs::MetricsRegistry registry;
    collect_metrics(registry);
    std::ostringstream body;
    body << "\"uptime_ms\":"
         << render_ms(ms_between(start_time_, std::chrono::steady_clock::now()))
         << ",\"pid\":" << pid_
         << ",\"generation\":" << options_.worker_generation;
    if (options_.worker_index >= 0) {
        body << ",\"worker\":{\"index\":" << options_.worker_index
             << ",\"generation\":" << options_.worker_generation
             << ",\"restarts\":"
             << (options_.worker_generation > 0 ? options_.worker_generation - 1
                                                : 0)
             << '}';
    }
    body << ",\"metrics\":"
         << obs::render_metrics_json(registry.snapshot(), /*pretty=*/false);
    if (full) {
        // Bucket-level histogram serialization: counts merge bit-exactly
        // across workers, so a scraper can reconstruct cluster percentiles.
        body << ",\"histograms\":{";
        bool first = true;
        for (const auto& [name, histogram] : registry.histograms()) {
            if (!first) {
                body << ',';
            }
            body << '"' << obs::json_escape(name) << "\":";
            std::string serialized;
            histogram.append_json(serialized);
            body << serialized;
            first = false;
        }
        body << '}';
    }
    return body.str();
}

std::string ServiceCore::render_health_body() {
    std::ostringstream body;
    body << "\"ok\":true,\"uptime_ms\":"
         << render_ms(ms_between(start_time_, std::chrono::steady_clock::now()))
         << ",\"queue_depth\":" << queue_depth()
         << ",\"workers\":" << (options_.manual_drain ? 0 : options_.threads);
    if (options_.worker_index >= 0) {
        body << ",\"worker\":{\"index\":" << options_.worker_index
             << ",\"generation\":" << options_.worker_generation
             << ",\"restarts\":"
             << (options_.worker_generation > 0 ? options_.worker_generation - 1
                                                : 0)
             << '}';
    }
    return body.str();
}

Response ServiceCore::serve_unbatched(const Request& request) {
    BatchContext ctx;
    const auto start = std::chrono::steady_clock::now();
    Response response;
    response.id = request.id;
    response.type = request.type;
    const double deadline_ms = request.deadline_ms > 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
    Request resolved;
    const Request* effective = &request;
    if (request.has_ref_digest && !request.has_graph &&
        request.type != RequestType::GraphPatch) {
        resolved = request;
        if (!resolve_graph_ref(resolved)) {
            response.status = "error";
            response.error = "UnknownGraph";
            response.detail = "no resident graph with digest " +
                              std::to_string(request.ref_digest);
            const auto end = std::chrono::steady_clock::now();
            response.service_ms = ms_between(start, end);
            finish_timing(response, request, 0.0, 0.0, response.service_ms,
                          end);
            return response;
        }
        effective = &resolved;
    }
    try {
        response.body =
            execute(*effective, ctx, deadline_ms, response.timing.backend);
    } catch (const run_error& e) {
        response.status = "error";
        response.error = to_string(e.code());
        response.detail = e.what();
    } catch (const precondition_error& e) {
        response.status = "error";
        response.error = "InvalidRequest";
        response.detail = e.what();
    } catch (const std::exception& e) {
        response.status = "error";
        response.error = "InternalError";
        response.detail = e.what();
    }
    const auto end = std::chrono::steady_clock::now();
    response.service_ms = ms_between(start, end);
    // No queue or batch stage on the inline path; exec is the whole turn.
    finish_timing(response, request, 0.0, 0.0, response.service_ms, end);
    return response;
}

std::size_t ServiceCore::queue_depth() const {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

ServiceStats ServiceCore::stats() const {
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.memo_served = memo_served_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
    s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
    s.graphs_resident = graphs_.size();
    s.patches_applied = patches_applied_.load(std::memory_order_relaxed);
    s.patch_incremental = patch_incremental_.load(std::memory_order_relaxed);
    s.patch_full = patch_full_.load(std::memory_order_relaxed);
    s.patch_dirty_nodes = patch_dirty_nodes_.load(std::memory_order_relaxed);
    s.patch_total_nodes = patch_total_nodes_.load(std::memory_order_relaxed);
    s.admission_admitted = admission_admitted_.load(std::memory_order_relaxed);
    s.admission_rejected = admission_rejected_.load(std::memory_order_relaxed);
    s.admission_deferred = admission_deferred_.load(std::memory_order_relaxed);
    s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
    s.queue_depth = queue_depth();
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        s.big_queue_depth = big_queue_.size();
    }
    s.busy_ms =
        static_cast<double>(busy_us_.load(std::memory_order_relaxed)) / 1000.0;
    s.workers = options_.manual_drain ? 0 : options_.threads;
    return s;
}

ResultMemoStats ServiceCore::memo_stats() const { return memo_.stats(); }

SnapshotStats ServiceCore::snapshot_stats() const {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_stats_;
}

SnapshotData ServiceCore::snapshot_data() const {
    SnapshotData data;
    SnapshotSection memo_section;
    memo_section.name = "memo";
    memo_section.entries = memo_.export_entries();
    data.sections.push_back(std::move(memo_section));
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const auto& [machine, cache] : view_caches_) {
        SnapshotSection section;
        section.name = "view:" + machine;
        section.entries = cache->export_entries();
        data.sections.push_back(std::move(section));
    }
    return data;
}

std::size_t ServiceCore::restore_from(const SnapshotData& data) {
    std::size_t admitted = 0;
    for (const SnapshotSection& section : data.sections) {
        if (section.name == "memo") {
            admitted += memo_.restore(section.entries);
        } else if (section.name.rfind("view:", 0) == 0) {
            admitted +=
                cache_for(section.name.substr(5))->restore(section.entries);
        }
        // Unknown sections: a newer writer's data we cannot interpret; the
        // checksummed entries we do understand are still good.
    }
    return admitted;
}

bool ServiceCore::save_snapshot() {
    if (options_.snapshot_path.empty()) {
        return true;
    }
    const SnapshotData data = snapshot_data();
    std::string error;
    // Serialize writers: the periodic thread and stop() share one tmp file.
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (!write_snapshot_file(options_.snapshot_path, data, &error)) {
        ++snapshot_stats_.save_failures;
        std::fprintf(stderr,
                     "{\"event\":\"snapshot_save_failed\",\"path\":\"%s\","
                     "\"error\":\"%s\"}\n",
                     options_.snapshot_path.c_str(), error.c_str());
        return false;
    }
    ++snapshot_stats_.saves;
    snapshot_stats_.entries_saved = data.total_entries();
    return true;
}

void ServiceCore::load_snapshot() {
    SnapshotData data;
    std::string error;
    const SnapshotReadResult result =
        read_snapshot_file(options_.snapshot_path, &data, &error);
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    switch (result) {
    case SnapshotReadResult::Loaded:
        ++snapshot_stats_.loads;
        snapshot_stats_.entries_loaded = restore_from(data);
        obs::Tracer::instance().instant("service", "snapshot.load");
        break;
    case SnapshotReadResult::Missing:
        break; // first boot: cold start, not an event
    case SnapshotReadResult::Rejected:
        // Never trust a rejected snapshot, even partially: log, count, and
        // cold-start.
        ++snapshot_stats_.rejected;
        std::fprintf(stderr,
                     "{\"event\":\"snapshot_rejected\",\"path\":\"%s\","
                     "\"error\":\"%s\",\"action\":\"cold_start\"}\n",
                     options_.snapshot_path.c_str(), error.c_str());
        obs::Tracer::instance().instant("service", "snapshot.reject");
        break;
    }
}

void ServiceCore::snapshot_loop() {
    const auto period = std::chrono::duration<double, std::milli>(
        options_.snapshot_period_ms);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(snapshot_wake_mutex_);
            snapshot_wake_cv_.wait_for(
                lock,
                std::chrono::duration_cast<std::chrono::milliseconds>(period),
                [this] { return snapshot_stop_; });
            if (snapshot_stop_) {
                return; // stop() writes the final snapshot itself
            }
        }
        save_snapshot();
    }
}

ViewCacheStats ServiceCore::view_cache_stats() const {
    ViewCacheStats total;
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const auto& [machine, cache] : view_caches_) {
        const ViewCacheStats s = cache->stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
        total.entries += s.entries;
        total.verdict_mismatches += s.verdict_mismatches;
    }
    return total;
}

void ServiceCore::publish_metrics() {
    if (options_.obs == nullptr) {
        return;
    }
    collect_metrics(options_.obs->metrics());
}

void ServiceCore::collect_metrics(obs::MetricsRegistry& registry) const {
    registry.absorb("service.", stats().to_metrics());
    registry.absorb("service.", memo_stats().to_metrics());
    registry.absorb("service.", view_cache_stats().to_metrics());
    if (!options_.snapshot_path.empty()) {
        registry.absorb("service.", snapshot_stats().to_metrics());
    }
    if (options_.worker_index >= 0) {
        registry.absorb(
            "service.",
            {{"worker_index", static_cast<double>(options_.worker_index)},
             {"worker_generation",
              static_cast<double>(options_.worker_generation)}});
    }
    // set (not merge): publishing runs repeatedly and must stay idempotent.
    for (const auto& [name, histogram] : stage_metrics_.histograms()) {
        registry.set_histogram(name, histogram);
    }
}

ViewCache* ServiceCore::cache_for(const std::string& machine) {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    std::unique_ptr<ViewCache>& slot = view_caches_[machine];
    if (!slot) {
        slot = std::make_unique<ViewCache>(options_.view_cache_entries);
    }
    return slot.get();
}

} // namespace service
} // namespace lph
