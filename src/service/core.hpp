#pragma once

#include "dtm/view_cache.hpp"
#include "obs/metrics.hpp"
#include "service/admission/admission.hpp"
#include "service/graph_store.hpp"
#include "service/memo.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lph {

namespace obs {
class Session;
}

namespace service {

struct BuiltGame; // registry.hpp

/// Tuning knobs of one ServiceCore.
struct ServiceOptions {
    /// Worker threads draining the request queue; 0 = one per hardware
    /// thread.  Each worker runs the engine sequentially (GameOptions::threads
    /// = 1): the serving layer's parallelism is across requests, and nesting
    /// pools inside pools would only add contention.
    unsigned threads = 0;

    /// Bounded request queue: submissions beyond this are rejected
    /// immediately with a structured QueueFull response (admission control,
    /// never a hang).
    std::size_t queue_capacity = 256;

    /// Deadline applied to requests that do not carry their own; 0 = none.
    /// Deadlines cover queue wait too: a request that expires before a worker
    /// picks it up fails with DeadlineExceeded without touching the engine.
    double default_deadline_ms = 0;

    std::size_t memo_entries = 1 << 12;
    std::size_t view_cache_entries = 1 << 18;

    /// Upper bound on one micro-batch (requests sharing a graph digest that
    /// one worker drains together).
    std::size_t max_batch = 32;

    /// Server-side cap on oracle_check corpus sizes.
    std::size_t max_oracle_instances = 200;

    WireLimits wire;

    /// The three serving optimizations, individually toggleable so the load
    /// generator can measure each against the one-engine-call-per-request
    /// baseline (all three off).
    bool memoize_results = true;
    bool batch_by_graph = true;
    bool share_view_cache = true;

    /// Test/bench mode: no worker threads are spawned; callers pump the
    /// queue with drain_some()/drain().  Makes queue-full and batching
    /// behavior deterministic.
    bool manual_drain = false;

    /// Warm-start persistence (DESIGN.md "Resilience"): when set, the memo
    /// and the shared view caches are loaded from this snapshot file at
    /// construction (a missing/corrupt/mismatched file cold-starts cleanly)
    /// and saved back on stop() — and, with snapshot_period_ms > 0, by a
    /// background thread every period.
    std::string snapshot_path;
    double snapshot_period_ms = 0;

    /// Identity of this core inside a supervised pool: worker_index >= 0
    /// and the 1-based generation (how many times the slot has started) are
    /// echoed in stats/health bodies and service.* metrics so clients can
    /// see restarts.  -1 = standalone.
    int worker_index = -1;
    std::uint64_t worker_generation = 0;

    /// Slow-request logging: a request whose stage sum (queue + batch + exec
    /// + write) exceeds this many milliseconds emits one structured
    /// `slow_request` JSON line to stderr with the full breakdown and hit
    /// flags.  0 = off (the default).
    double slow_ms = 0;

    /// Cost-model admission control (default-off).  When enabled, workload
    /// requests are priced at submit: over max_cost_us they are rejected
    /// with a structured AdmissionRejected response; over defer_cost_us they
    /// are routed to a separate big-job queue drained by its own
    /// big_job_threads workers, so interactive latency never pays for them.
    admission::AdmissionOptions admission;

    /// Optional observability session for publish_metrics().
    obs::Session* obs = nullptr;
};

/// Monotone counters of one ServiceCore (plus queue-depth snapshots).
struct ServiceStats {
    std::uint64_t submitted = 0;   ///< admitted into the queue
    std::uint64_t rejected = 0;    ///< refused at admission (queue full)
    std::uint64_t protocol_errors = 0; ///< unparseable lines (transport-reported)
    std::uint64_t completed = 0;   ///< responses with status "ok"
    std::uint64_t errors = 0;      ///< responses with status "error"
    std::uint64_t memo_served = 0; ///< completed straight from the result memo
    std::uint64_t batches = 0;     ///< micro-batches drained
    std::uint64_t batched_requests = 0; ///< requests inside those batches
    /// Requests whose deadline expired while still queued.  They error with
    /// DeadlineExceeded but never reach the engine, so they are excluded from
    /// batched_requests and busy_ms (they would otherwise inflate avg_batch
    /// and the busy/throughput ratios the loadgen reports).
    std::uint64_t expired_in_queue = 0;
    std::uint64_t queue_depth = 0;     ///< at snapshot time
    std::uint64_t max_queue_depth = 0; ///< high-water mark
    double busy_ms = 0;  ///< summed per-request service time
    unsigned workers = 0;

    // Incremental serving (DESIGN.md "Incremental serving").
    std::uint64_t graphs_resident = 0;   ///< resident-store size at snapshot time
    std::uint64_t patches_applied = 0;   ///< graph_patch requests applied
    std::uint64_t patch_incremental = 0; ///< patch queries served incrementally
    std::uint64_t patch_full = 0;        ///< patch queries that recomputed fully
    std::uint64_t patch_dirty_nodes = 0; ///< summed dirty-set sizes
    std::uint64_t patch_total_nodes = 0; ///< summed patched-graph sizes

    // Cost-model admission control (all 0 while disabled).
    std::uint64_t admission_admitted = 0; ///< priced and sent interactive
    std::uint64_t admission_rejected = 0; ///< refused: predicted > max cost
    std::uint64_t admission_deferred = 0; ///< routed to the big-job queue
    std::uint64_t big_queue_depth = 0;    ///< at snapshot time

    double patch_dirty_fraction() const {
        return patch_total_nodes > 0
                   ? static_cast<double>(patch_dirty_nodes) /
                         static_cast<double>(patch_total_nodes)
                   : 0.0;
    }

    double avg_batch() const {
        return batches > 0
                   ? static_cast<double>(batched_requests) /
                         static_cast<double>(batches)
                   : 0.0;
    }

    /// Metric list (unprefixed names: submitted, rejected, ...); ServiceCore
    /// absorbs it under `service.` so the loadgen BENCH rows and `--metrics=`
    /// JSON share one schema with the engine rows.
    obs::MetricList to_metrics() const;
};

/// The batched query-serving core: a bounded MPMC request queue, a worker
/// pool, per-request deadline propagation, micro-batching of requests that
/// share a graph, a per-machine shared ViewCache, and a cross-request result
/// memo keyed by (instance digest, query).
///
/// Transports (service/server.hpp) parse wire lines into Requests and submit
/// them; the core never touches sockets or streams.
class ServiceCore {
public:
    explicit ServiceCore(ServiceOptions options = {});
    ~ServiceCore();

    ServiceCore(const ServiceCore&) = delete;
    ServiceCore& operator=(const ServiceCore&) = delete;

    /// Queues one request.  Returns a future that resolves to the response;
    /// when the queue is at capacity the future is already resolved to a
    /// QueueFull rejection.
    std::future<Response> submit(Request request);

    /// Synchronous convenience: submit + wait (pumping the queue inline when
    /// manual_drain is set).
    Response call(Request request);

    /// Transport-side accounting for lines that never parsed into a Request.
    void note_protocol_error();

    /// Manual drain (manual_drain mode, or extra pump threads): processes
    /// one micro-batch; false when the queue was empty.
    bool drain_some();

    /// Drains until the queue is empty.
    void drain();

    /// Stops the workers after the queue empties; idempotent.  Every
    /// already-admitted request is served before the workers exit.
    void stop();

    std::size_t queue_depth() const;
    ServiceStats stats() const;
    ResultMemoStats memo_stats() const;
    /// Aggregated over the per-machine shared view caches.
    ViewCacheStats view_cache_stats() const;
    SnapshotStats snapshot_stats() const;

    /// The memo + shared view caches as snapshot sections ("memo", then one
    /// "view:<machine>" per shared cache), oldest-first for LRU replay.
    SnapshotData snapshot_data() const;

    /// Replays snapshot sections into the memo / shared view caches (without
    /// polluting hit/miss counters); unknown sections are ignored so a newer
    /// writer's extra sections degrade gracefully.  Returns entries admitted.
    std::size_t restore_from(const SnapshotData& data);

    /// Saves snapshot_path now (atomic tmp+rename); false (with a structured
    /// stderr line) on I/O failure.  No-op returning true without a path.
    bool save_snapshot();

    /// Publishes service.* gauges (core counters, memo.*, cache.*) into the
    /// session registry handed in ServiceOptions::obs; no-op without one.
    void publish_metrics();

    const ServiceOptions& options() const { return options_; }

    /// Renders one response body for `request` executed inline, bypassing
    /// queue/memo/batching — the loadgen's "one engine call per request"
    /// baseline helper and the stats/health renderer.
    Response serve_unbatched(const Request& request);

private:
    struct Pending {
        Request request;
        std::promise<Response> promise;
        std::chrono::steady_clock::time_point enqueued;
        std::uint64_t digest = 0;
    };

    struct BatchContext; // per-batch shared graph preparation

    /// Drains the interactive queue (big = false) or the big-job queue
    /// (big = true); one body, two queues, so admitted and deferred work get
    /// identical serving semantics and differ only in worker budget.
    void worker_loop(bool big);
    std::vector<Pending> take_batch_locked(std::deque<Pending>& from);
    /// Prices one workload request against the cost model; Admit-everything
    /// when admission is disabled or the type is control-plane.
    admission::Decision admission_decision(const Request& request);
    void process_batch(std::vector<Pending> batch);
    /// Serves one request.  Returns false when the request expired in the
    /// queue (it then counts toward expired_in_queue, not batched_requests
    /// or busy time).  `batch_start` anchors the queue/batch stage split of
    /// the response's timing object.
    bool serve_one(Pending& pending, BatchContext& ctx, std::size_t batch_size,
                   std::chrono::steady_clock::time_point batch_start);
    /// Copies the resident graph a "digest" reference names into `request`;
    /// false when the digest does not resolve (the caller reports
    /// UnknownGraph).
    bool resolve_graph_ref(Request& request);
    /// Executes the request and renders the response body; throws on
    /// failure.  An engine solve names the core that ran in `backend`
    /// ("compiled" | "interpreted"; untouched otherwise).
    std::string execute(const Request& request, BatchContext& ctx,
                        double deadline_ms, std::string& backend);
    /// graph_patch: mutates the resident graph, invalidates stale memo
    /// entries, and re-evaluates the optional machine query over the dirty
    /// region (DESIGN.md "Incremental serving").
    std::string execute_patch(const Request& request, BatchContext& ctx,
                              double deadline_ms, std::string& backend);
    /// The layers-0 fast path: merges retained per-node verdicts with
    /// induced-ball reruns of the dirty nodes; falls back to one full
    /// run_local when retention is unavailable or any ball run is unclean.
    std::string evaluate_patch_decider(const Request& request,
                                       const BuiltGame& game,
                                       const PatchOutcome& outcome,
                                       double deadline_ms);
    std::string render_stats_body(bool full);
    std::string render_health_body();
    /// Fills the response's timing/trace envelope, feeds the stage
    /// histograms, and emits the slow-request line when configured.
    void finish_timing(Response& response, const Request& request,
                       double queue_ms, double batch_ms, double exec_ms,
                       std::chrono::steady_clock::time_point exec_end);
    /// Absorbs every service.* metric (core counters, memo.*, cache.*,
    /// snapshot.*, worker identity) plus the stage histograms into
    /// `registry` — the single collection point behind publish_metrics(),
    /// the stats wire body, and the `--metrics=` file.
    void collect_metrics(obs::MetricsRegistry& registry) const;
    ViewCache* cache_for(const std::string& machine);
    void load_snapshot();
    void snapshot_loop();

    ServiceOptions options_;
    std::chrono::steady_clock::time_point start_time_;
    std::int64_t pid_ = 0; ///< serving process, echoed in timing objects

    /// Per-stage latency histograms (service.latency_us, service.queue_us,
    /// service.batch_us, service.exec_us, service.write_us), recorded on the
    /// serve path and exported through collect_metrics().
    obs::MetricsRegistry stage_metrics_;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Pending> queue_;
    /// Deferred big jobs; guarded by queue_mutex_ like queue_, but drained
    /// by the dedicated big-job workers (big_cv_) so a storm of expensive
    /// requests can never occupy the interactive workers.
    std::condition_variable big_cv_;
    std::deque<Pending> big_queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
    std::vector<std::thread> big_workers_;

    ResultMemo memo_;
    GraphStore graphs_;
    mutable std::mutex cache_mutex_;
    std::map<std::string, std::unique_ptr<ViewCache>> view_caches_;

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> memo_served_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> batched_requests_{0};
    std::atomic<std::uint64_t> expired_in_queue_{0};
    std::atomic<std::uint64_t> patches_applied_{0};
    std::atomic<std::uint64_t> patch_incremental_{0};
    std::atomic<std::uint64_t> patch_full_{0};
    std::atomic<std::uint64_t> patch_dirty_nodes_{0};
    std::atomic<std::uint64_t> patch_total_nodes_{0};
    std::atomic<std::uint64_t> admission_admitted_{0};
    std::atomic<std::uint64_t> admission_rejected_{0};
    std::atomic<std::uint64_t> admission_deferred_{0};
    std::atomic<std::uint64_t> max_queue_depth_{0};
    std::atomic<std::uint64_t> busy_us_{0};

    mutable std::mutex snapshot_mutex_; ///< guards snapshot_stats_ + saves
    SnapshotStats snapshot_stats_;
    std::thread snapshot_thread_;
    std::mutex snapshot_wake_mutex_;
    std::condition_variable snapshot_wake_cv_;
    bool snapshot_stop_ = false;
};

} // namespace service
} // namespace lph
