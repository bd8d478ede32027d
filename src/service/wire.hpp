#pragma once

#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "logic/formula.hpp"

#include <cstdint>
#include <optional>
#include <string>

namespace lph {
namespace service {

/// Size guards applied to every request line before anything is executed.
struct WireLimits {
    std::size_t max_line_bytes = 1 << 20; ///< one request line, serialized
    std::size_t max_graph_nodes = 256;    ///< per graph payload
    std::size_t max_graph_edges = 4096;
    std::size_t max_label_bits = 64;
    std::size_t max_patch_ops = 64;       ///< per graph_patch request
    std::size_t max_formula_bytes = 1 << 14; ///< per eval formula text

    GraphReadLimits graph_limits() const {
        return GraphReadLimits{max_graph_nodes, max_graph_edges, max_label_bits,
                               max_line_bytes};
    }
};

enum class RequestType {
    Game,
    Logic,
    Eval,
    Decide,
    OracleCheck,
    Stats,
    Health,
    GraphRegister,
    GraphPatch,
};

const char* to_string(RequestType type);

/// One mutation of a resident graph (an element of graph_patch's "ops"
/// array).  Node indices refer to the resident graph *as of this op* —
/// earlier ops in the same request (including remove_node renumbering)
/// already applied.
struct PatchOp {
    enum class Kind { AddEdge, RemoveEdge, Relabel, AddNode, RemoveNode };
    Kind kind = Kind::AddEdge;
    NodeId u = 0;      ///< add_edge / remove_edge / relabel / remove_node
    NodeId v = 0;      ///< add_edge / remove_edge
    std::string label; ///< relabel / add_node
};

const char* to_string(PatchOp::Kind kind);

/// One parsed wire request.  The line grammar is one strict JSON object per
/// line (DESIGN.md "Serving layer" has the full field table):
///
///   {"type":"game","machine":"coloring3","layers":1,"sigma":true,
///    "ids":"global","graph":"graph 3\nedge 0 1\nedge 1 2\nedge 0 2\n"}
///   {"type":"logic","formula":"all_selected","graph":"..."}
///   {"type":"eval","formula":"exists x. O1(x)","graph":"..."}
///   {"type":"decide","problem":"eulerian","graph":"..."}
///   {"type":"oracle_check","check":"eulerian-vs-bruteforce","seed":7,
///    "instances":25}
///   {"type":"stats"}   {"type":"health"}
///   {"type":"graph_register","graph":"graph 3\nedge 0 1\nedge 1 2\n"}
///   {"type":"graph_patch","digest":"17352...","ops":[
///    {"op":"add_edge","u":0,"v":2},{"op":"relabel","u":1,"label":"1"},
///    {"op":"add_node","label":"0"},{"op":"remove_node","u":3},
///    {"op":"remove_edge","u":0,"v":1}],"machine":"eulerian","layers":0}
///
/// graph_register admits a graph into the resident store and echoes its
/// canonical digest (a decimal string — u64 digests do not survive JSON
/// doubles); graph_patch mutates the resident copy, echoes the new digest,
/// and, when a machine is named, re-evaluates the game incrementally over
/// the dirty region.  game/logic/eval/decide accept "digest":"<decimal>" in
/// place of "graph" to run against a resident graph.
///
/// Common optional fields: "id" (echoed back verbatim; number or string),
/// "deadline_ms" (propagated into the engine's wall-clock deadline guard),
/// and "trace":{"id":<number|string>} — a client-chosen trace id echoed back
/// inside the response so multi-hop timings can be correlated; like "id" it
/// is excluded from the memo key.  "stats" additionally accepts
/// "detail":"full" for the bucket-level registry snapshot.
/// Game extras: "tolerate_faults", "fault_seed"/"fault_crash"/"fault_drop"/
/// "fault_truncate"/"fault_corrupt" (a deterministic FaultPlan), and
/// "backend": "compiled" (the default) runs the engine's lazily filled
/// per-ball store (GameBackend::Compiled), "interpreted" forces the
/// reference interpreter.  Results are bit-identical either way, so the
/// choice only matters for performance comparisons; the response's timing
/// object reports which core actually ran.  Unknown fields are protocol
/// errors — strict by design.
struct Request {
    RequestType type = RequestType::Health;
    std::string id;          ///< client correlation id, "" when absent
    double deadline_ms = 0;  ///< 0 = server default
    std::string trace_id;    ///< raw token from "trace":{"id":...}, "" absent

    // stats
    std::string stats_detail; ///< "" (summary) | "full" (bucket-level)

    // game
    std::string machine;
    int layers = 1;
    bool sigma = true;
    std::string ids = "global"; ///< identifier scheme: "global" | "local"
    bool tolerate_faults = false;
    std::uint64_t fault_seed = 0;
    double fault_crash = 0;
    double fault_drop = 0;
    double fault_truncate = 0;
    double fault_corrupt = 0;
    /// Leaf-evaluation core: "compiled" (GameBackend::Compiled) |
    /// "interpreted".
    /// Not part of the memo key: both return bit-identical bodies.
    std::string backend = "compiled";

    // logic
    std::string formula;
    std::uint64_t fseed = 0;

    // eval: "formula" carries arbitrary surface-syntax text, parsed through
    // the language frontend at parse_request time (a syntax error is a
    // protocol error carrying the frontend's line/column position).  The
    // stored text is the parser's canonical re-print, so the memo key and
    // to_json round-trip are independent of the client's spelling.
    Formula eval_formula;
    std::string eval_text;

    // decide
    std::string problem; ///< "eulerian" | "coloring" | "hamiltonian"
    int k = 3;           ///< colors, for problem == "coloring"

    // oracle_check
    std::string oracle_check;
    std::uint64_t seed = 1;
    std::size_t instances = 25;

    // graph payload (game/logic/decide/graph_register)
    bool has_graph = false;
    LabeledGraph graph;
    std::string canonical_graph; ///< graph_to_text(graph) — the digest input

    // resident-graph reference ("digest" field, decimal-string u64):
    // game/logic/decide may name a registered graph instead of carrying one
    // inline; graph_patch must.  Resolved against the GraphStore at serve
    // time (never at submit — a fire-and-forget patch chain must see every
    // earlier patch applied).
    bool has_ref_digest = false;
    std::uint64_t ref_digest = 0;

    // graph_patch: the mutations, plus an optional machine query evaluated
    // incrementally on the patched graph (the game fields above carry the
    // flavor; empty machine = mutate only).
    std::vector<PatchOp> ops;

    bool wants_fault_plan() const {
        return fault_crash > 0 || fault_drop > 0 || fault_truncate > 0 ||
               fault_corrupt > 0;
    }

    /// Attaches a graph payload: moves `g` in and sets canonical_graph to
    /// `canonical`, or to graph_to_text(g) when `canonical` is empty.
    void attach_graph(LabeledGraph g, std::string canonical = {});

    /// 64-bit digest of the canonical graph payload (0 when absent).
    std::uint64_t graph_digest() const;

    /// Cache key for the cross-request result memo: every semantically
    /// significant field, excluding `id` and `deadline_ms` (a memoized clean
    /// result is valid under any deadline).  "" for uncacheable types.
    std::string memo_key() const;

    /// Serializes back to one wire line (used by the client and the
    /// round-trip property tests).
    std::string to_json() const;
};

/// Parses one request line.  Throws precondition_error with a
/// "line <line_number>: " prefix on any malformed input: bad JSON, trailing
/// garbage, unknown type or field, or an oversized/invalid graph payload.
Request parse_request(const std::string& line, std::size_t line_number,
                      const WireLimits& limits);

/// Server-side stage breakdown of one request, carried on the response as the
/// "timing" object (all stages in whole microseconds):
///
///   queue_us  submit -> dequeue (bounded-queue wait, deadline-eligible)
///   batch_us  batch formation start -> this request's turn (shared prep +
///             intra-batch wait; 0 on unbatched paths)
///   exec_us   engine/memo execution for this request
///   write_us  response materialization after execute (memo insert + body
///             bookkeeping) — socket transmission is only visible to the
///             client, so queue+batch+exec+write <= client-measured wall time
///
/// The identity fields let an aggregator attribute the sample to a worker:
/// worker_pid is the serving process, generation its supervisor restart
/// count.  memo_hit/batch_size mirror the envelope so the timing object is
/// self-contained for clients that only parse it.
struct ResponseTiming {
    bool present = false;
    std::uint64_t queue_us = 0;
    std::uint64_t batch_us = 0;
    std::uint64_t exec_us = 0;
    std::uint64_t write_us = 0;
    /// The core that actually ran: "compiled" when the solve used compiled
    /// tables, "interpreted" for any other engine solve, "" (omitted) for
    /// memo hits and non-engine requests.
    std::string backend;
    std::int64_t worker_pid = 0;
    std::uint64_t generation = 0;

    std::uint64_t stage_sum_us() const {
        return queue_us + batch_us + exec_us + write_us;
    }
};

/// One wire response: a single JSON line.
///
///   {"id":7,"status":"ok","type":"game","accepted":true,...,
///    "memo":"miss","batch":3,"service_ms":0.42,
///    "timing":{"queue_us":12,"batch_us":3,"exec_us":410,"write_us":2,
///     "memo_hit":false,"batch_size":3,"backend":"compiled",
///     "worker_pid":4242,"generation":1}}
///   {"status":"error","error":"DeadlineExceeded","detail":"..."}
///   {"status":"rejected","error":"QueueFull","detail":"..."}
struct Response {
    std::string id;
    RequestType type = RequestType::Health;
    std::string status = "ok"; ///< "ok" | "error" | "rejected"
    std::string error;         ///< RunError name / ProtocolError / QueueFull /
                               ///< InvalidRequest / InternalError
    std::string detail;
    /// Pre-rendered JSON members of the result ("\"accepted\":true,..."),
    /// empty for errors.  This fragment is what the result memo stores.
    std::string body;
    bool memo_hit = false;
    std::size_t batch = 1;   ///< requests served by this request's batch
    double service_ms = 0;   ///< dequeue-to-completion time
    std::string trace_id;    ///< echoed request trace id token, "" absent
    ResponseTiming timing;   ///< stage breakdown, rendered when present

    std::string to_json() const;

    static Response protocol_error(const std::string& detail);
    static Response rejection(const std::string& id, const std::string& detail);
    /// Cost-model rejection: status "rejected", error "AdmissionRejected",
    /// with the predicted cost and the violated limit echoed both in the
    /// detail text and as structured body fields.
    static Response admission_rejection(const std::string& id,
                                        double predicted_us, double limit_us);
};

/// The verdict-bearing view of one response line — what the chaos smoke and
/// `lph_client --verify --against` compare.  Only the boolean verdict fields
/// ("accepted", "answer", "satisfied", "passed") are semantic; envelope
/// fields like service_ms/memo/batch legitimately differ across runs.
struct VerdictView {
    std::string id;     ///< raw id token ("7" / "\"abc\""); "" when absent
    std::string status; ///< "ok" | "error" | "rejected"
    bool has_verdict = false;
    bool verdict = false;
};

/// Strictly parses one response line into its verdict view; nullopt when the
/// line is not a valid response object (e.g. chaos-garbled bytes) — callers
/// treat that as a transport error, never as a verdict.
std::optional<VerdictView> parse_verdict(const std::string& line);

/// Client-side view of a response's "timing" object (plus the mirrored
/// memo/batch fields), for latency-breakdown reporting in lph_client and the
/// loadgen.  nullopt when the line has no well-formed timing object.
struct TimingView {
    std::uint64_t queue_us = 0;
    std::uint64_t batch_us = 0;
    std::uint64_t exec_us = 0;
    std::uint64_t write_us = 0;
    bool memo_hit = false;
    std::uint64_t batch_size = 1;
    std::string backend;
    std::int64_t worker_pid = 0;
    std::uint64_t generation = 0;

    std::uint64_t stage_sum_us() const {
        return queue_us + batch_us + exec_us + write_us;
    }
};

std::optional<TimingView> parse_timing(const std::string& line);

/// FNV-1a 64-bit digest (the memo and batch grouping key hash).
std::uint64_t fnv1a64(const std::string& data);

} // namespace service
} // namespace lph
