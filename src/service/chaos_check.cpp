// The "service-chaos-vs-direct" differential check: serve a seeded request
// workload through a ServiceCore while a ChaosPlan mangles the rendered
// response lines (and "kills the worker" by tearing the core down and
// warm-starting a fresh one from an encoded snapshot), with a retrying
// client on top.  The invariant under test is the resilience contract:
// chaos may cost retries or leave requests unanswered, but every *valid ok
// response* that reaches the client must carry exactly the verdict the
// direct (unbatched, chaos-free) execution produces.  The kill path doubles
// as a snapshot-codec round-trip fuzz.

#include "graph/serialize.hpp"
#include "oracle/generators.hpp"
#include "oracle/harness.hpp"
#include "service/chaos.hpp"
#include "service/core.hpp"
#include "service/graph_store.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"

#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lph {
namespace service {

namespace {

constexpr int kMaxClientRounds = 12;

double prob_param(const ReproCase& r, const std::string& key) {
    const auto it = r.params.find(key);
    return it != r.params.end() ? std::stod(it->second) : 0.0;
}

/// A small mixed workload over the repro graph: two decider games (one
/// repeated, so the memo path is exercised across the simulated crash), a
/// logic query, and a decide query.
std::vector<Request> build_workload(const LabeledGraph& graph) {
    std::vector<Request> requests;
    auto with_graph = [&graph](Request request) {
        request.attach_graph(graph);
        return request;
    };
    Request game;
    game.type = RequestType::Game;
    game.machine = "allsel";
    game.layers = 0;
    game.sigma = true;
    game.ids = "global";
    requests.push_back(with_graph(game));
    Request eulerian_game = game;
    eulerian_game.machine = "eulerian";
    requests.push_back(with_graph(eulerian_game));
    Request logic;
    logic.type = RequestType::Logic;
    logic.formula = "all_selected";
    requests.push_back(with_graph(logic));
    Request decide;
    decide.type = RequestType::Decide;
    decide.problem = "eulerian";
    requests.push_back(with_graph(decide));
    requests.push_back(with_graph(game)); // memo-hit replay of request 0
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].id = std::to_string(i);
    }
    return requests;
}

ReproCase generate_service_chaos_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 1;
    gopt.max_nodes = 5;
    gopt.max_extra_edges = 3;
    gopt.allow_disconnected = true;
    gopt.labels = GraphGenOptions::Labels::ZeroOrOne;
    r.graph = random_graph_instance(rng, gopt);
    r.params["chaos_seed"] = std::to_string(rng.uniform(0, 1u << 20));
    r.params["drop"] = rng.chance(0.5) ? "0.25" : "0.1";
    r.params["truncate"] = rng.chance(0.5) ? "0.2" : "0";
    r.params["garble"] = rng.chance(0.5) ? "0.2" : "0";
    r.params["kill"] = rng.chance(0.5) ? "0.15" : "0";
    return r;
}

std::optional<std::string> compare_service_chaos(const ReproCase& r) {
    const std::vector<Request> requests = build_workload(r.graph);

    ServiceOptions options;
    options.manual_drain = true;
    options.memoize_results = true;

    // Golden verdicts: direct execution, no queue, no memo, no chaos.
    ServiceCore reference(options);
    std::vector<std::optional<VerdictView>> golden;
    for (const Request& request : requests) {
        golden.push_back(parse_verdict(reference.serve_unbatched(request).to_json()));
    }

    ChaosPlan plan;
    plan.seed = std::stoull(r.params.at("chaos_seed"));
    plan.drop_prob = prob_param(r, "drop");
    plan.truncate_prob = prob_param(r, "truncate");
    plan.garble_prob = prob_param(r, "garble");
    plan.kill_prob = prob_param(r, "kill");
    ChaosInjector injector(&plan);

    auto core = std::make_unique<ServiceCore>(options);
    std::set<std::size_t> unanswered;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        unanswered.insert(i);
    }

    for (int round = 0; round < kMaxClientRounds && !unanswered.empty();
         ++round) {
        const std::vector<std::size_t> attempt(unanswered.begin(),
                                               unanswered.end());
        for (const std::size_t i : attempt) {
            std::string line = core->call(requests[i]).to_json();
            switch (injector.next_action()) {
            case ChaosAction::KillWorker: {
                // Simulated crash + supervised warm restart: the response is
                // lost with the worker, the next core starts from the dead
                // worker's snapshot (round-tripped through the codec).
                const std::string bytes = encode_snapshot(core->snapshot_data());
                SnapshotData restored;
                std::string error;
                if (decode_snapshot(bytes, &restored, &error) !=
                    SnapshotReadResult::Loaded) {
                    return "snapshot round-trip rejected its own encoding: " +
                           error;
                }
                core = std::make_unique<ServiceCore>(options);
                core->restore_from(restored);
                continue;
            }
            case ChaosAction::Drop:
                continue; // no bytes reached the client; it will retry
            case ChaosAction::Truncate:
                line.erase(line.size() / 2);
                break;
            case ChaosAction::Garble:
                ChaosInjector::garble(line);
                break;
            case ChaosAction::Delay: // no wall-clock sleeps inside the fuzzer
            case ChaosAction::None:
                break;
            }
            const std::optional<VerdictView> view = parse_verdict(line);
            if (!view.has_value()) {
                continue; // mangled on the wire; the client retries
            }
            if (view->status != "ok") {
                continue; // structured errors/rejections are permitted; retry
            }
            // A valid ok response must be *correct*: right id, same verdict
            // as the direct execution.  This is the zero-incorrect-responses
            // assertion of the resilience contract.
            std::ostringstream detail;
            if (view->id != requests[i].id) {
                detail << "response to request " << requests[i].id
                       << " carried id " << view->id;
                return detail.str();
            }
            if (!golden[i].has_value() || golden[i]->status != "ok") {
                detail << "request " << requests[i].id
                       << " got ok under chaos but "
                       << (golden[i] ? golden[i]->status : "unparseable")
                       << " directly";
                return detail.str();
            }
            if (view->has_verdict != golden[i]->has_verdict ||
                (view->has_verdict && view->verdict != golden[i]->verdict)) {
                detail << "request " << requests[i].id << " ("
                       << to_string(requests[i].type) << ") verdict "
                       << (view->has_verdict ? (view->verdict ? "true" : "false")
                                             : "absent")
                       << " under chaos but "
                       << (golden[i]->has_verdict
                               ? (golden[i]->verdict ? "true" : "false")
                               : "absent")
                       << " directly";
                return detail.str();
            }
            unanswered.erase(i);
        }
    }
    // Requests still unanswered after the retry budget are a liveness cost
    // of aggressive chaos, not a correctness failure — only wrong responses
    // diverge.
    return std::nullopt;
}

// --- service-patch-vs-full-recompute ------------------------------------
//
// Drives a seeded patch sequence against a resident graph through the core's
// graph_register/graph_patch path (incremental dirty-ball recomputation) and
// replays the same sequence as plain inline-graph game requests through
// serve_unbatched (one full recompute per step).  The game fragments must be
// byte-identical at every step, and the digest the patch echoes must match
// the digest of the reference graph mutated by the same ops.

/// One random valid mutation of g; falls back to a label flip of node 0
/// when the drawn kind has no valid move (e.g. remove_edge on an edgeless
/// graph).
PatchOp random_patch_op(Rng& rng, const LabeledGraph& g) {
    for (int attempt = 0; attempt < 16; ++attempt) {
        switch (rng.index(5)) {
        case 0: { // add_edge
            if (g.num_nodes() < 2) {
                break;
            }
            const NodeId u = static_cast<NodeId>(rng.index(g.num_nodes()));
            const NodeId v = static_cast<NodeId>(rng.index(g.num_nodes()));
            if (u != v && !g.has_edge(u, v)) {
                PatchOp op;
                op.kind = PatchOp::Kind::AddEdge;
                op.u = std::min(u, v);
                op.v = std::max(u, v);
                return op;
            }
            break;
        }
        case 1: { // remove_edge (uniform over existing edges)
            std::vector<std::pair<NodeId, NodeId>> edges;
            for (NodeId u = 0; u < g.num_nodes(); ++u) {
                for (const NodeId v : g.neighbors(u)) {
                    if (u < v) {
                        edges.emplace_back(u, v);
                    }
                }
            }
            if (edges.empty()) {
                break;
            }
            const auto& [u, v] = edges[rng.index(edges.size())];
            PatchOp op;
            op.kind = PatchOp::Kind::RemoveEdge;
            op.u = u;
            op.v = v;
            return op;
        }
        case 2: { // relabel
            PatchOp op;
            op.kind = PatchOp::Kind::Relabel;
            op.u = static_cast<NodeId>(rng.index(g.num_nodes()));
            op.label = rng.chance(0.5) ? "1" : "0";
            return op;
        }
        case 3: { // add_node
            if (g.num_nodes() >= 16) {
                break; // keep shrunk repros small
            }
            PatchOp op;
            op.kind = PatchOp::Kind::AddNode;
            op.label = rng.chance(0.5) ? "1" : "0";
            return op;
        }
        case 4: { // remove_node (uniform over isolated nodes)
            if (g.num_nodes() < 2) {
                break;
            }
            std::vector<NodeId> isolated;
            for (NodeId u = 0; u < g.num_nodes(); ++u) {
                if (g.neighbors(u).empty()) {
                    isolated.push_back(u);
                }
            }
            if (isolated.empty()) {
                break;
            }
            PatchOp op;
            op.kind = PatchOp::Kind::RemoveNode;
            op.u = isolated[rng.index(isolated.size())];
            return op;
        }
        }
    }
    PatchOp op;
    op.kind = PatchOp::Kind::Relabel;
    op.u = 0;
    op.label = g.label(0) == "1" ? "0" : "1";
    return op;
}

ReproCase generate_patch_case(Rng& rng) {
    ReproCase r;
    GraphGenOptions gopt;
    gopt.min_nodes = 2;
    gopt.max_nodes = 7;
    gopt.max_extra_edges = 3;
    gopt.allow_disconnected = true;
    gopt.labels = GraphGenOptions::Labels::ZeroOrOne;
    r.graph = random_graph_instance(rng, gopt);
    static const char* kMachines[] = {"allsel", "eulerian", "coloring2",
                                      "coloring3"};
    r.params["machine"] = kMachines[rng.index(4)];
    // Mostly deciders (the retained-verdict fast path); some one-layer games
    // (the engine's per-ball store over the shared view cache).
    r.params["layers"] = rng.chance(0.3) ? "1" : "0";
    r.params["ids"] = rng.chance(0.5) ? "local" : "global";
    r.params["steps"] = std::to_string(rng.uniform(1, 5));
    r.params["ops_seed"] = std::to_string(rng.uniform(0, 1u << 20));
    return r;
}

std::string param(const ReproCase& r, const std::string& key,
                  const std::string& fallback) {
    const auto it = r.params.find(key);
    return it != r.params.end() ? it->second : fallback;
}

std::optional<std::string> compare_patch_vs_full(const ReproCase& r) {
    const std::string machine = param(r, "machine", "eulerian");
    const int layers = std::stoi(param(r, "layers", "0"));
    const std::string ids = param(r, "ids", "global");
    const int steps = std::stoi(param(r, "steps", "3"));
    Rng ops_rng(std::stoull(param(r, "ops_seed", "1")));

    ServiceOptions options;
    options.manual_drain = true;
    ServiceCore core(options);     // serves the incremental patch path
    ServiceCore reference(options); // full recompute on inline graphs

    // The golden side re-solves from scratch on the interpreted backend, the
    // reference the patched side's store must match.
    Request golden_query;
    golden_query.type = RequestType::Game;
    golden_query.machine = machine;
    golden_query.layers = layers;
    golden_query.sigma = true;
    golden_query.ids = ids;
    golden_query.backend = "interpreted";

    LabeledGraph mirror = r.graph;
    Request reg;
    reg.type = RequestType::GraphRegister;
    reg.attach_graph(mirror);
    if (core.call(reg).status != "ok") {
        return "graph_register failed";
    }
    std::uint64_t digest = fnv1a64(reg.canonical_graph);

    for (int step = 0; step < steps; ++step) {
        Request patch;
        patch.type = RequestType::GraphPatch;
        patch.has_ref_digest = true;
        patch.ref_digest = digest;
        patch.machine = machine;
        patch.layers = layers;
        patch.sigma = true;
        patch.ids = ids;
        const std::size_t op_count = 1 + ops_rng.index(2);
        LabeledGraph staged = mirror;
        for (std::size_t i = 0; i < op_count; ++i) {
            const PatchOp op = random_patch_op(ops_rng, staged);
            apply_patch_op(staged, op); // the shared reference semantics
            patch.ops.push_back(op);
        }
        const Response served = core.call(patch);
        mirror = staged;
        digest = fnv1a64(graph_to_text(mirror));

        // Whatever the query outcome, the ops themselves must have committed:
        // the resident must stay addressable at the mirror's digest (a
        // zero-op patch is a pure state probe).
        Request probe;
        probe.type = RequestType::GraphPatch;
        probe.has_ref_digest = true;
        probe.ref_digest = digest;
        const Response probed = core.call(probe);
        if (probed.status != "ok") {
            std::ostringstream desync;
            desync << "step " << step << ": resident graph desynced (probe at "
                   << digest << ": " << probed.error << ": " << probed.detail
                   << "); ops:";
            for (const PatchOp& op : patch.ops) {
                desync << ' ' << to_string(op.kind) << '(' << op.u << ','
                       << op.v << ')';
            }
            return desync.str();
        }

        golden_query.attach_graph(mirror);
        const Response golden = reference.serve_unbatched(golden_query);

        std::ostringstream detail;
        if (served.status != golden.status) {
            detail << "step " << step << ": patch status " << served.status
                   << " (" << served.error << ": " << served.detail
                   << ") but full recompute " << golden.status << " ("
                   << golden.error << ": " << golden.detail << "); ops:";
            for (const PatchOp& op : patch.ops) {
                detail << ' ' << to_string(op.kind) << '(' << op.u << ','
                       << op.v << ')';
            }
            detail << "; graph: " << golden_query.canonical_graph;
            return detail.str();
        }
        if (served.status != "ok") {
            if (served.error != golden.error) {
                detail << "step " << step << ": patch error " << served.error
                       << " but full recompute " << golden.error;
                return detail.str();
            }
            continue; // both faulted identically (e.g. non-unique local ids)
        }
        const std::string expected_digest =
            "\"digest\":\"" + std::to_string(digest) + '"';
        if (served.body.rfind(expected_digest, 0) != 0) {
            detail << "step " << step << ": patch echoed "
                   << served.body.substr(0, expected_digest.size())
                   << " but the reference graph digests to " << digest;
            return detail.str();
        }
        const std::size_t fragment_at = served.body.find("\"accepted\":");
        if (fragment_at == std::string::npos) {
            detail << "step " << step << ": patch body carries no game "
                   << "fragment: " << served.body;
            return detail.str();
        }
        if (served.body.substr(fragment_at) != golden.body) {
            detail << "step " << step << ": incremental fragment "
                   << served.body.substr(fragment_at)
                   << " != full recompute " << golden.body;
            return detail.str();
        }
    }

    // The resident graph must also answer a plain digest-reference query
    // with the full-recompute body.
    Request by_ref = golden_query;
    by_ref.has_graph = false;
    by_ref.graph = LabeledGraph{};
    by_ref.canonical_graph.clear();
    by_ref.has_ref_digest = true;
    by_ref.ref_digest = digest;
    const Response ref_served = core.call(by_ref);
    const Response golden = reference.serve_unbatched(golden_query);
    if (ref_served.status != golden.status ||
        (ref_served.status == "ok" && ref_served.body != golden.body)) {
        return "digest-reference query diverged from full recompute: " +
               (ref_served.status == "ok" ? ref_served.body
                                          : ref_served.error) +
               " != " + (golden.status == "ok" ? golden.body : golden.error);
    }
    return std::nullopt;
}

} // namespace

void register_service_checks() {
    static std::once_flag once;
    std::call_once(once, [] {
        RegisteredCheck chaos_check;
        chaos_check.name = "service-chaos-vs-direct";
        chaos_check.generate = generate_service_chaos_case;
        chaos_check.compare = compare_service_chaos;
        register_check(chaos_check);
        RegisteredCheck patch_check;
        patch_check.name = "service-patch-vs-full-recompute";
        patch_check.generate = generate_patch_case;
        patch_check.compare = compare_patch_vs_full;
        register_check(patch_check);
    });
}

} // namespace service
} // namespace lph
