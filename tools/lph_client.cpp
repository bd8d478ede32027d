// lph_client: wire-protocol companion to lphd.
//
// Modes:
//   --generate N [--seed S]    emit N mixed request lines (games, logic,
//                              decisions, oracle checks, stats/health) drawn
//                              from a small seeded graph pool, to stdout —
//                              the smoke-test workload
//   --patch N [--seed S]       emit an incremental-serving workload: one
//                              graph_register followed by graph_patch lines
//                              (chord toggles, relabels, grow/shrink pairs)
//                              that each carry a machine query, plus
//                              digest-reference game lines — every digest is
//                              mirrored client-side, so the stream is valid
//                              against a single-threaded lphd (--threads 1,
//                              FIFO patch order)
//   --patch-golden N [--seed S]
//                              the same seeded sequence rendered as
//                              self-contained full-recompute game requests
//                              (inline post-patch graphs, same ids): feed it
//                              to a fresh lphd and use the output as the
//                              --against file to differential-check the
//                              incremental stream, verdict by verdict
//   --verify [--expect N] [--against FILE]
//                              read response lines from stdin, check every
//                              one parses as a response and none is a
//                              ProtocolError; with --expect, also require
//                              exactly N responses; with --against, compare
//                              each ok response's verdict to the same id's
//                              verdict in FILE (a chaos-free golden run) and
//                              fail on any mismatch.  Exit 1 on violation
//   --formula TEXT [--count N] [--seed S]
//   --formula-file PATH [--count N] [--seed S]
//                              emit N eval request lines carrying a
//                              user-written surface-syntax formula (see
//                              DESIGN.md "Language frontend"), each against a
//                              graph drawn from the same seeded pool as
//                              --generate; the daemon parses, classifies,
//                              prices, and evaluates it
//   --connect HOST:PORT        send stdin's request lines to a running lphd
//                              and print the responses, one request in
//                              flight at a time, with per-request timeouts,
//                              jittered exponential backoff, reconnects, and
//                              idempotent replay (safe: execution is a pure
//                              function of the request's semantic fields and
//                              the memo key excludes id/deadline).  Tune with
//                              --retries/--timeout-ms/--backoff-ms/
//                              --max-backoff-ms/--retry-seed; a request still
//                              unanswered after the retry budget is printed
//                              as a client-side RetriesExhausted error line
//
//   lph_client --generate 320 --seed 7 | lphd --pipe | lph_client --verify --expect 320
//
// Exit status: 0 ok; 1 verification failure or connection error; 2 usage.

#include "core/rng.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "service/graph_store.hpp"
#include "service/json.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace lph;

struct Options {
    long generate = -1;
    long patch = -1;
    long patch_golden = -1;
    std::string formula_text;
    std::string formula_file;
    long count = 8;
    std::uint64_t seed = 1;
    bool verify = false;
    long expect = -1;
    std::string against_path;
    std::string connect;
    service::RetryPolicy retry;
};

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "lph_client: " << message << "\n"
              << "usage: lph_client --generate N [--seed S]\n"
              << "       lph_client --patch N [--seed S]\n"
              << "       lph_client --patch-golden N [--seed S]\n"
              << "       lph_client --formula TEXT [--count N] [--seed S]\n"
              << "       lph_client --formula-file PATH [--count N] [--seed S]\n"
              << "       lph_client --verify [--expect N] [--against FILE]\n"
              << "       lph_client --connect HOST:PORT [--retries N]\n"
              << "                  [--timeout-ms X] [--backoff-ms X]\n"
              << "                  [--max-backoff-ms X] [--retry-seed S]\n";
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage_error(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--generate") {
            opt.generate = std::stol(value());
        } else if (arg == "--patch") {
            opt.patch = std::stol(value());
        } else if (arg == "--patch-golden") {
            opt.patch_golden = std::stol(value());
        } else if (arg == "--formula") {
            opt.formula_text = value();
        } else if (arg == "--formula-file") {
            opt.formula_file = value();
        } else if (arg == "--count") {
            opt.count = std::stol(value());
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--expect") {
            opt.expect = std::stol(value());
        } else if (arg == "--against") {
            opt.against_path = value();
        } else if (arg == "--connect") {
            opt.connect = value();
        } else if (arg == "--retries") {
            opt.retry.max_retries = std::stoi(value());
        } else if (arg == "--timeout-ms") {
            opt.retry.timeout_ms = std::stod(value());
        } else if (arg == "--backoff-ms") {
            opt.retry.base_backoff_ms = std::stod(value());
        } else if (arg == "--max-backoff-ms") {
            opt.retry.max_backoff_ms = std::stod(value());
        } else if (arg == "--retry-seed") {
            opt.retry.seed = std::stoull(value());
        } else {
            usage_error("unknown argument '" + arg + "'");
        }
    }
    const int modes = (opt.generate >= 0 ? 1 : 0) + (opt.patch >= 0 ? 1 : 0) +
                      (opt.patch_golden >= 0 ? 1 : 0) + (opt.verify ? 1 : 0) +
                      (opt.formula_text.empty() ? 0 : 1) +
                      (opt.formula_file.empty() ? 0 : 1) +
                      (opt.connect.empty() ? 0 : 1);
    if (modes != 1) {
        usage_error("pass exactly one of --generate, --patch, --patch-golden, "
                    "--formula, --formula-file, --verify, --connect");
    }
    if (opt.count <= 0) {
        usage_error("--count must be positive");
    }
    return opt;
}

/// The seeded graph pool --generate and --formula draw from: small graphs,
/// so they repeat — repeats are what exercise micro-batching and the
/// cross-request memo.  Unlabelled graphs carry the empty label, which the
/// canonical text omits.
std::vector<LabeledGraph> graph_pool() {
    std::vector<LabeledGraph> graphs;
    for (std::size_t n = 4; n <= 7; ++n) {
        graphs.push_back(cycle_graph(n, ""));
        graphs.push_back(path_graph(n, ""));
    }
    graphs.push_back(cycle_graph(6, "1"));
    graphs.push_back(complete_graph(4, ""));
    return graphs;
}

service::Request make_request(service::RequestType type, long id) {
    service::Request request;
    request.type = type;
    request.id = std::to_string(id);
    return request;
}

/// The query fields every game and graph_patch line of --patch carries.
void set_query(service::Request& request, const std::string& machine,
               int layers, const std::string& ids) {
    request.machine = machine;
    request.layers = layers;
    request.sigma = true;
    request.ids = ids;
}

int generate(long count, std::uint64_t seed) {
    const std::vector<LabeledGraph> graphs = graph_pool();
    const std::vector<std::string> machines = {"allsel", "eulerian",
                                               "coloring2", "coloring3"};
    // Formulas that stay inside the model checker's SO-universe guard at
    // these graph sizes: FO sentences plus the monadic-SO colorability pair.
    // Sentences quantifying a *binary* relation (not_all_selected,
    // hamiltonian) need |domain|^2 <= 24 and would just error out here.
    const std::vector<std::string> formulas = {"all_selected", "two_colorable",
                                               "three_colorable", "random"};
    const std::vector<std::string> problems = {"eulerian", "coloring",
                                               "hamiltonian"};

    using service::RequestType;
    std::uint64_t state = seed;
    for (long i = 0; i < count; ++i) {
        const LabeledGraph& graph = graphs[splitmix64_next(state) % graphs.size()];
        service::Request request;
        switch (splitmix64_next(state) % 16) {
        case 0:
            request = make_request(RequestType::Stats, i);
            break;
        case 1:
            request = make_request(RequestType::Health, i);
            break;
        case 2:
            request = make_request(RequestType::OracleCheck, i);
            request.oracle_check = "eulerian-vs-bruteforce";
            request.seed = 1 + splitmix64_next(state) % 3;
            request.instances = 5;
            break;
        case 3:
        case 4:
        case 5:
            request = make_request(RequestType::Logic, i);
            request.formula = formulas[splitmix64_next(state) % formulas.size()];
            if (request.formula == "random") {
                request.fseed = splitmix64_next(state) % 64;
            }
            request.attach_graph(graph);
            break;
        case 6:
        case 7:
        case 8:
            request = make_request(RequestType::Decide, i);
            request.problem = problems[splitmix64_next(state) % problems.size()];
            request.k = static_cast<int>(2 + splitmix64_next(state) % 3);
            request.attach_graph(graph);
            break;
        default: {
            request = make_request(RequestType::Game, i);
            const std::string& machine =
                machines[splitmix64_next(state) % machines.size()];
            const bool decider = machine == "allsel" || machine == "eulerian";
            set_query(request, machine, decider ? 0 : 1,
                      splitmix64_next(state) % 2 ? "global" : "local");
            request.attach_graph(graph);
            break;
        }
        }
        std::cout << request.to_json() << "\n";
    }
    return 0;
}

/// Emit `count` eval lines carrying one user-written formula, each against a
/// graph from the --generate pool.  The daemon does the real work — parse,
/// classify, price, evaluate — so a syntax error comes back as one
/// ProtocolError line with the frontend's line/column, not a client crash.
int generate_eval(const std::string& formula, long count, std::uint64_t seed) {
    const std::vector<LabeledGraph> graphs = graph_pool();
    std::uint64_t state = seed;
    for (long i = 0; i < count; ++i) {
        service::Request request = make_request(service::RequestType::Eval, i);
        request.eval_text = formula;
        request.attach_graph(graphs[splitmix64_next(state) % graphs.size()]);
        std::cout << request.to_json() << "\n";
    }
    return 0;
}

/// Whole-file read for --formula-file, with the trailing newline(s) trimmed:
/// the wire carries the formula as one JSON string and the surface syntax is
/// newline-insensitive anyway.
std::string read_formula_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "lph_client: cannot read --formula-file " << path << "\n";
        std::exit(2);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
    }
    return text;
}

/// The seeded incremental-serving workload (and its full-recompute golden
/// twin).  Both modes walk the identical op sequence over a client-side
/// mirror of the resident graph; the digests the server will echo are
/// recomputed locally (fnv1a64 over graph_to_text, the wire's own scheme),
/// so the patch stream can reference them without ever reading a response.
/// The base cycle stays intact — chords toggle, labels flip, and grown nodes
/// hang off it by one edge (removed last-in-first-out) — so every queried
/// graph is connected and every line earns a verdict to compare.
int generate_patch(long count, std::uint64_t seed, bool golden) {
    // A one-layer game enumerates 2^n certificate leaves, so the workload
    // keeps n small: a 10-cycle plus at most 2 grown nodes.  The layers-0
    // deciders are linear and dominate the mix.
    constexpr NodeId kBase = 10; // cycle nodes; chords stay inside the cycle
    constexpr std::size_t kMaxGrown = 2;
    LabeledGraph mirror = cycle_graph(kBase, "1");
    std::uint64_t digest = service::fnv1a64(graph_to_text(mirror));

    if (!golden) {
        service::Request reg =
            make_request(service::RequestType::GraphRegister, 0);
        reg.attach_graph(mirror);
        std::cout << reg.to_json() << "\n";
    }

    std::vector<NodeId> grown_anchor; // anchor of each grown node, LIFO
    std::uint64_t state = seed;
    for (long i = 1; i < count; ++i) {
        // One query flavor per line, drawn before the ops so both modes
        // consume the stream identically.
        const std::uint64_t qpick = splitmix64_next(state) % 100;
        const char* machine = "eulerian";
        int layers = 0;
        if (qpick < 20) {
            machine = "allsel";
        } else if (qpick < 30) {
            machine = "coloring2";
            layers = 1;
        }

        const bool plain_query = i % 8 == 0; // digest-reference game line
        std::vector<service::PatchOp> ops;
        if (!plain_query) {
            const std::uint64_t pick = splitmix64_next(state) % 100;
            if (pick < 55) {
                // Chord toggle: endpoints at cyclic distance >= 2, so the
                // base cycle is never cut.
                const NodeId u = static_cast<NodeId>(splitmix64_next(state) % kBase);
                const NodeId v = static_cast<NodeId>(
                    (u + 2 + splitmix64_next(state) % (kBase - 3)) % kBase);
                service::PatchOp op;
                op.kind = mirror.has_edge(u, v)
                              ? service::PatchOp::Kind::RemoveEdge
                              : service::PatchOp::Kind::AddEdge;
                op.u = std::min(u, v);
                op.v = std::max(u, v);
                ops.push_back(op);
            } else if (pick < 75) {
                service::PatchOp op;
                op.kind = service::PatchOp::Kind::Relabel;
                op.u = static_cast<NodeId>(splitmix64_next(state) % mirror.num_nodes());
                op.label = splitmix64_next(state) % 2 ? "1" : "0";
                ops.push_back(op);
            } else if (grown_anchor.empty() ||
                       (pick < 90 && grown_anchor.size() < kMaxGrown)) {
                // Grow: add a node and wire it to the cycle in one patch, so
                // the graph never serves a query disconnected.
                const NodeId anchor =
                    static_cast<NodeId>(splitmix64_next(state) % kBase);
                service::PatchOp add;
                add.kind = service::PatchOp::Kind::AddNode;
                add.label = "1";
                service::PatchOp wire_up;
                wire_up.kind = service::PatchOp::Kind::AddEdge;
                wire_up.u = static_cast<NodeId>(mirror.num_nodes());
                wire_up.v = anchor;
                ops.push_back(add);
                ops.push_back(wire_up);
                grown_anchor.push_back(anchor);
            } else {
                // Shrink the most recent growth: detach, then remove.  LIFO
                // keeps the victim at the highest id, so no renumbering.
                const NodeId victim =
                    static_cast<NodeId>(mirror.num_nodes() - 1);
                service::PatchOp cut;
                cut.kind = service::PatchOp::Kind::RemoveEdge;
                cut.u = victim;
                cut.v = grown_anchor.back();
                service::PatchOp drop;
                drop.kind = service::PatchOp::Kind::RemoveNode;
                drop.u = victim;
                ops.push_back(cut);
                ops.push_back(drop);
                grown_anchor.pop_back();
            }
        }

        const std::uint64_t ref = digest; // pre-patch: what the request names
        for (const service::PatchOp& op : ops) {
            service::apply_patch_op(mirror, op);
        }
        if (!ops.empty()) {
            digest = service::fnv1a64(graph_to_text(mirror));
        }

        using service::RequestType;
        service::Request request = make_request(
            plain_query || golden ? RequestType::Game : RequestType::GraphPatch,
            i);
        set_query(request, machine, layers, "global");
        if (golden) {
            request.attach_graph(mirror);
        } else {
            request.has_ref_digest = true;
            request.ref_digest = ref;
            request.ops = std::move(ops);
        }
        std::cout << request.to_json() << "\n";
    }
    return 0;
}

/// The verdict map of a golden (chaos-free) run: id token -> verdict view of
/// every ok response that carries both an id and a verdict.
std::map<std::string, service::VerdictView> load_golden(
    const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "lph_client: cannot read --against file " << path << "\n";
        std::exit(2);
    }
    std::map<std::string, service::VerdictView> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        const auto view = service::parse_verdict(line);
        if (view.has_value() && view->status == "ok" && !view->id.empty() &&
            view->has_verdict) {
            golden[view->id] = *view;
        }
    }
    return golden;
}

int verify(long expect, const std::string& against_path) {
    std::map<std::string, service::VerdictView> golden;
    if (!against_path.empty()) {
        golden = load_golden(against_path);
    }
    long total = 0, ok = 0, errors = 0, rejected = 0, protocol = 0;
    long compared = 0, mismatched = 0;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(std::cin, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        ++total;
        try {
            const service::JsonValue doc = service::parse_json(line);
            const service::JsonValue* status = doc.find("status");
            if (status == nullptr || !status->is_string()) {
                std::cerr << "lph_client: line " << line_number
                          << ": response has no status\n";
                ++protocol;
                continue;
            }
            if (status->string == "ok") {
                ++ok;
            } else if (status->string == "rejected") {
                ++rejected;
            } else {
                ++errors;
                const service::JsonValue* error = doc.find("error");
                if (error != nullptr && error->is_string() &&
                    error->string == "ProtocolError") {
                    ++protocol;
                }
            }
        } catch (const std::exception& e) {
            std::cerr << "lph_client: line " << line_number
                      << ": unparseable response: " << e.what() << "\n";
            ++protocol;
        }
        if (!golden.empty()) {
            // The resilience contract under test: an ok response under chaos
            // must carry the exact verdict of the chaos-free run.  Errors and
            // rejections are acceptable outcomes; wrong verdicts never are.
            const auto view = service::parse_verdict(line);
            if (view.has_value() && view->status == "ok" &&
                view->has_verdict) {
                const auto it = golden.find(view->id);
                if (it != golden.end()) {
                    ++compared;
                    if (it->second.verdict != view->verdict) {
                        ++mismatched;
                        std::cerr << "lph_client: line " << line_number
                                  << ": id " << view->id << " verdict "
                                  << (view->verdict ? "true" : "false")
                                  << " but golden run says "
                                  << (it->second.verdict ? "true" : "false")
                                  << "\n";
                    }
                }
            }
        }
    }
    std::cerr << "lph_client: " << total << " responses, " << ok << " ok, "
              << errors << " error, " << rejected << " rejected, " << protocol
              << " protocol";
    if (!against_path.empty()) {
        std::cerr << "; " << compared << " verdicts compared, " << mismatched
                  << " mismatched";
    }
    std::cerr << "\n";
    if (protocol > 0 || mismatched > 0) {
        return 1;
    }
    if (expect >= 0 && total != expect) {
        std::cerr << "lph_client: expected " << expect << " responses, got "
                  << total << "\n";
        return 1;
    }
    return 0;
}

/// The id token a response to this request line will echo ("" when the
/// request carries none) — same rendering as the server's parse.
std::string request_id_token(const std::string& line) {
    try {
        const service::JsonValue doc = service::parse_json(line);
        const service::JsonValue* id = doc.find("id");
        if (id == nullptr) {
            return "";
        }
        if (id->is_number()) {
            return id->raw_number;
        }
        if (id->is_string()) {
            return "\"" + obs::json_escape(id->string) + "\"";
        }
    } catch (const std::exception&) {
    }
    return "";
}

int connect_and_relay(const std::string& target,
                      const service::RetryPolicy& policy) {
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
        usage_error("--connect expects HOST:PORT");
    }
    const std::string host = target.substr(0, colon);
    const std::uint16_t port =
        static_cast<std::uint16_t>(std::stoul(target.substr(colon + 1)));

    std::vector<std::string> requests;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (!line.empty()) {
            requests.push_back(line);
        }
    }

    service::RetryStats stats;
    // Client-vs-server latency breakdown: the wall clock around the winning
    // attempt, and the server's own stage timings parsed back out of each
    // response.  Both go through the same bucketing, so the percentiles in
    // the summary line are directly comparable; the gap between them is time
    // spent on the socket.
    obs::LogHistogram client_wall_us;
    obs::LogHistogram server_stage_us;
    obs::LogHistogram queue_us, batch_us, exec_us, write_us;
    long timing_violations = 0; // server stage sum > client wall: impossible
    std::unique_ptr<service::TcpClient> client;
    bool ever_connected = false;
    const auto connect = [&]() -> bool {
        if (client != nullptr) {
            return true;
        }
        try {
            client = std::make_unique<service::TcpClient>(host, port);
            if (ever_connected) {
                ++stats.reconnects;
            }
            ever_connected = true;
            return true;
        } catch (const std::exception&) {
            return false;
        }
    };

    const int timeout_ms =
        policy.timeout_ms > 0 ? static_cast<int>(policy.timeout_ms) : 0;
    long abandoned_requests = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::string expected_id = request_id_token(requests[i]);
        ++stats.sent;
        bool answered = false;
        for (int attempt = 1; attempt <= policy.max_retries + 1 && !answered;
             ++attempt) {
            if (attempt > 1) {
                ++stats.retries;
                const double delay =
                    service::backoff_delay_ms(policy, i, attempt - 1);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(delay));
            }
            if (!connect()) {
                continue;
            }
            const auto attempt_start = std::chrono::steady_clock::now();
            if (client->send_line_status(requests[i]) !=
                service::TransportStatus::Ok) {
                client.reset(); // daemon went away mid-send; reconnect
                continue;
            }
            // Read until our response, the timeout, or the peer vanishing.
            // A duplicate answer to an earlier replayed request may arrive
            // first: discard it (first response per id wins — idempotent
            // replay makes the duplicate identical anyway).
            for (;;) {
                std::string response;
                const service::TransportStatus status =
                    client->recv_line_status(response, timeout_ms);
                if (status == service::TransportStatus::TimedOut) {
                    break; // retry
                }
                if (status != service::TransportStatus::Ok) {
                    client.reset(); // connection torn down; reconnect + retry
                    break;
                }
                const auto view = service::parse_verdict(response);
                if (!view.has_value()) {
                    break; // garbled line; resend (chaos on the wire)
                }
                if (!expected_id.empty() && view->id != expected_id) {
                    ++stats.redelivered;
                    continue;
                }
                std::cout << response << "\n";
                const double wall_us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - attempt_start)
                        .count();
                client_wall_us.record(wall_us);
                if (const auto timing = service::parse_timing(response)) {
                    server_stage_us.record(
                        static_cast<double>(timing->stage_sum_us()));
                    queue_us.record(static_cast<double>(timing->queue_us));
                    batch_us.record(static_cast<double>(timing->batch_us));
                    exec_us.record(static_cast<double>(timing->exec_us));
                    write_us.record(static_cast<double>(timing->write_us));
                    if (static_cast<double>(timing->stage_sum_us()) >
                        wall_us) {
                        ++timing_violations;
                    }
                }
                answered = true;
                break;
            }
        }
        if (!answered) {
            ++stats.abandoned;
            ++abandoned_requests;
            std::cout << "{"
                      << (expected_id.empty() ? ""
                                              : "\"id\":" + expected_id + ",")
                      << "\"status\":\"error\",\"error\":\"RetriesExhausted\","
                      << "\"detail\":\"client abandoned the request after "
                      << policy.max_retries + 1 << " attempts\"}\n";
        }
    }
    std::cerr << "{\"event\":\"client_retry_stats\",\"sent\":" << stats.sent
              << ",\"retries\":" << stats.retries << ",\"redelivered\":"
              << stats.redelivered << ",\"abandoned\":" << stats.abandoned
              << ",\"reconnects\":" << stats.reconnects << "}\n";
    if (client_wall_us.count() > 0) {
        const auto quartet = [](const obs::LogHistogram& h) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "{\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g,"
                          "\"p999\":%.6g}",
                          h.percentile(0.50), h.percentile(0.90),
                          h.percentile(0.99), h.percentile(0.999));
            return std::string(buf);
        };
        std::cerr << "{\"event\":\"client_timing\",\"count\":"
                  << client_wall_us.count() << ",\"client_wall_us\":"
                  << quartet(client_wall_us) << ",\"server_stage_us\":"
                  << quartet(server_stage_us) << ",\"stage_p99_us\":{"
                  << "\"queue\":" << queue_us.percentile(0.99)
                  << ",\"batch\":" << batch_us.percentile(0.99)
                  << ",\"exec\":" << exec_us.percentile(0.99)
                  << ",\"write\":" << write_us.percentile(0.99)
                  << "},\"timing_violations\":" << timing_violations << "}\n";
    }
    // Abandonment is an availability failure the caller may tolerate;
    // failing to reach the daemon at all is not.
    return stats.sent > 0 && abandoned_requests == static_cast<long>(stats.sent)
               ? 1
               : 0;
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);
    service::ignore_sigpipe(); // a dead daemon must not kill the client
    if (opt.generate >= 0) {
        return generate(opt.generate, opt.seed);
    }
    if (opt.patch >= 0) {
        return generate_patch(opt.patch, opt.seed, /*golden=*/false);
    }
    if (opt.patch_golden >= 0) {
        return generate_patch(opt.patch_golden, opt.seed, /*golden=*/true);
    }
    if (!opt.formula_text.empty()) {
        return generate_eval(opt.formula_text, opt.count, opt.seed);
    }
    if (!opt.formula_file.empty()) {
        return generate_eval(read_formula_file(opt.formula_file), opt.count,
                             opt.seed);
    }
    if (opt.verify) {
        return verify(opt.expect, opt.against_path);
    }
    return connect_and_relay(opt.connect, opt.retry);
}
