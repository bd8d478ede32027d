// Tests for the serving layer (src/service): the strict JSON/wire parsers,
// the hardened graph wire format (round-trip property tests), the
// ServiceCore failure paths the serving contract promises — deadline
// expiry as a RunError taxonomy code, queue-full as a structured rejection
// (never a hang), malformed lines as ProtocolError with the connection
// still usable, injected engine faults as structured per-request failures —
// plus the memo/queue gauges flowing through the MetricsRegistry snapshot
// and a TCP loopback session.  The incremental-serving section covers the
// resident-graph store (graph_register/graph_patch), the exact r-locality
// dirty-ball boundary, memo invalidation on patch, and patch-vs-full-
// recompute agreement (including the registered oracle check).

#include "core/rng.hpp"
#include "dtm/view_cache.hpp"
#include "graph/generators.hpp"
#include "graph/identifiers.hpp"
#include "graph/serialize.hpp"
#include "hierarchy/game.hpp"
#include "obs/log_histogram.hpp"
#include "obs/session.hpp"
#include "oracle/harness.hpp"
#include "service/chaos.hpp"
#include "service/core.hpp"
#include "service/graph_store.hpp"
#include "service/json.hpp"
#include "service/memo.hpp"
#include "service/registry.hpp"
#include "service/scrape.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <thread>

namespace {

using namespace lph;
using namespace lph::service;

std::string cycle6_text() {
    return "graph 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\n"
           "edge 5 0\n";
}

std::string cycle6_payload() {
    return "graph 6\\nedge 0 1\\nedge 1 2\\nedge 2 3\\nedge 3 4\\nedge 4 5\\n"
           "edge 5 0\\n";
}

/// An n-cycle graph payload (escaped for a wire line).
std::string cycle_payload(int n) {
    std::string payload = "graph " + std::to_string(n);
    for (int v = 0; v < n; ++v) {
        payload += "\\nedge " + std::to_string(v) + " " +
                   std::to_string((v + 1) % n);
    }
    payload += "\\n";
    return payload;
}

ServiceOptions manual_options() {
    ServiceOptions options;
    options.manual_drain = true;
    return options;
}

// ---------------------------------------------------------------- JSON -----

TEST(ServiceJson, ParsesScalarsObjectsAndArrays) {
    const JsonValue doc = parse_json(
        R"({"a":1,"b":"x","c":true,"d":null,"e":[1,2],"f":{"g":-2.5}})");
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("a")->number, 1.0);
    EXPECT_EQ(doc.find("b")->string, "x");
    EXPECT_TRUE(doc.find("c")->boolean);
    EXPECT_EQ(doc.find("d")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(doc.find("e")->items.size(), 2u);
    EXPECT_EQ(doc.find("f")->find("g")->number, -2.5);
}

TEST(ServiceJson, RejectsTrailingGarbage) {
    EXPECT_THROW(parse_json(R"({"a":1} extra)"), precondition_error);
    EXPECT_THROW(parse_json(R"({"a":1}{"b":2})"), precondition_error);
}

TEST(ServiceJson, RejectsDuplicateKeysWithByteOffset) {
    try {
        parse_json(R"({"a":1,"a":2})");
        FAIL() << "duplicate key accepted";
    } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    }
}

TEST(ServiceJson, RejectsMalformedDocuments) {
    EXPECT_THROW(parse_json(""), precondition_error);
    EXPECT_THROW(parse_json("{"), precondition_error);
    EXPECT_THROW(parse_json(R"({"a":})"), precondition_error);
    EXPECT_THROW(parse_json("{'a':1}"), precondition_error);
    EXPECT_THROW(parse_json(R"({"a":01})"), precondition_error);
    EXPECT_THROW(parse_json("\x01"), precondition_error);
    EXPECT_THROW(parse_json(std::string("{\"a\":\"\x01\"}")), precondition_error);
}

TEST(ServiceJson, RejectsOverDeepNesting) {
    // Exactly at the 32-level limit parses; one past it is a structured
    // error naming the limit — never a stack overflow.
    const auto nested = [](int levels) {
        std::string text(static_cast<std::size_t>(levels), '[');
        text += "1";
        text += std::string(static_cast<std::size_t>(levels), ']');
        return text;
    };
    EXPECT_NO_THROW(parse_json(nested(32)));
    try {
        parse_json(nested(33));
        FAIL() << "33-deep nesting accepted";
    } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 32"),
                  std::string::npos);
    }
    // Unclosed nesting fails the same way, not with "unexpected end".
    EXPECT_THROW(parse_json(std::string(40, '[')), precondition_error);
    // Mixed object/array nesting counts every level.
    std::string mixed;
    for (int i = 0; i < 20; ++i) {
        mixed += "{\"k\":[";
    }
    EXPECT_THROW(parse_json(mixed), precondition_error);
}

// ------------------------------------------------- graph wire hardening ----

TEST(GraphWire, RejectsTrailingGarbageWithLineNumbers) {
    try {
        graph_from_text("graph 2\nedge 0 1 junk\n");
        FAIL() << "trailing junk accepted";
    } catch (const precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("trailing junk"), std::string::npos);
        EXPECT_NE(what.find("line 2"), std::string::npos);
    }
    EXPECT_THROW(graph_from_text("graph 2 2\n"), precondition_error);
    EXPECT_THROW(graph_from_text("graph 2\nbogus 0 1\n"), precondition_error);
}

TEST(GraphWire, EnforcesReadLimits) {
    GraphReadLimits limits;
    limits.max_nodes = 4;
    EXPECT_THROW(graph_from_text("graph 5\n", limits), precondition_error);

    limits = {};
    limits.max_edges = 2;
    EXPECT_THROW(
        graph_from_text("graph 4\nedge 0 1\nedge 1 2\nedge 2 3\n", limits),
        precondition_error);

    limits = {};
    limits.max_label_bits = 2;
    EXPECT_THROW(graph_from_text("graph 1\nlabel 0 10101\n", limits),
                 precondition_error);

    limits = {};
    limits.max_bytes = 10;
    try {
        graph_from_text("graph 2\nedge 0 1\n", limits);
        FAIL() << "oversized payload accepted";
    } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find("bytes"), std::string::npos);
    }
}

TEST(GraphWire, RoundTripPropertyRandomGraphs) {
    Rng rng(2026);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 1 + rng.index(12);
        LabeledGraph g = random_connected_graph(n, rng.index(n + 1), rng, "1");
        if (rng.chance(0.5)) {
            randomize_labels(g, 1 + rng.index(4), rng);
        }
        const std::string wire = graph_to_text(g);
        const LabeledGraph back = graph_from_text(wire);
        // Bit-identical round trip: same canonical serialization.
        EXPECT_EQ(graph_to_text(back), wire) << "trial " << trial;
    }
}

// ---------------------------------------------------------------- wire -----

TEST(Wire, ParsesGameRequestAndCanonicalizesGraph) {
    const Request r = parse_request(
        "{\"type\":\"game\",\"id\":7,\"machine\":\"coloring3\",\"layers\":1,"
        "\"graph\":\"" + cycle6_payload() + "\"}",
        1, WireLimits{});
    EXPECT_EQ(r.type, RequestType::Game);
    EXPECT_EQ(r.id, "7");
    EXPECT_EQ(r.machine, "coloring3");
    EXPECT_TRUE(r.has_graph);
    // graph_to_text normalizes edge endpoints and sort order, so compare
    // against the re-serialized parse rather than the raw wire text.
    EXPECT_EQ(r.canonical_graph, graph_to_text(graph_from_text(cycle6_text())));
    EXPECT_NE(r.graph_digest(), 0u);
    EXPECT_FALSE(r.memo_key().empty());
}

TEST(Wire, RejectsMalformedRequestsWithLineNumbers) {
    const WireLimits limits;
    const std::map<std::string, std::string> rejects = {
        {"not json at all", "line 3"},
        {"{\"type\":\"nope\"}", "unknown request type"},
        {"{\"type\":\"game\",\"machine\":\"coloring3\"}",
         "needs \"graph\" or \"digest\""},
        {"{\"type\":\"game\",\"machine\":\"unknown-machine\",\"graph\":\"x\"}",
         "unknown machine"},
        {"{\"type\":\"stats\",\"bogus\":1}", "unknown field"},
        {"{\"type\":\"decide\",\"problem\":\"eulerian\",\"k\":99,"
         "\"graph\":\"graph 1\\n\"}",
         "\"k\""},
        {"{\"type\":\"game\",\"machine\":\"allsel\",\"layers\":9,"
         "\"graph\":\"graph 1\\n\"}",
         "\"layers\""},
    };
    for (const auto& [line, needle] : rejects) {
        try {
            parse_request(line, 3, limits);
            FAIL() << "accepted: " << line;
        } catch (const precondition_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("line 3"), std::string::npos) << what;
            EXPECT_NE(what.find(needle), std::string::npos) << what;
        }
    }
}

TEST(Wire, EnforcesGraphLimitsFromWireLimits) {
    WireLimits limits;
    limits.max_graph_nodes = 4;
    EXPECT_THROW(
        parse_request("{\"type\":\"decide\",\"problem\":\"eulerian\","
                      "\"graph\":\"graph 6\\n\"}",
                      1, limits),
        precondition_error);
}

TEST(Wire, RequestRoundTripProperty) {
    // request -> to_json -> parse_request -> to_json is a fixed point, and
    // the graph payload survives bit-identically.
    Rng rng(7);
    const WireLimits limits;
    const std::vector<std::string> machines = machine_names();
    for (int trial = 0; trial < 40; ++trial) {
        LabeledGraph g =
            random_connected_graph(1 + rng.index(8), rng.index(4), rng, "1");
        Request r;
        r.type = RequestType::Game;
        r.id = std::to_string(trial);
        r.machine = machines[rng.index(machines.size())];
        r.layers = static_cast<int>(rng.index(3));
        r.sigma = rng.chance(0.5);
        r.ids = rng.chance(0.5) ? "global" : "local";
        r.tolerate_faults = rng.chance(0.3);
        r.backend = rng.chance(0.5) ? "compiled" : "interpreted";
        if (rng.chance(0.3)) {
            r.fault_seed = rng.uniform(1, 1000);
            r.fault_crash = 0.25;
        }
        if (rng.chance(0.3)) {
            r.deadline_ms = 1500;
        }
        r.attach_graph(g);

        const std::string wire = r.to_json();
        const Request parsed = parse_request(wire, 1, limits);
        EXPECT_EQ(parsed.to_json(), wire) << "trial " << trial;
        EXPECT_EQ(parsed.canonical_graph, r.canonical_graph);
        EXPECT_EQ(parsed.memo_key(), r.memo_key());
        EXPECT_EQ(parsed.graph_digest(), r.graph_digest());
    }
}

TEST(Wire, MemoKeyExcludesIdAndDeadline) {
    const std::string base =
        "{\"type\":\"decide\",\"problem\":\"eulerian\",\"graph\":\"" +
        cycle6_payload() + "\"";
    const Request a = parse_request(base + ",\"id\":1}", 1, WireLimits{});
    const Request b = parse_request(base + ",\"id\":2,\"deadline_ms\":50}", 1,
                                    WireLimits{});
    EXPECT_EQ(a.memo_key(), b.memo_key());
}

TEST(Wire, BackendFieldValidatedAndOutsideTheMemoKey) {
    const std::string base =
        "{\"type\":\"game\",\"machine\":\"coloring2\",\"layers\":1,"
        "\"graph\":\"" + cycle6_payload() + "\"";
    const Request dflt = parse_request(base + "}", 1, WireLimits{});
    EXPECT_EQ(dflt.backend, "compiled");
    const Request interp =
        parse_request(base + ",\"backend\":\"interpreted\"}", 1, WireLimits{});
    EXPECT_EQ(interp.backend, "interpreted");
    // Both backends return bit-identical bodies, so they share a memo slot.
    EXPECT_EQ(dflt.memo_key(), interp.memo_key());
    EXPECT_EQ(parse_request(interp.to_json(), 1, WireLimits{}).backend,
              "interpreted");
    EXPECT_THROW(
        parse_request(base + ",\"backend\":\"quantum\"}", 1, WireLimits{}),
        precondition_error);
    // graph_patch queries pick their own core; the field is unknown there.
    EXPECT_THROW(parse_request("{\"type\":\"graph_patch\",\"digest\":\"1\","
                               "\"ops\":[{\"op\":\"add_node\",\"label\":\"1\"}],"
                               "\"machine\":\"eulerian\",\"layers\":0,"
                               "\"backend\":\"interpreted\"}",
                               1, WireLimits{}),
                 precondition_error);
}

TEST(Wire, EvalRequestCanonicalizesAndRoundTrips) {
    // The stored formula text is the parser's canonical re-print, so two
    // spellings of the same sentence share a memo slot and a wire rendering.
    const std::string base = ",\"graph\":\"" + cycle6_payload() + "\"}";
    const Request tight = parse_request(
        "{\"type\":\"eval\",\"formula\":\"exists x. O1(x)\"" + base, 1,
        WireLimits{});
    const Request spaced = parse_request(
        "{\"type\":\"eval\",\"formula\":\"exists   x .  O1( x )\"" + base, 1,
        WireLimits{});
    EXPECT_EQ(tight.eval_text, lph::to_string(tight.eval_formula));
    EXPECT_EQ(tight.eval_text, spaced.eval_text);
    EXPECT_EQ(tight.memo_key(), spaced.memo_key());
    EXPECT_FALSE(tight.memo_key().empty());

    // to_json -> parse_request is a fixed point.
    const Request reparsed = parse_request(tight.to_json(), 1, WireLimits{});
    EXPECT_EQ(reparsed.to_json(), tight.to_json());
    EXPECT_EQ(reparsed.memo_key(), tight.memo_key());

    // A digest reference is accepted in place of an inline graph.
    const Request by_ref = parse_request(
        "{\"type\":\"eval\",\"formula\":\"T\",\"digest\":\"12345\"}", 1,
        WireLimits{});
    EXPECT_TRUE(by_ref.has_ref_digest);
}

TEST(Wire, EvalRequestSurfacesParseErrorsAsProtocol) {
    const std::string base = ",\"graph\":\"" + cycle6_payload() + "\"}";
    // A syntax error is a protocol error carrying the frontend's position.
    try {
        parse_request("{\"type\":\"eval\",\"formula\":\"exists x. ((\"" + base,
                      7, WireLimits{});
        FAIL() << "syntax error accepted";
    } catch (const precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 7"), std::string::npos); // wire line
        EXPECT_NE(what.find("col"), std::string::npos);    // formula position
    }
    // Missing formula / oversized formula are protocol errors too.
    EXPECT_THROW(parse_request("{\"type\":\"eval\"" + base, 1, WireLimits{}),
                 precondition_error);
    WireLimits tiny;
    tiny.max_formula_bytes = 4;
    EXPECT_THROW(
        parse_request("{\"type\":\"eval\",\"formula\":\"exists x. O1(x)\"" +
                          base,
                      1, tiny),
        precondition_error);
}

// ---------------------------------------------------------- ServiceCore ----

Request decide_request(const std::string& problem, const std::string& id) {
    return parse_request("{\"type\":\"decide\",\"id\":\"" + id +
                             "\",\"problem\":\"" + problem + "\",\"graph\":\"" +
                             cycle6_payload() + "\"}",
                         1, WireLimits{});
}

TEST(ServiceCore, ServesMixedRequestsAndEchoesIds) {
    ServiceCore core(manual_options());
    const Response r1 = core.call(decide_request("eulerian", "a"));
    EXPECT_EQ(r1.status, "ok");
    EXPECT_EQ(r1.id, "\"a\"");
    EXPECT_NE(r1.body.find("\"answer\":true"), std::string::npos);

    const Response r2 = core.call(parse_request(
        "{\"type\":\"game\",\"machine\":\"coloring2\",\"layers\":1,"
        "\"graph\":\"" + cycle6_payload() + "\"}",
        1, WireLimits{}));
    EXPECT_EQ(r2.status, "ok");
    EXPECT_NE(r2.body.find("\"accepted\":true"), std::string::npos);
    EXPECT_NE(r2.body.find("\"witness\""), std::string::npos);

    const Response r3 =
        core.call(parse_request("{\"type\":\"health\"}", 1, WireLimits{}));
    EXPECT_EQ(r3.status, "ok");
    EXPECT_NE(r3.body.find("\"ok\":true"), std::string::npos);
}

TEST(ServiceCore, MemoServesRepeatedRequestsAndReportsGauges) {
    obs::Session session;
    ServiceOptions options = manual_options();
    options.obs = &session;
    ServiceCore core(options);

    const Response miss = core.call(decide_request("coloring", "1"));
    const Response hit = core.call(decide_request("coloring", "2"));
    EXPECT_EQ(miss.status, "ok");
    EXPECT_FALSE(miss.memo_hit);
    EXPECT_TRUE(hit.memo_hit);
    EXPECT_EQ(hit.body, miss.body); // replayed verbatim
    EXPECT_EQ(core.memo_stats().hits, 1u);
    EXPECT_EQ(core.memo_stats().entries, 1u);

    // The gauges flow through the MetricsRegistry snapshot path (same schema
    // as the loadgen BENCH rows and `lphd --metrics=`).
    core.publish_metrics();
    std::map<std::string, double> snapshot;
    for (const auto& [name, value] : session.metrics().snapshot()) {
        snapshot[name] = value;
    }
    EXPECT_EQ(snapshot.at("service.submitted"), 2.0);
    EXPECT_EQ(snapshot.at("service.completed"), 2.0);
    EXPECT_EQ(snapshot.at("service.memo_served"), 1.0);
    EXPECT_EQ(snapshot.at("service.memo.hits"), 1.0);
    EXPECT_EQ(snapshot.at("service.memo.entries"), 1.0);
    EXPECT_TRUE(snapshot.count("service.queue_depth"));
    EXPECT_TRUE(snapshot.count("service.max_queue_depth"));
    EXPECT_TRUE(snapshot.count("service.cache.hits"));
}

TEST(ServiceCore, FormulaRequestsHonourTheirDeadline) {
    // Without a deadline check, two_colorable on an 11-cycle runs for
    // seconds.  With "deadline_ms":50 both formula executors stop with
    // DeadlineExceeded, and the error body is never memoized.
    ServiceCore core(manual_options());
    const std::string graph = ",\"graph\":\"" + cycle_payload(11) + "\"}";
    for (const std::string& head :
         {std::string("{\"type\":\"logic\",\"formula\":\"two_colorable\""),
          std::string("{\"type\":\"eval\",\"formula\":"
                      "\"EXISTS X/1. EXISTS Y/1. F\"")}) {
        const Request request =
            parse_request(head + ",\"deadline_ms\":50" + graph, 1, WireLimits{});
        for (int attempt = 0; attempt < 2; ++attempt) {
            const Response response = core.call(request);
            EXPECT_EQ(response.status, "error") << head;
            EXPECT_EQ(response.error, "DeadlineExceeded") << head;
            EXPECT_FALSE(response.memo_hit) << head;
        }
    }
}

TEST(ServiceCore, BackendsAgreeOnTheWireAndShareTheMemo) {
    obs::Session session;
    ServiceOptions options = manual_options();
    options.obs = &session;
    ServiceCore core(options);
    const auto game = [](int n, const std::string& extras) {
        return parse_request(
            "{\"type\":\"game\",\"machine\":\"coloring2\",\"layers\":1,"
            "\"graph\":\"" + cycle_payload(n) + "\"" + extras + "}",
            1, WireLimits{});
    };
    const Response interpreted =
        core.call(game(11, ",\"backend\":\"interpreted\""));
    const Response compiled = core.call(game(11, ""));
    ASSERT_EQ(interpreted.status, "ok");
    ASSERT_EQ(compiled.status, "ok");
    EXPECT_TRUE(compiled.memo_hit); // backend is not part of the memo key
    EXPECT_EQ(compiled.body, interpreted.body); // bit-identical results

    // On a fresh graph the default request reaches the engine, which runs
    // the per-ball store, and its counters reach the registry.
    const Response fresh = core.call(game(13, ""));
    ASSERT_EQ(fresh.status, "ok");
    EXPECT_FALSE(fresh.memo_hit);
    core.publish_metrics();
    std::map<std::string, double> snapshot;
    for (const auto& [name, value] : session.metrics().snapshot()) {
        snapshot[name] = value;
    }
    EXPECT_EQ(snapshot.at("game.solves"), 2.0);
    EXPECT_EQ(snapshot.at("game.compiled_solves"), 1.0);
    EXPECT_EQ(snapshot.at("game.compiled_classes"), 13.0);
    EXPECT_GE(snapshot.at("game.packed_words_evaluated"), 1.0);
    EXPECT_EQ(snapshot.at("game.workers.count"), 2.0);
}

TEST(ServiceCore, QueueFullIsStructuredRejectionNotHang) {
    ServiceOptions options = manual_options();
    options.queue_capacity = 2;
    ServiceCore core(options);

    auto f1 = core.submit(decide_request("eulerian", "1"));
    auto f2 = core.submit(decide_request("eulerian", "2"));
    auto f3 = core.submit(decide_request("eulerian", "3"));

    // The rejection resolves immediately, without any draining.
    ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Response rejected = f3.get();
    EXPECT_EQ(rejected.status, "rejected");
    EXPECT_EQ(rejected.error, "QueueFull");
    EXPECT_EQ(rejected.id, "\"3\"");
    EXPECT_EQ(core.stats().rejected, 1u);

    core.drain();
    EXPECT_EQ(f1.get().status, "ok");
    EXPECT_EQ(f2.get().status, "ok");
}

TEST(ServiceCore, DeadlineExpiryUsesRunErrorTaxonomy) {
    ServiceCore core(manual_options());
    Request request = decide_request("eulerian", "d");
    request.deadline_ms = 0.01;
    auto future = core.submit(std::move(request));
    // Let the deadline expire while the request waits in the queue — the
    // same RunError::DeadlineExceeded code the engine's guard uses.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    core.drain();
    const Response response = future.get();
    EXPECT_EQ(response.status, "error");
    EXPECT_EQ(response.error, "DeadlineExceeded");
    EXPECT_NE(response.detail.find("in queue"), std::string::npos);
    EXPECT_EQ(core.stats().errors, 1u);
}

TEST(ServiceCore, EngineFaultPropagatesAsTaxonomyCode) {
    // The fussy verifier violates its declared step bound on any certificate
    // containing a '1'; without tolerate_faults the engine throws run_error
    // and the service maps it to the taxonomy code.
    ServiceCore core(manual_options());
    const Response response = core.call(parse_request(
        "{\"type\":\"game\",\"machine\":\"fussy\",\"layers\":1,"
        "\"graph\":\"graph 2\\nedge 0 1\\n\"}",
        1, WireLimits{}));
    EXPECT_EQ(response.status, "error");
    EXPECT_EQ(response.error, "StepBoundViolated");
}

TEST(ServiceCore, InjectedFaultsAreStructuredUnderTolerateFaults) {
    ServiceCore core(manual_options());
    const std::string base =
        "{\"type\":\"game\",\"machine\":\"eulerian\",\"layers\":0,"
        "\"fault_seed\":7,\"fault_crash\":1.0,\"graph\":\"" +
        cycle6_payload() + "\"";

    // tolerate_faults: the faulted leaf is scored as a loss and reported on
    // a *successful* response.
    const Response tolerated = core.call(
        parse_request(base + ",\"tolerate_faults\":true}", 1, WireLimits{}));
    EXPECT_EQ(tolerated.status, "ok");
    EXPECT_NE(tolerated.body.find("\"accepted\":false"), std::string::npos);
    EXPECT_NE(tolerated.body.find("\"faulted_runs\":1"), std::string::npos);
    EXPECT_NE(tolerated.body.find("NodeCrashed"), std::string::npos);

    // Without it, the injected fault escalates to a structured per-request
    // error carrying the taxonomy code.
    const Response escalated = core.call(
        parse_request(base + ",\"tolerate_faults\":false}", 1, WireLimits{}));
    EXPECT_EQ(escalated.status, "error");
    EXPECT_EQ(escalated.error, "NodeCrashed");
}

TEST(ServiceCore, BatchesSameGraphRequests) {
    ServiceOptions options = manual_options();
    options.memoize_results = false; // count batches, not memo hits
    ServiceCore core(options);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(
            core.submit(decide_request("eulerian", std::to_string(i))));
    }
    futures.push_back(core.submit(parse_request(
        "{\"type\":\"decide\",\"problem\":\"eulerian\","
        "\"graph\":\"graph 3\\nedge 0 1\\nedge 1 2\\nedge 0 2\\n\"}",
        1, WireLimits{})));

    // First drain takes the four same-digest requests as one batch; the
    // odd-graph request is left for the second drain.
    EXPECT_TRUE(core.drain_some());
    EXPECT_EQ(core.queue_depth(), 1u);
    EXPECT_TRUE(core.drain_some());
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(futures[i].get().batch, 4u);
    }
    EXPECT_EQ(futures[4].get().batch, 1u);
    EXPECT_EQ(core.stats().batches, 2u);
    EXPECT_EQ(core.stats().batched_requests, 5u);
}

TEST(ServiceCore, WorkerPoolServesConcurrentSubmissions) {
    ServiceOptions options;
    options.threads = 3;
    options.queue_capacity = 512;
    ServiceCore core(options);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(
            core.submit(decide_request(i % 2 ? "eulerian" : "coloring",
                                       std::to_string(i))));
    }
    for (auto& future : futures) {
        EXPECT_EQ(future.get().status, "ok");
    }
    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.completed, 64u);
    EXPECT_EQ(stats.rejected, 0u);
}

// -------------------------------------------------------------- streams ----

TEST(ServeStream, MalformedLineKeepsStreamUsable) {
    ServiceOptions options;
    options.threads = 1;
    ServiceCore core(options);
    std::istringstream in("this is not json\n"
                          "{\"type\":\"health\",\"id\":1}\n"
                          "{\"type\":\"health\",\"bogus\":true}\n"
                          "{\"type\":\"health\",\"id\":2}\n");
    std::ostringstream out;
    const ServeReport report = serve_stream(core, in, out);
    EXPECT_EQ(report.lines, 4u);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_EQ(report.protocol_errors, 2u);
    EXPECT_EQ(core.stats().protocol_errors, 2u);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> responses;
    while (std::getline(lines, line)) {
        responses.push_back(line);
    }
    ASSERT_EQ(responses.size(), 4u);
    // In order: error, ok, error, ok — the connection survived both bad lines.
    EXPECT_NE(responses[0].find("ProtocolError"), std::string::npos);
    EXPECT_NE(responses[0].find("line 1"), std::string::npos);
    EXPECT_NE(responses[1].find("\"id\":1"), std::string::npos);
    EXPECT_NE(responses[1].find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(responses[2].find("ProtocolError"), std::string::npos);
    EXPECT_NE(responses[3].find("\"id\":2"), std::string::npos);
}

TEST(TcpServerTest, ServesLoopbackConnections) {
    ServiceOptions options;
    options.threads = 2;
    ServiceCore core(options);
    TcpServer server(core, 0, 2);
    server.start();
    ASSERT_NE(server.port(), 0);

    {
        TcpClient client("127.0.0.1", server.port());
        client.send_line("{\"type\":\"health\",\"id\":1}");
        client.send_line("garbage");
        client.send_line(
            "{\"type\":\"decide\",\"id\":2,\"problem\":\"eulerian\","
            "\"graph\":\"" + cycle6_payload() + "\"}");
        std::string line;
        ASSERT_TRUE(client.recv_line(line));
        EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
        ASSERT_TRUE(client.recv_line(line));
        EXPECT_NE(line.find("ProtocolError"), std::string::npos);
        ASSERT_TRUE(client.recv_line(line));
        EXPECT_NE(line.find("\"answer\":true"), std::string::npos);
    }

    // A second connection works after the first closed.
    {
        TcpClient client("127.0.0.1", server.port());
        client.send_line("{\"type\":\"stats\"}");
        std::string line;
        ASSERT_TRUE(client.recv_line(line));
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
    }

    server.shutdown();
    core.stop();
}

// ------------------------------------------------------------ result memo ---

TEST(ResultMemo, RestoreCountsAdmittedOnlyAndIsNotTraffic) {
    // Regression: restore() used to count every insertion, including entries
    // its own later insertions evicted again.  Invariant on an empty memo:
    // admitted == entries retrievable afterwards, and a warm start must not
    // look like traffic (hits/misses stay zero).
    ResultMemo memo(1); // clamps every shard to one entry
    std::vector<std::pair<std::string, std::string>> snapshot;
    for (int i = 0; i < 32; ++i) {
        snapshot.emplace_back("key" + std::to_string(i), "body");
    }
    const std::size_t admitted = memo.restore(snapshot);
    EXPECT_EQ(memo.stats().hits, 0u);
    EXPECT_EQ(memo.stats().misses, 0u);
    EXPECT_EQ(admitted, memo.stats().entries);
    EXPECT_LE(admitted, 8u); // one per shard
    std::size_t live = 0;
    for (const auto& [key, body] : snapshot) {
        live += memo.lookup(key).has_value() ? 1 : 0;
    }
    EXPECT_EQ(admitted, live);
    // A snapshot key that already exists is a refresh, not an admission.
    ResultMemo roomy(64);
    roomy.insert("k", "b");
    EXPECT_EQ(roomy.restore({{"k", "b"}, {"fresh", "b2"}}), 1u);
    EXPECT_EQ(roomy.stats().entries, 2u);
}

TEST(ResultMemo, InvalidateDigestDropsOnlyKeysEmbeddingTheDigest) {
    ResultMemo memo(64);
    memo.insert("game|eulerian|0|1|global|0|0|0|0|0|0|compiled|123", "a");
    memo.insert("decide|eulerian|3|123", "b");
    memo.insert("decide|eulerian|3|456", "c");
    memo.insert("decide|eulerian|3|1123", "d"); // "|123" is not a suffix of "|1123"
    EXPECT_EQ(memo.invalidate_digest(123), 2u);
    EXPECT_EQ(memo.stats().invalidated, 2u);
    EXPECT_EQ(memo.stats().entries, 2u);
    EXPECT_FALSE(memo.lookup("decide|eulerian|3|123").has_value());
    EXPECT_TRUE(memo.lookup("decide|eulerian|3|456").has_value());
    EXPECT_TRUE(memo.lookup("decide|eulerian|3|1123").has_value());
    EXPECT_EQ(memo.invalidate_digest(999), 0u);
}

// ------------------------------------------------- wire: incremental ops ----

TEST(Wire, ParsesGraphRegisterAndPatchAndRoundTrips) {
    const Request reg = parse_request(
        "{\"type\":\"graph_register\",\"id\":9,\"graph\":\"" +
            cycle6_payload() + "\"}",
        1, WireLimits{});
    EXPECT_EQ(reg.type, RequestType::GraphRegister);
    EXPECT_TRUE(reg.has_graph);
    EXPECT_EQ(reg.graph_digest(), fnv1a64(reg.canonical_graph));
    EXPECT_EQ(reg.memo_key(), ""); // register must never be memo-served

    const Request patch = parse_request(
        "{\"type\":\"graph_patch\",\"id\":10,\"digest\":\"12345\",\"ops\":["
        "{\"op\":\"add_edge\",\"u\":0,\"v\":2},"
        "{\"op\":\"remove_edge\",\"u\":1,\"v\":2},"
        "{\"op\":\"relabel\",\"u\":3,\"label\":\"0\"},"
        "{\"op\":\"add_node\",\"label\":\"1\"},"
        "{\"op\":\"remove_node\",\"u\":4}],"
        "\"machine\":\"eulerian\",\"layers\":0}",
        1, WireLimits{});
    EXPECT_EQ(patch.type, RequestType::GraphPatch);
    EXPECT_TRUE(patch.has_ref_digest);
    EXPECT_EQ(patch.ref_digest, 12345u);
    EXPECT_EQ(patch.machine, "eulerian");
    EXPECT_EQ(patch.memo_key(), ""); // a patch mutates state
    ASSERT_EQ(patch.ops.size(), 5u);
    EXPECT_EQ(patch.ops[0].kind, PatchOp::Kind::AddEdge);
    EXPECT_EQ(patch.ops[0].u, 0u);
    EXPECT_EQ(patch.ops[0].v, 2u);
    EXPECT_EQ(patch.ops[1].kind, PatchOp::Kind::RemoveEdge);
    EXPECT_EQ(patch.ops[2].kind, PatchOp::Kind::Relabel);
    EXPECT_EQ(patch.ops[2].label, "0");
    EXPECT_EQ(patch.ops[3].kind, PatchOp::Kind::AddNode);
    EXPECT_EQ(patch.ops[3].label, "1");
    EXPECT_EQ(patch.ops[4].kind, PatchOp::Kind::RemoveNode);
    EXPECT_EQ(patch.ops[4].u, 4u);

    // to_json -> parse_request is a fixed point for both new types.
    const Request reg2 = parse_request(reg.to_json(), 1, WireLimits{});
    EXPECT_EQ(reg2.to_json(), reg.to_json());
    const Request patch2 = parse_request(patch.to_json(), 1, WireLimits{});
    EXPECT_EQ(patch2.to_json(), patch.to_json());

    // game/decide accept a digest reference in place of a graph payload.
    const Request ref = parse_request(
        "{\"type\":\"game\",\"machine\":\"eulerian\",\"layers\":0,"
        "\"digest\":\"777\"}",
        1, WireLimits{});
    EXPECT_TRUE(ref.has_ref_digest);
    EXPECT_EQ(ref.ref_digest, 777u);
    EXPECT_FALSE(ref.has_graph);
}

TEST(Wire, RejectsMalformedPatchRequests) {
    const WireLimits limits;
    const std::vector<std::string> rejects = {
        // missing digest / missing or empty ops
        "{\"type\":\"graph_patch\",\"ops\":[{\"op\":\"add_node\","
        "\"label\":\"1\"}]}",
        "{\"type\":\"graph_patch\",\"digest\":\"1\"}",
        "{\"type\":\"graph_patch\",\"digest\":\"1\",\"ops\":[]}",
        // digests travel as canonical decimal strings, never numbers
        "{\"type\":\"graph_patch\",\"digest\":1,\"ops\":[{\"op\":\"add_node\","
        "\"label\":\"1\"}]}",
        "{\"type\":\"graph_patch\",\"digest\":\"0x12\",\"ops\":["
        "{\"op\":\"add_node\",\"label\":\"1\"}]}",
        // unknown op, per-op field rules
        "{\"type\":\"graph_patch\",\"digest\":\"1\",\"ops\":["
        "{\"op\":\"teleport\",\"u\":0}]}",
        "{\"type\":\"graph_patch\",\"digest\":\"1\",\"ops\":["
        "{\"op\":\"add_node\",\"label\":\"1\",\"u\":0}]}",
        "{\"type\":\"graph_patch\",\"digest\":\"1\",\"ops\":["
        "{\"op\":\"add_edge\",\"u\":0}]}",
        // a request carries a graph or a digest reference, never both
        "{\"type\":\"game\",\"machine\":\"eulerian\",\"layers\":0,"
        "\"digest\":\"1\",\"graph\":\"graph 1\\n\"}",
        // a register must carry the graph inline
        "{\"type\":\"graph_register\",\"digest\":\"1\"}",
    };
    for (const std::string& line : rejects) {
        EXPECT_THROW(parse_request(line, 1, limits), precondition_error)
            << "accepted: " << line;
    }

    WireLimits tight;
    tight.max_patch_ops = 2;
    EXPECT_THROW(
        parse_request("{\"type\":\"graph_patch\",\"digest\":\"1\",\"ops\":["
                      "{\"op\":\"add_node\",\"label\":\"1\"},"
                      "{\"op\":\"add_node\",\"label\":\"1\"},"
                      "{\"op\":\"add_node\",\"label\":\"1\"}]}",
                      1, tight),
        precondition_error);
}

// -------------------------------------------------- incremental serving ----

std::string escape_newlines(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

/// Registers `g` as a resident graph and returns its canonical digest.
std::uint64_t register_resident(ServiceCore& core, const LabeledGraph& g) {
    const std::string canonical = graph_to_text(g);
    const Response r = core.call(
        parse_request("{\"type\":\"graph_register\",\"graph\":\"" +
                          escape_newlines(canonical) + "\"}",
                      1, WireLimits{}));
    EXPECT_EQ(r.status, "ok") << r.detail;
    return fnv1a64(canonical);
}

Request game_by_digest(std::uint64_t digest, const std::string& machine,
                       int layers, const std::string& extras = "") {
    return parse_request("{\"type\":\"game\",\"machine\":\"" + machine +
                             "\",\"layers\":" + std::to_string(layers) +
                             ",\"digest\":\"" + std::to_string(digest) + "\"" +
                             extras + "}",
                         1, WireLimits{});
}

Request patch_request(std::uint64_t digest, const std::string& ops_json,
                      const std::string& extras = "") {
    return parse_request("{\"type\":\"graph_patch\",\"digest\":\"" +
                             std::to_string(digest) + "\",\"ops\":[" +
                             ops_json + "]" + extras + "}",
                         1, WireLimits{});
}

/// The boolean verdict of a patch/game response (the field `lph_client
/// --verify --against` compares).
bool response_verdict(const Response& r) {
    const std::optional<VerdictView> view = parse_verdict(r.to_json());
    EXPECT_TRUE(view.has_value() && view->has_verdict) << r.to_json();
    return view.has_value() && view->has_verdict && view->verdict;
}

TEST(ServiceCore, GraphRegisterIsIdempotentAndServesDigestReferences) {
    ServiceCore core(manual_options());
    const LabeledGraph cycle = graph_from_text(cycle6_text());
    const std::uint64_t digest = fnv1a64(graph_to_text(cycle));

    const Response first = core.call(
        parse_request("{\"type\":\"graph_register\",\"graph\":\"" +
                          cycle6_payload() + "\"}",
                      1, WireLimits{}));
    EXPECT_EQ(first.status, "ok");
    EXPECT_NE(first.body.find("\"digest\":\"" + std::to_string(digest) + "\""),
              std::string::npos);
    EXPECT_NE(first.body.find("\"existed\":false"), std::string::npos);

    const Response again = core.call(
        parse_request("{\"type\":\"graph_register\",\"graph\":\"" +
                          cycle6_payload() + "\"}",
                      1, WireLimits{}));
    EXPECT_NE(again.body.find("\"existed\":true"), std::string::npos);
    EXPECT_EQ(core.stats().graphs_resident, 1u);

    // decide/game resolve the resident copy through the digest.
    const Response ref = core.call(parse_request(
        "{\"type\":\"decide\",\"problem\":\"eulerian\",\"digest\":\"" +
            std::to_string(digest) + "\"}",
        1, WireLimits{}));
    EXPECT_EQ(ref.status, "ok") << ref.detail;
    EXPECT_NE(ref.body.find("\"answer\":true"), std::string::npos);

    const Response unknown = core.call(parse_request(
        "{\"type\":\"decide\",\"problem\":\"eulerian\",\"digest\":\"" +
            std::to_string(digest + 1) + "\"}",
        1, WireLimits{}));
    EXPECT_EQ(unknown.status, "error");
    EXPECT_EQ(unknown.error, "UnknownGraph");
}

TEST(ServiceCore, ExpiredInQueueRequestsAreNotBatchAccounted) {
    // Regression: requests whose deadline expired while queued used to count
    // toward batched_requests and busy time, skewing avg_batch and the
    // busy/throughput ratios the loadgen reports.  They error, they count in
    // the dedicated gauge, and the batch accounting only sees served work.
    obs::Session session;
    ServiceOptions options = manual_options();
    options.obs = &session;
    ServiceCore core(options);

    Request e1 = decide_request("eulerian", "e1");
    Request e2 = decide_request("eulerian", "e2");
    e1.deadline_ms = 0.01;
    e2.deadline_ms = 0.01;
    auto f1 = core.submit(std::move(e1));
    auto f2 = core.submit(std::move(e2));
    auto f3 = core.submit(decide_request("eulerian", "live"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    core.drain();

    EXPECT_EQ(f1.get().error, "DeadlineExceeded");
    EXPECT_EQ(f2.get().error, "DeadlineExceeded");
    EXPECT_EQ(f3.get().status, "ok");

    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.errors, 2u);
    EXPECT_EQ(stats.expired_in_queue, 2u);
    EXPECT_EQ(stats.completed, 1u);
    // All three shared a digest, so one batch was drained — but only the
    // live request counts as batched work.
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batched_requests, 1u);
    EXPECT_EQ(stats.avg_batch(), 1.0);

    core.publish_metrics();
    std::map<std::string, double> snapshot;
    for (const auto& [name, value] : session.metrics().snapshot()) {
        snapshot[name] = value;
    }
    EXPECT_EQ(snapshot.at("service.expired_in_queue"), 2.0);
    EXPECT_EQ(snapshot.at("service.batched_requests"), 1.0);
}

TEST(GraphStore, DirtyBallStopsAtExactRadius) {
    // The r-locality boundary, pinned exactly: with view radius R, a relabel
    // dirties ball(u, R-1) — a node at distance exactly R never sees the
    // label — and an edge edit dirties the radius-R balls of both endpoints
    // in the pre- AND post-edit graphs.  Nodes one step beyond provably keep
    // their verdicts.
    GraphStore store;
    const LabeledGraph cycle = cycle_graph(20, "1");
    const std::string canonical = graph_to_text(cycle);
    store.register_graph(cycle, canonical);
    std::uint64_t digest = fnv1a64(canonical);
    const int radius = 3;

    {
        std::vector<PatchOp> relabel(1);
        relabel[0].kind = PatchOp::Kind::Relabel;
        relabel[0].u = 10;
        relabel[0].label = "0";
        const PatchOutcome out = store.apply_patch(digest, relabel, radius,
                                                   "global", 1, "",
                                                   WireLimits{});
        // ball(10, R-1 = 2): nodes 8..12.  Node 7 sits at distance R and is
        // clean; node 8 at R-1 is dirty.
        EXPECT_EQ(out.dirty, (std::vector<NodeId>{8, 9, 10, 11, 12}));
        digest = out.new_digest;
    }
    {
        std::vector<PatchOp> cut(1);
        cut[0].kind = PatchOp::Kind::RemoveEdge;
        cut[0].u = 0;
        cut[0].v = 1;
        const PatchOutcome out = store.apply_patch(digest, cut, radius,
                                                   "global", 1, "",
                                                   WireLimits{});
        // Pre-edit balls of radius 3 around 0 and 1 cover 17..4; the
        // post-edit (path) balls are a subset.  Node 5, at distance R+1 from
        // the nearer endpoint, stays clean.
        EXPECT_EQ(out.dirty, (std::vector<NodeId>{0, 1, 2, 3, 4, 17, 18, 19}));
        digest = out.new_digest;
    }
    {
        // Re-adding the edge dirties the same region through the post-edit
        // graph, and round-trips the content back to a previous digest.
        std::vector<PatchOp> mend(1);
        mend[0].kind = PatchOp::Kind::AddEdge;
        mend[0].u = 0;
        mend[0].v = 1;
        const PatchOutcome out = store.apply_patch(digest, mend, radius,
                                                   "global", 1, "",
                                                   WireLimits{});
        EXPECT_EQ(out.dirty, (std::vector<NodeId>{0, 1, 2, 3, 4, 17, 18, 19}));
    }
}

TEST(GraphStore, InvalidOpRollsBackTheWholePatch) {
    GraphStore store;
    const LabeledGraph cycle = graph_from_text(cycle6_text());
    const std::string canonical = graph_to_text(cycle);
    store.register_graph(cycle, canonical);
    const std::uint64_t digest = fnv1a64(canonical);

    // Op 0 is valid, op 1 is not — the resident must stay untouched.
    std::vector<PatchOp> ops(2);
    ops[0].kind = PatchOp::Kind::AddEdge;
    ops[0].u = 0;
    ops[0].v = 3;
    ops[1].kind = PatchOp::Kind::RemoveEdge;
    ops[1].u = 1;
    ops[1].v = 4;
    try {
        store.apply_patch(digest, ops, 1, "global", 1, "", WireLimits{});
        FAIL() << "invalid patch accepted";
    } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find("op 1: "), std::string::npos);
    }
    const std::shared_ptr<ResidentGraph> resident = store.find(digest);
    ASSERT_NE(resident, nullptr);
    EXPECT_FALSE(resident->graph.has_edge(0, 3));
    EXPECT_EQ(resident->canonical, canonical);
}

TEST(ServiceCore, PatchRekeysDigestAndNeverServesPrePatchBody) {
    ServiceCore core(manual_options());
    LabeledGraph mirror = graph_from_text(cycle6_text());
    const std::uint64_t d0 = register_resident(core, mirror);

    const Response before = core.call(game_by_digest(d0, "eulerian", 0));
    ASSERT_EQ(before.status, "ok") << before.detail;
    EXPECT_TRUE(response_verdict(before)); // a cycle is eulerian
    EXPECT_TRUE(core.call(game_by_digest(d0, "eulerian", 0)).memo_hit);

    // The chord gives nodes 0 and 2 odd degree; the patch re-keys the
    // resident and drops every memoized body for the old digest.
    mirror.add_edge(0, 2);
    const std::uint64_t d1 = fnv1a64(graph_to_text(mirror));
    const Response patched = core.call(
        patch_request(d0, "{\"op\":\"add_edge\",\"u\":0,\"v\":2}"));
    ASSERT_EQ(patched.status, "ok") << patched.detail;
    EXPECT_NE(patched.body.find("\"digest\":\"" + std::to_string(d1) + "\""),
              std::string::npos);
    EXPECT_NE(patched.body.find("\"version\":1"), std::string::npos);
    EXPECT_GE(core.memo_stats().invalidated, 1u);

    const Response stale = core.call(game_by_digest(d0, "eulerian", 0));
    EXPECT_EQ(stale.status, "error");
    EXPECT_EQ(stale.error, "UnknownGraph");

    const Response after = core.call(game_by_digest(d1, "eulerian", 0));
    ASSERT_EQ(after.status, "ok") << after.detail;
    EXPECT_FALSE(after.memo_hit);
    EXPECT_FALSE(response_verdict(after));

    // Patch back: the content (and digest) round-trips to d0, but the memo
    // entry for d0 was invalidated, so the verdict is recomputed — a client
    // can never observe a body computed for content the digest no longer
    // names.
    mirror.remove_edge(0, 2);
    ASSERT_EQ(fnv1a64(graph_to_text(mirror)), d0);
    const Response reverted = core.call(
        patch_request(d1, "{\"op\":\"remove_edge\",\"u\":0,\"v\":2}"));
    ASSERT_EQ(reverted.status, "ok") << reverted.detail;
    EXPECT_NE(reverted.body.find("\"version\":2"), std::string::npos);
    const Response recomputed = core.call(game_by_digest(d0, "eulerian", 0));
    ASSERT_EQ(recomputed.status, "ok");
    EXPECT_FALSE(recomputed.memo_hit);
    EXPECT_TRUE(response_verdict(recomputed));
    EXPECT_EQ(recomputed.body, before.body); // same content, same body
}

TEST(ServiceCore, DisconnectedQueryErrorsButPatchCommits) {
    ServiceCore core(manual_options());
    LabeledGraph mirror = graph_from_text("graph 3\nedge 0 1\nedge 1 2\n");
    const std::uint64_t d0 = register_resident(core, mirror);

    // The cut disconnects node 2.  The patch commits — that is how graphs
    // move through intermediate shapes — but the attached query fails the
    // same way any query on a disconnected graph does.
    mirror.remove_edge(1, 2);
    const std::uint64_t d1 = fnv1a64(graph_to_text(mirror));
    const Response cut = core.call(
        patch_request(d0, "{\"op\":\"remove_edge\",\"u\":1,\"v\":2}",
                      ",\"machine\":\"eulerian\",\"layers\":0"));
    EXPECT_EQ(cut.status, "error");
    EXPECT_EQ(cut.error, "InvalidRequest");
    EXPECT_NE(cut.detail.find("connected"), std::string::npos);

    // The new digest resolves (the patch committed) and the old one is gone;
    // plain queries against the disconnected resident error identically.
    const Response direct = core.call(game_by_digest(d1, "eulerian", 0));
    EXPECT_EQ(direct.status, "error");
    EXPECT_EQ(direct.error, "InvalidRequest");
    EXPECT_EQ(core.call(game_by_digest(d0, "eulerian", 0)).error,
              "UnknownGraph");

    // Reconnecting restores service; the verdict matches a full recompute
    // of the same content.
    mirror.add_edge(0, 2);
    const Response mended = core.call(
        patch_request(d1, "{\"op\":\"add_edge\",\"u\":0,\"v\":2}",
                      ",\"machine\":\"eulerian\",\"layers\":0"));
    ASSERT_EQ(mended.status, "ok") << mended.detail;

    ServiceOptions golden_options = manual_options();
    golden_options.memoize_results = false;
    ServiceCore golden(golden_options);
    const Response full = golden.serve_unbatched(parse_request(
        "{\"type\":\"game\",\"machine\":\"eulerian\",\"layers\":0,"
        "\"graph\":\"" + escape_newlines(graph_to_text(mirror)) + "\"}",
        1, WireLimits{}));
    ASSERT_EQ(full.status, "ok") << full.detail;
    EXPECT_EQ(response_verdict(mended), response_verdict(full));
}

TEST(ServiceCore, TimingReportsTheBackendThatRan) {
    ServiceCore core(manual_options());
    const auto game = [](const std::string& machine, int layers,
                         const std::string& payload) {
        return parse_request("{\"type\":\"game\",\"machine\":\"" + machine +
                                 "\",\"layers\":" + std::to_string(layers) +
                                 ",\"graph\":\"" + payload + "\"}",
                             1, WireLimits{});
    };
    // A layers-0 game has nothing to compile.
    EXPECT_EQ(core.call(game("eulerian", 0, cycle6_payload())).timing.backend,
              "interpreted");
    // A layered solve runs the per-ball store.
    EXPECT_EQ(core.call(game("coloring2", 1, cycle_payload(11))).timing.backend,
              "compiled");
    // A memo hit ran no engine: the field is omitted.
    const Response hit = core.call(game("coloring2", 1, cycle_payload(11)));
    EXPECT_TRUE(hit.memo_hit);
    EXPECT_EQ(hit.timing.backend, "");
    EXPECT_EQ(hit.to_json().find("\"backend\""), std::string::npos);

    // A layers-0 patch query runs the retained-verdict decider, a layered
    // one the store.
    LabeledGraph mirror = cycle_graph(8, "1");
    std::uint64_t digest = register_resident(core, mirror);
    for (const auto& [query, ran] :
         {std::pair<std::string, std::string>{
              ",\"machine\":\"eulerian\",\"layers\":0", "interpreted"},
          {",\"machine\":\"coloring2\",\"layers\":1", "compiled"}}) {
        mirror.set_label(0, mirror.label(0) == "1" ? "0" : "1");
        const Response patched = core.call(patch_request(
            digest,
            "{\"op\":\"relabel\",\"u\":0,\"label\":\"" + mirror.label(0) +
                "\"}",
            query));
        ASSERT_EQ(patched.status, "ok") << patched.detail;
        EXPECT_EQ(patched.timing.backend, ran) << query;
        digest = fnv1a64(graph_to_text(mirror));
    }
}

TEST(ServiceCore, PatchSequenceMatchesFullRecomputeAndGoesIncremental) {
    // A grow/shrink/relabel sequence replayed against full recomputation of
    // every intermediate graph — the deterministic core of what the
    // service-patch-vs-full-recompute oracle check fuzzes at scale.
    ServiceCore core(manual_options());
    ServiceOptions golden_options = manual_options();
    golden_options.memoize_results = false;
    golden_options.share_view_cache = false;
    ServiceCore golden(golden_options);

    LabeledGraph mirror = cycle_graph(8, "1");
    std::uint64_t digest = register_resident(core, mirror);

    const auto check_step = [&](const std::string& ops_json,
                                const std::string& machine, int layers) {
        const std::string extras = ",\"machine\":\"" + machine +
                                   "\",\"layers\":" + std::to_string(layers);
        const Response served =
            core.call(patch_request(digest, ops_json, extras));
        ASSERT_EQ(served.status, "ok") << served.detail;
        digest = fnv1a64(graph_to_text(mirror));
        EXPECT_NE(served.body.find("\"digest\":\"" + std::to_string(digest) +
                                   "\""),
                  std::string::npos)
            << served.body;
        const Response full = golden.serve_unbatched(parse_request(
            "{\"type\":\"game\",\"machine\":\"" + machine +
                "\",\"layers\":" + std::to_string(layers) +
                ",\"backend\":\"interpreted\",\"graph\":\"" +
                escape_newlines(graph_to_text(mirror)) + "\"}",
            1, WireLimits{}));
        ASSERT_EQ(full.status, "ok") << full.detail;
        EXPECT_EQ(response_verdict(served), response_verdict(full))
            << ops_json;
    };

    // Chord toggle, twice: the second query reuses the verdicts retained by
    // the first and goes through the incremental decider path.
    mirror.add_edge(0, 2);
    check_step("{\"op\":\"add_edge\",\"u\":0,\"v\":2}", "eulerian", 0);
    mirror.remove_edge(0, 2);
    check_step("{\"op\":\"remove_edge\",\"u\":0,\"v\":2}", "eulerian", 0);

    // Grow through a (momentarily) disconnected state inside one patch.
    mirror.add_node("1");
    mirror.add_edge(8, 3);
    check_step(
        "{\"op\":\"add_node\",\"label\":\"1\"},"
        "{\"op\":\"add_edge\",\"u\":8,\"v\":3}",
        "eulerian", 0);

    // Relabel plus a layered query: the engine's partial-leaves path.
    mirror.set_label(5, "0");
    check_step("{\"op\":\"relabel\",\"u\":5,\"label\":\"0\"}", "coloring2", 1);

    // Shrink back (LIFO, so no renumbering surprises on the mirror).
    mirror.remove_edge(8, 3);
    mirror.remove_node(8);
    check_step(
        "{\"op\":\"remove_edge\",\"u\":8,\"v\":3},"
        "{\"op\":\"remove_node\",\"u\":8}",
        "eulerian", 0);

    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.patches_applied, 5u);
    EXPECT_EQ(stats.patch_incremental + stats.patch_full, 5u);
    EXPECT_GE(stats.patch_incremental, 1u); // retention actually engaged
    EXPECT_GT(stats.patch_total_nodes, stats.patch_dirty_nodes);
}

TEST(EnginePartialLeaves, MatchesFullSolveBitIdentically) {
    // The engine boundary of incremental serving: the default backend's
    // store, probing a shared cache warmed by the pre-patch graph, must
    // reproduce the verdict AND the deterministic counters of a fresh
    // uncached solve on the patched graph.
    // allsel gathers at radius 0 (round bound 1), so a relabel dirties only
    // the node itself and its radius-1 ball stays far below the whole-graph
    // cost: the missing verdicts come from ball runs.
    const BuiltGame game = build_game("allsel", 1, true);
    const LabeledGraph before = cycle_graph(8, "1");
    LabeledGraph after = before;
    after.set_label(5, "0");
    const IdentifierAssignment id = make_global_ids(after);

    ViewCache shared(1 << 16);
    GameOptions warm;
    warm.threads = 1;
    warm.view_cache = &shared;
    play_game(game.spec, before, id, warm);

    // Dirty set for the relabel, computed by the same store the service uses.
    GraphStore store;
    store.register_graph(before, graph_to_text(before));
    std::vector<PatchOp> relabel(1);
    relabel[0].kind = PatchOp::Kind::Relabel;
    relabel[0].u = 5;
    relabel[0].label = "0";
    const ViewKeyBuilder keys(*game.spec.machine, after, id,
                              ExecutionOptions{});
    const PatchOutcome outcome = store.apply_patch(
        fnv1a64(graph_to_text(before)), relabel, keys.radius(), "global",
        game.spec.machine->id_radius(), "", WireLimits{});
    EXPECT_EQ(outcome.dirty, (std::vector<NodeId>{5}));

    GameOptions partial;
    partial.threads = 1;
    partial.view_cache = &shared;
    const GameResult incremental = play_game(game.spec, after, id, partial);

    GameOptions fresh;
    fresh.threads = 1;
    fresh.memoize_views = false;
    const GameResult full = play_game(game.spec, after, id, fresh);

    EXPECT_EQ(incremental.accepted, full.accepted);
    EXPECT_EQ(incremental.machine_runs, full.machine_runs);
    EXPECT_EQ(incremental.faulted_runs, full.faulted_runs);
    EXPECT_EQ(incremental.witness.has_value(), full.witness.has_value());
    // The incremental solve actually took the ball path: ball runs for the
    // dirty region, no full-graph run.
    EXPECT_GT(incremental.stats.ball_runs, 0u);
    EXPECT_EQ(incremental.stats.local_runs, 0u);
    EXPECT_GT(incremental.stats.partial_leaf_evals +
                  incremental.stats.leaf_cache_hits,
              0u);
}

TEST(ServiceOracle, PatchOracleSmoke) {
    // The registered differential check that fuzzes random patch sequences
    // (incremental core vs full-recompute reference); lph_fuzz --smoke runs
    // it at 350 instances, this is the in-tree canary.
    register_service_checks();
    ASSERT_TRUE(is_check_name("service-patch-vs-full-recompute"));
    const CheckReport report =
        run_check("service-patch-vs-full-recompute", 1, 25);
    EXPECT_TRUE(report.passed())
        << report.divergences.front().detail;
    EXPECT_EQ(report.instances, 25u);
}

// --------------------------------------------------------------- registry ---

TEST(Registry, NamesAreValidatedAndBuildable) {
    for (const std::string& name : machine_names()) {
        EXPECT_TRUE(is_machine_name(name));
        const BuiltGame game = build_game(name, 1, true);
        EXPECT_NE(game.spec.machine, nullptr);
        EXPECT_EQ(game.spec.layers.size(), 1u);
    }
    EXPECT_FALSE(is_machine_name("no-such-machine"));
    EXPECT_THROW(build_game("no-such-machine", 1, true), precondition_error);
    EXPECT_THROW(build_game("allsel", 9, true), precondition_error);

    for (const std::string& name : formula_names()) {
        EXPECT_TRUE(is_formula_name(name));
    }
    EXPECT_FALSE(is_formula_name("no-such-formula"));
}

// ---------------------------------------------------- timing observability --

TEST(WireTiming, TimingAndTraceRoundTripOverTheWire) {
    ServiceCore core(manual_options());
    const Request request = parse_request(
        "{\"type\":\"decide\",\"id\":9,\"trace\":{\"id\":77},"
        "\"problem\":\"eulerian\",\"graph\":\"" + cycle6_payload() + "\"}",
        1, WireLimits{});
    EXPECT_EQ(request.trace_id, "77");

    const Response response = core.call(request);
    ASSERT_EQ(response.status, "ok");
    ASSERT_TRUE(response.timing.present);
    const std::string line = response.to_json();
    EXPECT_NE(line.find("\"trace\":{\"id\":77}"), std::string::npos);

    const auto view = parse_timing(line);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->queue_us, response.timing.queue_us);
    EXPECT_EQ(view->batch_us, response.timing.batch_us);
    EXPECT_EQ(view->exec_us, response.timing.exec_us);
    EXPECT_EQ(view->write_us, response.timing.write_us);
    EXPECT_EQ(view->worker_pid, response.timing.worker_pid);
    EXPECT_EQ(view->generation, response.timing.generation);
    EXPECT_EQ(view->batch_size, response.batch);
    EXPECT_EQ(view->stage_sum_us(), response.timing.stage_sum_us());

    // Lines without a timing envelope parse to nullopt, not garbage.
    EXPECT_FALSE(parse_timing("{\"status\":\"ok\"}").has_value());
    EXPECT_FALSE(parse_timing("not json").has_value());
}

TEST(WireTiming, StageSumBoundedByClientObservedWall) {
    ServiceOptions options;
    options.threads = 2;
    ServiceCore core(options);
    for (int i = 0; i < 8; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const Response response =
            core.call(decide_request("eulerian", std::to_string(i)));
        const double wall_us = std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        ASSERT_EQ(response.status, "ok");
        ASSERT_TRUE(response.timing.present);
        // Each stage rounds to whole microseconds, so allow half-ulp-per-
        // stage slack on top of the measured wall.
        EXPECT_LE(static_cast<double>(response.timing.stage_sum_us()),
                  wall_us + 3.0)
            << "request " << i;
    }
    core.stop();
}

TEST(WireTiming, MemoHitsCarryFreshTiming) {
    ServiceCore core(manual_options());
    const Request request = decide_request("eulerian", "memo");
    const Response miss = core.call(request);
    const Response hit = core.call(request);
    ASSERT_EQ(hit.status, "ok");
    EXPECT_TRUE(hit.memo_hit);
    ASSERT_TRUE(hit.timing.present);
    // The memo stores body fragments, not envelopes: a hit's timing is its
    // own serve, not a replay of the miss's.
    EXPECT_NE(hit.to_json().find("\"memo_hit\":true"), std::string::npos);
}

TEST(StatsDetail, FullSnapshotExposesHistogramsAndIdentity) {
    ServiceCore core(manual_options());
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(core.call(decide_request("eulerian", std::to_string(i)))
                      .status,
                  "ok");
    }
    const Response summary = core.call(
        parse_request("{\"type\":\"stats\",\"id\":90}", 1, WireLimits{}));
    ASSERT_EQ(summary.status, "ok");
    EXPECT_EQ(summary.body.find("\"histograms\""), std::string::npos);

    const Response full = core.call(parse_request(
        "{\"type\":\"stats\",\"id\":91,\"detail\":\"full\"}", 1,
        WireLimits{}));
    ASSERT_EQ(full.status, "ok");
    const auto snapshot = parse_worker_snapshot(full.to_json());
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_GT(snapshot->pid, 0);
    EXPECT_GE(snapshot->uptime_ms, 0.0);
    EXPECT_GE(snapshot->metric("service.completed"), 5.0);
    const auto latency = snapshot->histograms.find("service.latency_us");
    ASSERT_NE(latency, snapshot->histograms.end());
    // The full-stats probe renders before its own timing is recorded, so the
    // latency histogram holds every request served before it.
    EXPECT_GE(latency->second.count(), 5u);
    EXPECT_GT(latency->second.percentile(0.99), 0.0);
    for (const char* stage : {"service.queue_us", "service.batch_us",
                              "service.exec_us", "service.write_us"}) {
        EXPECT_NE(snapshot->histograms.find(stage),
                  snapshot->histograms.end())
            << stage;
    }
}

TEST(Scrape, RejectsMalformedSnapshots) {
    EXPECT_FALSE(parse_worker_snapshot("not json").has_value());
    EXPECT_FALSE(parse_worker_snapshot("{\"status\":\"ok\"}").has_value());
    EXPECT_FALSE(
        parse_worker_snapshot(
            "{\"status\":\"error\",\"type\":\"stats\",\"metrics\":{}}")
            .has_value());
    // Bucket counts that do not add up to "count" are rejected, not merged.
    EXPECT_FALSE(
        parse_worker_snapshot(
            "{\"status\":\"ok\",\"type\":\"stats\",\"metrics\":{},"
            "\"histograms\":{\"h\":{\"count\":5,\"sum\":1,\"min\":1,"
            "\"max\":1,\"buckets\":[[0,2]]}}}")
            .has_value());
}

TEST(Scrape, ClusterMergeEqualsPerWorkerSums) {
    // Two independent cores behind two loopback listeners stand in for two
    // supervised workers; both answer a full-stats probe over the real wire.
    ServiceOptions options;
    options.threads = 2;
    ServiceCore core_a(options);
    ServiceCore core_b(options);
    TcpServer server_a(core_a, 0, 2);
    TcpServer server_b(core_b, 0, 2);
    server_a.start();
    server_b.start();

    const auto drive = [](std::uint16_t port, int requests) -> WorkerSnapshot {
        TcpClient client("127.0.0.1", port);
        for (int i = 0; i < requests; ++i) {
            client.send_line(
                "{\"type\":\"decide\",\"id\":" + std::to_string(i) +
                ",\"problem\":\"eulerian\",\"graph\":\"" + cycle6_payload() +
                "\"}");
            std::string line;
            EXPECT_TRUE(client.recv_line(line));
        }
        client.send_line("{\"type\":\"stats\",\"detail\":\"full\"}");
        std::string line;
        EXPECT_TRUE(client.recv_line(line));
        const auto snapshot = parse_worker_snapshot(line);
        EXPECT_TRUE(snapshot.has_value());
        return snapshot.value_or(WorkerSnapshot{});
    };

    WorkerSnapshot a = drive(server_a.port(), 7);
    WorkerSnapshot b = drive(server_b.port(), 11);
    server_a.shutdown();
    server_b.shutdown();
    core_a.stop();
    core_b.stop();

    // Both cores live in this process, so fake distinct worker pids the way
    // a real supervised cluster would present them.
    a.pid = 111;
    b.pid = 222;
    const double completed_sum = a.metric("service.completed") +
                                 b.metric("service.completed");
    const std::uint64_t latency_count_sum =
        a.histograms.at("service.latency_us").count() +
        b.histograms.at("service.latency_us").count();

    const ClusterView view = merge_workers({a, b});
    ASSERT_EQ(view.workers.size(), 2u);
    EXPECT_DOUBLE_EQ(view.summed_metrics.at("service.completed"),
                     completed_sum);
    const auto merged = view.histograms.find("service.latency_us");
    ASSERT_NE(merged, view.histograms.end());
    EXPECT_EQ(merged->second.count(), latency_count_sum);
    // Bucket-by-bucket, the merge is the per-worker sum — the bit-exactness
    // lph_top's cluster totals rely on.
    for (std::size_t i = 0; i < obs::LogHistogram::kBucketCount; ++i) {
        EXPECT_EQ(merged->second.bucket(i),
                  a.histograms.at("service.latency_us").bucket(i) +
                      b.histograms.at("service.latency_us").bucket(i))
            << "bucket " << i;
    }

    // Duplicate probes of the same worker dedupe (last wins), never
    // double-count.
    const ClusterView deduped = merge_workers({a, a, b});
    EXPECT_EQ(deduped.workers.size(), 2u);
    EXPECT_DOUBLE_EQ(deduped.summed_metrics.at("service.completed"),
                     completed_sum);
}

} // namespace
