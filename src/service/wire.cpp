#include "service/wire.hpp"

#include "core/check.hpp"
#include "lang/parser.hpp"
#include "obs/metrics.hpp"
#include "service/json.hpp"
#include "service/registry.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

namespace lph {
namespace service {

namespace {

using obs::json_escape;

/// Exact round-trip rendering for the double-valued wire fields (deadlines,
/// fault probabilities) — %.17g preserves every distinct double.
std::string render_double(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double parse_probability(const JsonValue& v, const char* field) {
    check(v.is_number(), std::string(field) + " must be a number");
    check(v.number >= 0.0 && v.number <= 1.0,
          std::string(field) + " must be in [0, 1]");
    return v.number;
}

std::string parse_id_token(const JsonValue& v) {
    if (v.is_number()) {
        return v.raw_number;
    }
    if (v.is_string()) {
        return "\"" + json_escape(v.string) + "\"";
    }
    check(false, "id must be a number or a string");
    return {};
}

/// "digest" travels as a decimal string — a u64 digest does not survive a
/// JSON double round-trip.
std::uint64_t parse_digest(const JsonValue& v) {
    check(v.is_string(), "\"digest\" must be a decimal string");
    const std::string& text = v.string;
    check(!text.empty() && text.size() <= 20 &&
              text.find_first_not_of("0123456789") == std::string::npos &&
              (text.size() == 1 || text[0] != '0'),
          "\"digest\" must be a canonical decimal u64");
    std::uint64_t value = 0;
    for (const char c : text) {
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        check(value <= (std::numeric_limits<std::uint64_t>::max() - digit) / 10,
              "\"digest\" out of u64 range");
        value = value * 10 + digit;
    }
    return value;
}

void check_label(const std::string& label, const WireLimits& limits) {
    check(label.size() <= limits.max_label_bits,
          "patch label exceeds " + std::to_string(limits.max_label_bits) +
              " bits");
    check(label.find_first_not_of("01") == std::string::npos,
          "patch label must be a bit string");
}

std::vector<PatchOp> parse_ops(const JsonValue& value,
                               const WireLimits& limits) {
    check(value.kind == JsonValue::Kind::Array, "\"ops\" must be an array");
    check(!value.items.empty(), "\"ops\" must not be empty");
    check(value.items.size() <= limits.max_patch_ops,
          "\"ops\" exceeds the limit of " +
              std::to_string(limits.max_patch_ops) + " ops");
    std::vector<PatchOp> ops;
    ops.reserve(value.items.size());
    for (const JsonValue& item : value.items) {
        check(item.is_object(), "each op must be a JSON object");
        const JsonValue* op_field = item.find("op");
        check(op_field != nullptr && op_field->is_string(),
              "each op needs a string \"op\" field");
        PatchOp op;
        const std::string& name = op_field->string;
        bool needs_u = true;
        bool needs_v = false;
        bool needs_label = false;
        if (name == "add_edge") {
            op.kind = PatchOp::Kind::AddEdge;
            needs_v = true;
        } else if (name == "remove_edge") {
            op.kind = PatchOp::Kind::RemoveEdge;
            needs_v = true;
        } else if (name == "relabel") {
            op.kind = PatchOp::Kind::Relabel;
            needs_label = true;
        } else if (name == "add_node") {
            op.kind = PatchOp::Kind::AddNode;
            needs_u = false;
            needs_label = true;
        } else if (name == "remove_node") {
            op.kind = PatchOp::Kind::RemoveNode;
        } else {
            check(false, "unknown op '" + name + "'");
        }
        bool saw_u = false;
        bool saw_v = false;
        bool saw_label = false;
        for (const auto& [key, field] : item.members) {
            if (key == "op") {
                continue;
            }
            if (key == "u" && needs_u) {
                op.u = static_cast<NodeId>(json_to_u64(field, "op \"u\""));
                saw_u = true;
            } else if (key == "v" && needs_v) {
                op.v = static_cast<NodeId>(json_to_u64(field, "op \"v\""));
                saw_v = true;
            } else if (key == "label" && needs_label) {
                check(field.is_string(), "op \"label\" must be a string");
                check_label(field.string, limits);
                op.label = field.string;
                saw_label = true;
            } else {
                check(false,
                      "unknown field \"" + key + "\" for op '" + name + "'");
            }
        }
        check(!needs_u || saw_u, "op '" + name + "' is missing \"u\"");
        check(!needs_v || saw_v, "op '" + name + "' is missing \"v\"");
        check(!needs_label || saw_label,
              "op '" + name + "' is missing \"label\"");
        ops.push_back(std::move(op));
    }
    return ops;
}

/// The query fields game and graph_patch share (machine, layers, sigma,
/// ids).  Returns false when `key` is none of them.
bool parse_query_field(const std::string& key, const JsonValue& value,
                       Request& r) {
    if (key == "machine") {
        check(value.is_string(), "\"machine\" must be a string");
        check(is_machine_name(value.string),
              "unknown machine '" + value.string + "'");
        r.machine = value.string;
    } else if (key == "layers") {
        const std::uint64_t layers = json_to_u64(value, "\"layers\"");
        check(layers <= 3, "\"layers\" must be in [0, 3]");
        r.layers = static_cast<int>(layers);
    } else if (key == "sigma") {
        check(value.is_bool(), "\"sigma\" must be a boolean");
        r.sigma = value.boolean;
    } else if (key == "ids") {
        check(value.is_string() &&
                  (value.string == "global" || value.string == "local"),
              "\"ids\" must be \"global\" or \"local\"");
        r.ids = value.string;
    } else {
        return false;
    }
    return true;
}

} // namespace

const char* to_string(RequestType type) {
    switch (type) {
    case RequestType::Game: return "game";
    case RequestType::Logic: return "logic";
    case RequestType::Eval: return "eval";
    case RequestType::Decide: return "decide";
    case RequestType::OracleCheck: return "oracle_check";
    case RequestType::Stats: return "stats";
    case RequestType::Health: return "health";
    case RequestType::GraphRegister: return "graph_register";
    case RequestType::GraphPatch: return "graph_patch";
    }
    return "unknown";
}

const char* to_string(PatchOp::Kind kind) {
    switch (kind) {
    case PatchOp::Kind::AddEdge: return "add_edge";
    case PatchOp::Kind::RemoveEdge: return "remove_edge";
    case PatchOp::Kind::Relabel: return "relabel";
    case PatchOp::Kind::AddNode: return "add_node";
    case PatchOp::Kind::RemoveNode: return "remove_node";
    }
    return "unknown";
}

std::uint64_t fnv1a64(const std::string& data) {
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

void Request::attach_graph(LabeledGraph g, std::string canonical) {
    canonical_graph = canonical.empty() ? graph_to_text(g) : std::move(canonical);
    graph = std::move(g);
    has_graph = true;
}

std::uint64_t Request::graph_digest() const {
    return has_graph ? fnv1a64(canonical_graph) : 0;
}

std::string Request::memo_key() const {
    std::ostringstream key;
    switch (type) {
    case RequestType::Game:
        key << "game|" << machine << '|' << layers << '|' << sigma << '|' << ids
            << '|' << tolerate_faults << '|' << fault_seed << '|'
            << render_double(fault_crash) << '|' << render_double(fault_drop)
            << '|' << render_double(fault_truncate) << '|'
            << render_double(fault_corrupt) << '|' << graph_digest();
        break;
    case RequestType::Logic:
        key << "logic|" << formula << '|' << fseed << '|' << graph_digest();
        break;
    case RequestType::Eval:
        // Keyed on the canonical re-print: two spellings of the same formula
        // share a memo entry (parse-print is idempotent, so the key is
        // stable).
        key << "eval|" << eval_text << '|' << graph_digest();
        break;
    case RequestType::Decide:
        key << "decide|" << problem << '|' << k << '|' << graph_digest();
        break;
    case RequestType::OracleCheck:
        key << "oracle|" << oracle_check << '|' << seed << '|' << instances;
        break;
    case RequestType::Stats:
    case RequestType::Health:
    // Register is idempotent but cheap; a patch mutates state, so neither
    // may ever be served from the memo.
    case RequestType::GraphRegister:
    case RequestType::GraphPatch:
        return "";
    }
    return key.str();
}

std::string Request::to_json() const {
    std::ostringstream out;
    out << "{\"type\":\"" << to_string(type) << "\"";
    if (!id.empty()) {
        out << ",\"id\":" << id;
    }
    if (deadline_ms > 0) {
        out << ",\"deadline_ms\":" << render_double(deadline_ms);
    }
    if (!trace_id.empty()) {
        out << ",\"trace\":{\"id\":" << trace_id << "}";
    }
    switch (type) {
    case RequestType::Game:
        out << ",\"machine\":\"" << json_escape(machine) << "\""
            << ",\"layers\":" << layers
            << ",\"sigma\":" << (sigma ? "true" : "false") << ",\"ids\":\""
            << json_escape(ids) << "\"";
        if (tolerate_faults) {
            out << ",\"tolerate_faults\":true";
        }
        if (fault_seed != 0) {
            out << ",\"fault_seed\":" << fault_seed;
        }
        if (fault_crash > 0) {
            out << ",\"fault_crash\":" << render_double(fault_crash);
        }
        if (fault_drop > 0) {
            out << ",\"fault_drop\":" << render_double(fault_drop);
        }
        if (fault_truncate > 0) {
            out << ",\"fault_truncate\":" << render_double(fault_truncate);
        }
        if (fault_corrupt > 0) {
            out << ",\"fault_corrupt\":" << render_double(fault_corrupt);
        }
        if (backend != "compiled") {
            out << ",\"backend\":\"" << json_escape(backend) << "\"";
        }
        break;
    case RequestType::Logic:
        out << ",\"formula\":\"" << json_escape(formula) << "\"";
        if (formula == "random") {
            out << ",\"fseed\":" << fseed;
        }
        break;
    case RequestType::Eval:
        out << ",\"formula\":\"" << json_escape(eval_text) << "\"";
        break;
    case RequestType::Decide:
        out << ",\"problem\":\"" << json_escape(problem) << "\"";
        if (problem == "coloring") {
            out << ",\"k\":" << k;
        }
        break;
    case RequestType::OracleCheck:
        out << ",\"check\":\"" << json_escape(oracle_check) << "\""
            << ",\"seed\":" << seed << ",\"instances\":" << instances;
        break;
    case RequestType::Stats:
        if (stats_detail == "full") {
            out << ",\"detail\":\"full\"";
        }
        break;
    case RequestType::Health:
    case RequestType::GraphRegister:
        break;
    case RequestType::GraphPatch:
        out << ",\"digest\":\"" << ref_digest << "\",\"ops\":[";
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const PatchOp& op = ops[i];
            if (i > 0) {
                out << ",";
            }
            out << "{\"op\":\"" << to_string(op.kind) << "\"";
            if (op.kind != PatchOp::Kind::AddNode) {
                out << ",\"u\":" << op.u;
            }
            if (op.kind == PatchOp::Kind::AddEdge ||
                op.kind == PatchOp::Kind::RemoveEdge) {
                out << ",\"v\":" << op.v;
            }
            if (op.kind == PatchOp::Kind::Relabel ||
                op.kind == PatchOp::Kind::AddNode) {
                out << ",\"label\":\"" << json_escape(op.label) << "\"";
            }
            out << "}";
        }
        out << "]";
        if (!machine.empty()) {
            out << ",\"machine\":\"" << json_escape(machine) << "\""
                << ",\"layers\":" << layers
                << ",\"sigma\":" << (sigma ? "true" : "false") << ",\"ids\":\""
                << json_escape(ids) << "\"";
        }
        break;
    }
    if (has_graph) {
        out << ",\"graph\":\"" << json_escape(canonical_graph) << "\"";
    }
    if (has_ref_digest && type != RequestType::GraphPatch) {
        out << ",\"digest\":\"" << ref_digest << "\"";
    }
    out << "}";
    return out.str();
}

Request parse_request(const std::string& line, std::size_t line_number,
                      const WireLimits& limits) {
    const std::string where = "line " + std::to_string(line_number) + ": ";
    try {
        check(line.size() <= limits.max_line_bytes,
              "request line of " + std::to_string(line.size()) +
                  " bytes exceeds the limit of " +
                  std::to_string(limits.max_line_bytes));
        const JsonValue doc = parse_json(line);
        check(doc.is_object(), "request must be a JSON object");

        const JsonValue* type_field = doc.find("type");
        check(type_field != nullptr, "request is missing \"type\"");
        check(type_field->is_string(), "\"type\" must be a string");

        Request r;
        const std::string& type = type_field->string;
        if (type == "game") {
            r.type = RequestType::Game;
        } else if (type == "logic") {
            r.type = RequestType::Logic;
        } else if (type == "eval") {
            r.type = RequestType::Eval;
        } else if (type == "decide") {
            r.type = RequestType::Decide;
        } else if (type == "oracle_check") {
            r.type = RequestType::OracleCheck;
        } else if (type == "stats") {
            r.type = RequestType::Stats;
        } else if (type == "health") {
            r.type = RequestType::Health;
        } else if (type == "graph_register") {
            r.type = RequestType::GraphRegister;
        } else if (type == "graph_patch") {
            r.type = RequestType::GraphPatch;
        } else {
            check(false, "unknown request type '" + type + "'");
        }

        std::string graph_text;
        bool saw_graph = false;
        for (const auto& [key, value] : doc.members) {
            if (key == "type") {
                continue;
            }
            if (key == "id") {
                r.id = parse_id_token(value);
                continue;
            }
            if (key == "deadline_ms") {
                check(value.is_number() && value.number >= 0,
                      "\"deadline_ms\" must be a non-negative number");
                r.deadline_ms = value.number;
                continue;
            }
            if (key == "trace") {
                check(value.is_object(), "\"trace\" must be an object");
                const JsonValue* trace_id = nullptr;
                for (const auto& [tkey, tvalue] : value.members) {
                    check(tkey == "id",
                          "unknown field \"" + tkey + "\" in \"trace\"");
                    trace_id = &tvalue;
                }
                check(trace_id != nullptr, "\"trace\" is missing \"id\"");
                r.trace_id = parse_id_token(*trace_id);
                continue;
            }
            const bool takes_graph = r.type == RequestType::Game ||
                                     r.type == RequestType::Logic ||
                                     r.type == RequestType::Eval ||
                                     r.type == RequestType::Decide ||
                                     r.type == RequestType::GraphRegister;
            if (key == "graph" && takes_graph) {
                check(value.is_string(), "\"graph\" must be a string payload");
                graph_text = value.string;
                saw_graph = true;
                continue;
            }
            const bool takes_digest = r.type == RequestType::Game ||
                                      r.type == RequestType::Logic ||
                                      r.type == RequestType::Eval ||
                                      r.type == RequestType::Decide ||
                                      r.type == RequestType::GraphPatch;
            if (key == "digest" && takes_digest) {
                r.ref_digest = parse_digest(value);
                r.has_ref_digest = true;
                continue;
            }
            if (key == "ops" && r.type == RequestType::GraphPatch) {
                r.ops = parse_ops(value, limits);
                continue;
            }
            bool known = false;
            switch (r.type) {
            case RequestType::Game:
                known = true;
                if (key == "tolerate_faults") {
                    check(value.is_bool(),
                          "\"tolerate_faults\" must be a boolean");
                    r.tolerate_faults = value.boolean;
                } else if (key == "fault_seed") {
                    r.fault_seed = json_to_u64(value, "\"fault_seed\"");
                } else if (key == "fault_crash") {
                    r.fault_crash = parse_probability(value, "\"fault_crash\"");
                } else if (key == "fault_drop") {
                    r.fault_drop = parse_probability(value, "\"fault_drop\"");
                } else if (key == "fault_truncate") {
                    r.fault_truncate =
                        parse_probability(value, "\"fault_truncate\"");
                } else if (key == "fault_corrupt") {
                    r.fault_corrupt =
                        parse_probability(value, "\"fault_corrupt\"");
                } else if (key == "backend") {
                    check(value.is_string() && (value.string == "compiled" ||
                                                value.string == "interpreted"),
                          "\"backend\" must be \"compiled\" or "
                          "\"interpreted\"");
                    r.backend = value.string;
                } else {
                    known = parse_query_field(key, value, r);
                }
                break;
            case RequestType::Logic:
                known = true;
                if (key == "formula") {
                    check(value.is_string(), "\"formula\" must be a string");
                    check(is_formula_name(value.string),
                          "unknown formula '" + value.string + "'");
                    r.formula = value.string;
                } else if (key == "fseed") {
                    r.fseed = json_to_u64(value, "\"fseed\"");
                } else {
                    known = false;
                }
                break;
            case RequestType::Eval:
                known = true;
                if (key == "formula") {
                    check(value.is_string(), "\"formula\" must be a string");
                    check(value.string.size() <= limits.max_formula_bytes,
                          "\"formula\" of " +
                              std::to_string(value.string.size()) +
                              " bytes exceeds the limit of " +
                              std::to_string(limits.max_formula_bytes));
                    lang::ParseLimits parse_limits;
                    parse_limits.lex.max_text_bytes = limits.max_formula_bytes;
                    try {
                        r.eval_formula =
                            lang::parse_formula(value.string, parse_limits);
                    } catch (const lang::parse_error& e) {
                        check(false, std::string("\"formula\": ") + e.what());
                    }
                    r.eval_text = lph::to_string(r.eval_formula);
                } else {
                    known = false;
                }
                break;
            case RequestType::Decide:
                known = true;
                if (key == "problem") {
                    check(value.is_string() &&
                              (value.string == "eulerian" ||
                               value.string == "coloring" ||
                               value.string == "hamiltonian"),
                          "\"problem\" must be eulerian, coloring, or "
                          "hamiltonian");
                    r.problem = value.string;
                } else if (key == "k") {
                    const std::uint64_t k = json_to_u64(value, "\"k\"");
                    check(k >= 1 && k <= 8, "\"k\" must be in [1, 8]");
                    r.k = static_cast<int>(k);
                } else {
                    known = false;
                }
                break;
            case RequestType::OracleCheck:
                known = true;
                if (key == "check") {
                    check(value.is_string(), "\"check\" must be a string");
                    r.oracle_check = value.string;
                } else if (key == "seed") {
                    r.seed = json_to_u64(value, "\"seed\"");
                } else if (key == "instances") {
                    const std::uint64_t n = json_to_u64(value, "\"instances\"");
                    check(n >= 1 && n <= 1000,
                          "\"instances\" must be in [1, 1000]");
                    r.instances = static_cast<std::size_t>(n);
                } else {
                    known = false;
                }
                break;
            case RequestType::GraphPatch:
                // The optional patch-and-reevaluate query: the clean-game
                // subset of the game fields (faults and deadlines make
                // verdicts time/plan-dependent, which an incremental result
                // must never be).
                known = parse_query_field(key, value, r);
                break;
            case RequestType::Stats:
                if (key == "detail") {
                    check(value.is_string() && (value.string == "summary" ||
                                                value.string == "full"),
                          "\"detail\" must be \"summary\" or \"full\"");
                    r.stats_detail = value.string == "full" ? "full" : "";
                    known = true;
                }
                break;
            case RequestType::Health:
            case RequestType::GraphRegister:
                known = false;
                break;
            }
            check(known, "unknown field \"" + key + "\" for type '" + type + "'");
        }

        const auto graph_or_digest = [&](const char* what) {
            check(saw_graph || r.has_ref_digest,
                  std::string(what) + " request needs \"graph\" or \"digest\"");
            check(!(saw_graph && r.has_ref_digest),
                  std::string(what) +
                      " request must not carry both \"graph\" and \"digest\"");
        };
        switch (r.type) {
        case RequestType::Game:
            check(!r.machine.empty(), "game request is missing \"machine\"");
            graph_or_digest("game");
            break;
        case RequestType::Logic:
            check(!r.formula.empty(), "logic request is missing \"formula\"");
            graph_or_digest("logic");
            break;
        case RequestType::Eval:
            check(r.eval_formula != nullptr,
                  "eval request is missing \"formula\"");
            graph_or_digest("eval");
            break;
        case RequestType::Decide:
            check(!r.problem.empty(), "decide request is missing \"problem\"");
            graph_or_digest("decide");
            break;
        case RequestType::OracleCheck:
            check(!r.oracle_check.empty(),
                  "oracle_check request is missing \"check\"");
            break;
        case RequestType::Stats:
        case RequestType::Health:
            break;
        case RequestType::GraphRegister:
            check(saw_graph, "graph_register request is missing \"graph\"");
            break;
        case RequestType::GraphPatch:
            check(r.has_ref_digest,
                  "graph_patch request is missing \"digest\"");
            check(!r.ops.empty(), "graph_patch request is missing \"ops\"");
            break;
        }

        if (saw_graph) {
            r.attach_graph(graph_from_text(graph_text, limits.graph_limits()));
        }
        return r;
    } catch (const precondition_error& e) {
        throw precondition_error(where + e.what());
    }
}

std::string Response::to_json() const {
    std::ostringstream out;
    out << "{";
    if (!id.empty()) {
        out << "\"id\":" << id << ",";
    }
    if (status == "ok") {
        out << "\"type\":\"" << to_string(type) << "\",";
    }
    out << "\"status\":\"" << status << "\"";
    if (status != "ok") {
        out << ",\"error\":\"" << json_escape(error) << "\",\"detail\":\""
            << json_escape(detail) << "\"";
    }
    if (!body.empty()) {
        out << "," << body;
    }
    if (status == "ok") {
        out << ",\"memo\":\"" << (memo_hit ? "hit" : "miss")
            << "\",\"batch\":" << batch << ",\"service_ms\":" << service_ms;
    }
    if (timing.present) {
        out << ",\"timing\":{\"queue_us\":" << timing.queue_us
            << ",\"batch_us\":" << timing.batch_us
            << ",\"exec_us\":" << timing.exec_us
            << ",\"write_us\":" << timing.write_us << ",\"memo_hit\":"
            << (memo_hit ? "true" : "false") << ",\"batch_size\":" << batch;
        if (!timing.backend.empty()) {
            out << ",\"backend\":\"" << json_escape(timing.backend) << "\"";
        }
        out << ",\"worker_pid\":" << timing.worker_pid
            << ",\"generation\":" << timing.generation << "}";
    }
    if (!trace_id.empty()) {
        out << ",\"trace\":{\"id\":" << trace_id << "}";
    }
    out << "}";
    return out.str();
}

std::optional<TimingView> parse_timing(const std::string& line) {
    try {
        const JsonValue doc = parse_json(line);
        const JsonValue* t = doc.find("timing");
        if (t == nullptr || !t->is_object()) {
            return std::nullopt;
        }
        TimingView view;
        for (const auto& [key, value] : t->members) {
            if (key == "queue_us") {
                view.queue_us = json_to_u64(value, "\"queue_us\"");
            } else if (key == "batch_us") {
                view.batch_us = json_to_u64(value, "\"batch_us\"");
            } else if (key == "exec_us") {
                view.exec_us = json_to_u64(value, "\"exec_us\"");
            } else if (key == "write_us") {
                view.write_us = json_to_u64(value, "\"write_us\"");
            } else if (key == "memo_hit") {
                check(value.is_bool(), "\"memo_hit\" must be a boolean");
                view.memo_hit = value.boolean;
            } else if (key == "batch_size") {
                view.batch_size = json_to_u64(value, "\"batch_size\"");
            } else if (key == "backend") {
                check(value.is_string(), "\"backend\" must be a string");
                view.backend = value.string;
            } else if (key == "worker_pid") {
                view.worker_pid = static_cast<std::int64_t>(
                    json_to_u64(value, "\"worker_pid\""));
            } else if (key == "generation") {
                view.generation = json_to_u64(value, "\"generation\"");
            }
        }
        return view;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

std::optional<VerdictView> parse_verdict(const std::string& line) {
    try {
        const JsonValue doc = parse_json(line);
        const JsonValue* status = doc.find("status");
        if (status == nullptr || !status->is_string()) {
            return std::nullopt;
        }
        VerdictView view;
        view.status = status->string;
        if (const JsonValue* id = doc.find("id")) {
            view.id = parse_id_token(*id);
        }
        for (const char* field : {"accepted", "answer", "satisfied", "passed"}) {
            const JsonValue* v = doc.find(field);
            if (v != nullptr && v->is_bool()) {
                view.has_verdict = true;
                view.verdict = v->boolean;
                break;
            }
        }
        return view;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

Response Response::protocol_error(const std::string& detail) {
    Response r;
    r.status = "error";
    r.error = "ProtocolError";
    r.detail = detail;
    return r;
}

Response Response::rejection(const std::string& id, const std::string& detail) {
    Response r;
    r.id = id;
    r.status = "rejected";
    r.error = "QueueFull";
    r.detail = detail;
    return r;
}

Response Response::admission_rejection(const std::string& id,
                                       double predicted_us, double limit_us) {
    Response r;
    r.id = id;
    r.status = "rejected";
    r.error = "AdmissionRejected";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "predicted cost %.0f us exceeds the admission limit of "
                  "%.0f us",
                  predicted_us, limit_us);
    r.detail = buf;
    std::snprintf(buf, sizeof(buf),
                  "\"predicted_cost_us\":%.0f,\"admission_limit_us\":%.0f",
                  predicted_us, limit_us);
    r.body = buf;
    return r;
}

} // namespace service
} // namespace lph
