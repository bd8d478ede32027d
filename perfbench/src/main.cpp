// lph_perfbench: runs one benchmark workload in-process and prints its
// metrics.  Usually launched through perfbench/run.py, which builds it:
//
//   lph_perfbench --workload serve_open|patch_churn|engine_solve --seed N
//                 --seconds S --trace 0|1 [--slo-ms w=ms,...]
//                 [--trace-out FILE] [--revision REV]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// engine_solve starts copies of itself with --setup-probe, which prints the
// first solve's time of a fresh process and nothing else.

#include "common.hpp"
#include "workloads.hpp"

#include <exception>
#include <iostream>
#include <sstream>

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "lph_perfbench: " << problem << "\n"
              << "usage: lph_perfbench --workload serve_open|patch_churn|engine_solve "
                 "--seed N --seconds S --trace 0|1 [--slo-ms w=ms,...] "
                 "[--trace-out FILE] [--revision REV]\n";
    std::exit(2);
}

std::map<std::string, double> parse_limits(const std::string& text) {
    std::map<std::string, double> limits;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
            usage("--slo-ms wants workload=ms pairs, got '" + item + "'");
        }
        limits[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
    }
    return limits;
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-probe") {
            options.setup_probe = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage("missing value for " + arg);
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.trace = value == "1";
            } else if (arg == "--slo-ms") {
                options.slo_ms = parse_limits(value);
            } else if (arg == "--trace-out") {
                options.trace_out = value;
            } else if (arg == "--revision") {
                options.revision = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (options.seconds <= 0) {
        usage("--seconds must be positive");
    }
    return options;
}

} // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    try {
        if (options.setup_probe) {
            if (options.workload != "engine_solve") {
                usage("--setup-probe is engine_solve's");
            }
            return perfbench::probe_engine_setup(options);
        }
        perfbench::Report report;
        if (options.workload == "serve_open") {
            report = perfbench::run_serve_open(options);
        } else if (options.workload == "patch_churn") {
            report = perfbench::run_patch_churn(options);
        } else if (options.workload == "engine_solve") {
            report = perfbench::run_engine_solve(options);
        } else {
            usage("unknown workload '" + options.workload + "'");
        }
        return perfbench::emit(options, report);
    } catch (const std::exception& e) {
        std::cerr << "lph_perfbench: " << e.what() << "\n";
        return 1;
    }
}
