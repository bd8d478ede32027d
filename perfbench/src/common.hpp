#pragma once

// Shared plumbing of the benchmark binary: command-line options, timing and
// process-resource helpers, the metric catalogue, and the one result record
// every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Per-workload latency limits for slo_ratio (ms).
    std::map<std::string, double> slo_ms;
    /// Where the traced run writes its Chrome trace ("" = nowhere).
    std::string trace_out;
    /// engine_solve only: time this process's first warm-up solve, print it
    /// and exit (see run_engine_solve's set-up).
    bool setup_probe = false;
    /// Source revision for the fingerprint (the checkout may not be a git
    /// tree, so the launcher passes it in).
    std::string revision = "unknown";
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// A latency sample stamped with when its operation started (seconds from
/// the start of the measured phase).
struct Timed {
    double at_s = 0;
    double value = 0;
};

/// Robust percentile of a run: the q-percentile within each `window_s`
/// window of the run, then the median over the windows.  A stall on a shared
/// machine spoils one window instead of the run's tail.  Windows with fewer
/// than `min_count` samples are skipped; with none left, the plain
/// percentile of all samples.
double windowed_percentile(const std::vector<Timed>& samples, double window_s, double q,
                           std::size_t min_count);

/// Process user + system CPU seconds so far.
double process_cpu_s();
/// Calling thread's CPU seconds so far.
double thread_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();
/// `cpu_s` over `ops` operations, in ms per op (0 for no ops).
double cpu_ms_per_op(double cpu_s, std::size_t ops);

/// What one run reports.  emit() prints the end-to-end catalogue's values
/// for an untraced run and the per-layer catalogue's for a traced one; a
/// catalogue name the workload did not set reads 0.  An operation that
/// failed (error, rejection, fault) fails the run like a failed check.
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< failed checks, one line each
    std::map<std::string, double> values;
    std::vector<std::string> notes;    ///< extra human-readable lines

    void set(const std::string& name, double value) { values[name] = value; }
    void fail(const std::string& what);
};

/// The end-to-end metric catalogue (name, unit), shared by all workloads.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue();
/// The per-layer metric catalogue (name, unit), shared by all workloads;
/// a layer the workload does not touch reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Prints the human-readable table and then, as the last line, the JSON
/// result object.  Returns the process exit code: 0 only when every check
/// passed and no operation failed.
int emit(const Options& options, Report report);

/// nproc, compiler, build type and source revision, one line.
std::string fingerprint(const Options& options);

} // namespace perfbench
