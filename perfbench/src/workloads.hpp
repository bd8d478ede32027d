#pragma once

#include "common.hpp"

namespace perfbench {

/// Open loop at a fixed offered rate against an in-process ServiceCore.
Report run_serve_open(const Options& options);

/// Closed loop: one outstanding request per resident graph, patches beside
/// digest-referenced reads.
Report run_patch_churn(const Options& options);

/// Closed loop of library-level GameTables + play_game solves.
Report run_engine_solve(const Options& options);

/// engine_solve's set-up probe: times this process's first warm-up solve
/// (which starts the library's thread pool), prints it in seconds and
/// returns the exit code.
int probe_engine_setup(const Options& options);

} // namespace perfbench
