#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_open|patch_churn|engine_solve \\
        --seed N --seconds S --trace 0|1 [--slo-ms w=ms,...]

Every argument is passed to the lph_perfbench binary (see src/main.cpp).  The
first run configures and builds it into .bench_build/ at the repository root;
later runs rebuild only what changed.  Build output goes to stderr, so the last
line of stdout is the binary's JSON result.  A traced run (--trace 1) also
writes its Chrome trace to .bench_build/traces/ and, when the repository's
scripts/trace_lint.py is present, lints it: a trace that fails the lint fails
the run.

Exit status: the binary's (0 = every check passed), or 1 when the build fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lph_perfbench")


def build():
    """Configures (once) and builds the binary; False on any failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # configure again next time
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def revision():
    """The source revision, when the checkout is a git tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def option(args, name, default=None):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_out = None
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_out = os.path.join(BUILD, "traces", "%s_seed%s.json" % (
            option(args, "--workload", "run"), option(args, "--seed", "0")))
        args += ["--trace-out", trace_out]
    run = subprocess.run([BINARY] + args + ["--revision", revision()],
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    code = run.returncode
    lint = os.path.join(ROOT, "scripts", "trace_lint.py")
    if code == 0 and trace_out and os.path.exists(lint):
        linted = subprocess.run([sys.executable, lint, trace_out],
                                capture_output=True, text=True)
        if linted.returncode != 0:
            sys.stderr.write(linted.stderr)
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1:] = ["CHECK FAILED: exported trace fails trace_lint.py",
                          json.dumps(result)]
            code = 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
