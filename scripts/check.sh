#!/usr/bin/env bash
# Full verification: configure, build, run the test suite, smoke-run every
# benchmark binary (short measurement time), diff the bench reports against
# the committed baselines.  Mirrors what CI would do.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Smoke-run via the dispatcher from build/bench so the BENCH_<name>.json
# reports land there (bench_main fork/execs every sibling bench_* binary).
(cd build/bench && ./bench_main --benchmark_min_time=0.01 >/dev/null)
python3 scripts/bench_diff.py --fresh build/bench

# Traced smoke, after bench_diff so tracing overhead cannot depress the
# speedup rows the diff checks: one fig3 pass and one differential-oracle
# check with span tracing on.  Both exported Chrome traces must lint clean
# (valid JSON, monotone timestamps, balanced begin/end events).
(cd build/bench && ./bench_main --filter fig3 --benchmark_min_time=0.01 \
    --trace=trace_fig3.json --metrics=metrics_fig3.json >/dev/null)
python3 scripts/trace_lint.py build/bench/trace_fig3.json
python3 scripts/trace_summary.py build/bench/trace_fig3.json --top 8
./build/tools/lph_fuzz --check game-par-vs-ref --instances 40 \
    --trace=build/trace_fuzz.json >/dev/null
python3 scripts/trace_lint.py build/trace_fuzz.json

# Serving-layer smoke: a few hundred mixed wire requests (games, logic,
# decisions, oracle checks) through lphd in pipe mode with tracing on.
# lph_client --verify exits nonzero on any protocol error or a missing
# response; the server trace must lint clean like every other export.
./build/tools/lph_client --generate 320 --seed 7 \
    | ./build/tools/lphd --pipe --threads 4 --queue-cap 512 \
        --trace=build/trace_lphd.json \
    | tee build/smoke_replies.jsonl \
    | ./build/tools/lph_client --verify --expect 320
python3 scripts/trace_lint.py build/trace_lphd.json

# Backend parity on the wire: the same stream with every game line forced to
# the reference interpreter must give the default replies' verdicts
# (--against exits nonzero on any mismatch).
./build/tools/lph_client --generate 320 --seed 7 \
    | sed 's/"type":"game",/"type":"game","backend":"interpreted",/' \
    | ./build/tools/lphd --pipe --threads 4 --queue-cap 512 \
        > build/smoke_interpreted.jsonl
./build/tools/lph_client --verify --expect 320 \
    --against build/smoke_replies.jsonl < build/smoke_interpreted.jsonl \
    2> build/smoke_parity.log
cat build/smoke_parity.log
grep -q ' 0 mismatched' build/smoke_parity.log \
    || { echo "backend parity smoke: verdicts differ"; exit 1; }

# Formula requests honour their deadline: 2-colourability of an 11-cycle
# enumerates for seconds, so with "deadline_ms":50 the daemon must answer
# DeadlineExceeded, and within 250 ms.
python3 - <<'EOF'
import json, subprocess, time
edges = "".join("edge %d %d\\n" % (v, (v + 1) % 11) for v in range(11))
line = ('{"type":"logic","id":1,"formula":"two_colorable","deadline_ms":50,'
        '"graph":"graph 11\\n%s"}\n' % edges)
start = time.monotonic()
out = subprocess.run(["./build/tools/lphd", "--pipe", "--threads", "1"],
                     input=line, capture_output=True, text=True, check=True)
elapsed_ms = 1000 * (time.monotonic() - start)
reply = json.loads(out.stdout.splitlines()[0])
assert reply.get("error") == "DeadlineExceeded", reply
assert elapsed_ms < 250, "deadline smoke took %.0f ms" % elapsed_ms
print("deadline smoke: DeadlineExceeded after %.0f ms" % elapsed_ms)
EOF

# Incremental-serving smoke: a seeded patch storm (graph_register + chained
# graph_patch re-queries over resident graphs) served with dirty-ball
# recomputation, then the same workload replayed as inline full recomputes.
# Every verdict must match (--against exits nonzero on any mismatch).
# --threads 1 because each patch references the digest echoed by the
# previous response, so FIFO order is part of the protocol.
./build/tools/lph_client --patch 120 --seed 5 \
    | ./build/tools/lphd --pipe --threads 1 > build/patch_replies.jsonl
./build/tools/lph_client --patch-golden 120 --seed 5 \
    | ./build/tools/lphd --pipe --threads 1 > build/patch_golden.jsonl
./build/tools/lph_client --verify --expect 120 \
    --against build/patch_golden.jsonl < build/patch_replies.jsonl

# The same storm under a generous default deadline: clean, completed runs
# stay cacheable under a deadline, so the shared view cache must still serve
# hits and every verdict must still match the golden replay.
./build/tools/lph_client --patch 120 --seed 5 \
    | ./build/tools/lphd --pipe --threads 1 --default-deadline-ms 60000 \
        --metrics build/patch_deadline_metrics.json \
        > build/patch_deadline_replies.jsonl
./build/tools/lph_client --verify --expect 120 \
    --against build/patch_golden.jsonl < build/patch_deadline_replies.jsonl
python3 - <<'EOF'
import json
hits = json.load(open("build/patch_deadline_metrics.json"))["service.cache.hits"]
assert hits > 0, "deadline patch smoke: service.cache.hits = %s" % hits
print("deadline patch smoke: %d shared view-cache hits" % hits)
EOF

# Language-frontend + admission-control smoke: the committed cost-model
# calibration must match a fresh fit from the bench baselines, then a storm
# of user-written formulas with one hostile 8-quantifier request mixed in.
# The daemon must price and reject exactly the oversized one (a structured
# AdmissionRejected line, not a protocol error or a hang) and serve the rest.
python3 scripts/cost_calibrate.py --check
BIG_FORMULA='exists a. exists b. exists c. exists d. exists e. exists f. exists g. exists h. (a = b & O1(c))'
{ ./build/tools/lph_client --formula 'exists x. O1(x)' --count 24 --seed 9; \
  ./build/tools/lph_client --formula "$BIG_FORMULA" --count 1; } \
    > build/adm_requests.jsonl
./build/tools/lphd --pipe --threads 2 --admission \
    --metrics build/adm_metrics.json < build/adm_requests.jsonl \
    > build/adm_replies.jsonl
./build/tools/lph_client --verify --expect 25 < build/adm_replies.jsonl
grep -c '"error":"AdmissionRejected"' build/adm_replies.jsonl \
    | grep -qx 1 || { echo "admission smoke: expected exactly 1 rejection"; exit 1; }
python3 - <<'EOF'
import json
metrics = json.load(open("build/adm_metrics.json"))
assert metrics["service.admission.rejected"] == 1, metrics
assert metrics["service.admission.admitted"] == 24, metrics
assert metrics["service.admission.predicted_cost_us.count"] == 25, metrics
print("admission smoke: exactly one oversized formula rejected")
EOF

# Crash-resilience smoke: the same workload served twice — once chaos-free in
# pipe mode (the golden answers), once through a supervised two-worker daemon
# under seeded wire-level chaos (worker kills + connection drops) with a
# retrying client.  Chaos may error or sever individual attempts; it must
# never flip a verdict (--against), the client must recover every request
# (abandoned:0), and the supervisor must restart each killed worker.
./build/tools/lph_client --generate 300 --seed 11 > build/chaos_requests.jsonl
./build/tools/lphd --pipe --threads 4 < build/chaos_requests.jsonl \
    > build/chaos_golden.jsonl
rm -rf build/chaos-snap
./build/tools/lphd --port 0 --supervise 2 --snapshot-dir build/chaos-snap \
    --restart-backoff-ms 20 --min-healthy-ms 50 --max-crashes 1000 \
    --chaos-seed 1234 --chaos-kill 0.01 --chaos-drop 0.05 \
    2> build/chaos_lphd.log &
CHAOS_PID=$!
CHAOS_PORT=""
for _ in $(seq 50); do
    CHAOS_PORT=$(sed -n 's/^lphd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        build/chaos_lphd.log)
    [[ -n "$CHAOS_PORT" ]] && break
    sleep 0.1
done
[[ -n "$CHAOS_PORT" ]] || { echo "chaos smoke: lphd never came up"; exit 1; }
./build/tools/lph_client --connect "127.0.0.1:$CHAOS_PORT" --retries 8 \
    < build/chaos_requests.jsonl > build/chaos_replies.jsonl \
    2> build/chaos_client.log
kill -TERM "$CHAOS_PID" && wait "$CHAOS_PID"
./build/tools/lph_client --verify --expect 300 \
    --against build/chaos_golden.jsonl < build/chaos_replies.jsonl
grep -q '"abandoned":0' build/chaos_client.log \
    || { echo "chaos smoke: client abandoned requests"; \
         cat build/chaos_client.log; exit 1; }
grep -q '"chaos_kill":true' build/chaos_lphd.log \
    || { echo "chaos smoke: chaos never killed a worker"; exit 1; }
grep -q '"event":"worker_start".*"generation":2' build/chaos_lphd.log \
    || { echo "chaos smoke: supervisor never restarted a worker"; exit 1; }

# A daemon pointed at an unwritable metrics/trace path must refuse at startup
# with a structured error, not die mid-run after serving traffic.
if ./build/tools/lphd --pipe --metrics=/nonexistent/m.json </dev/null \
    >/dev/null 2> build/unwritable.log; then
    echo "lphd accepted an unwritable --metrics path"; exit 1
fi
grep -q '"event":"output_path_unwritable"' build/unwritable.log

# Slow-request logging: with a tiny threshold every request crosses it (one
# structured slow_request line each); with a huge threshold none may fire.
./build/tools/lph_client --generate 80 --seed 3 \
    | ./build/tools/lphd --pipe --threads 2 --slow-ms 0.0001 \
        2> build/slow_pos.log >/dev/null
grep -q '"event":"slow_request"' build/slow_pos.log \
    || { echo "slow-ms smoke: no slow_request lines at tiny threshold"; exit 1; }
./build/tools/lph_client --generate 80 --seed 3 \
    | ./build/tools/lphd --pipe --threads 2 --slow-ms 10000 \
        2> build/slow_neg.log >/dev/null
if grep -q '"event":"slow_request"' build/slow_neg.log; then
    echo "slow-ms smoke: slow_request fired under threshold"; exit 1
fi

# Cluster observability smoke: a supervised two-worker daemon under load,
# scraped by lph_top.  The probe-adjusted cluster totals must equal the
# loadgen's request count exactly (histogram merge is bit-exact), tail
# percentiles must be present for the latency and stage histograms, and the
# client's timing summary must report zero stage-sum-exceeds-wall violations.
# Afterwards the per-process traces (worker-0/worker-1/supervisor) merge into
# one lint-clean timeline.
rm -rf build/obs-traces
./build/tools/lph_client --generate 400 --seed 21 > build/obs_requests.jsonl
./build/tools/lphd --port 0 --supervise 2 --trace build/obs-traces \
    2> build/obs_lphd.log &
OBS_PID=$!
OBS_PORT=""
for _ in $(seq 50); do
    OBS_PORT=$(sed -n 's/^lphd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        build/obs_lphd.log)
    [[ -n "$OBS_PORT" ]] && break
    sleep 0.1
done
[[ -n "$OBS_PORT" ]] || { echo "obs smoke: lphd never came up"; exit 1; }
./build/tools/lph_client --connect "127.0.0.1:$OBS_PORT" \
    < build/obs_requests.jsonl > build/obs_replies.jsonl \
    2> build/obs_client.log
./build/tools/lph_client --verify --expect 400 < build/obs_replies.jsonl
./build/tools/lph_top --connect "127.0.0.1:$OBS_PORT" --workers 2 --once \
    --json > build/obs_top.json
python3 - <<'EOF'
import json
top = json.load(open("build/obs_top.json"))
cluster = top["cluster"]
assert cluster["submitted"] == 400, "submitted: %s" % cluster["submitted"]
assert cluster["completed"] == 400, "completed: %s" % cluster["completed"]
hist = cluster["histograms"]
for name in ("service.latency_us", "service.queue_us", "service.batch_us",
             "service.exec_us"):
    assert name in hist, "missing histogram %s" % name
    assert "p99" in hist[name], "missing p99 for %s" % name
merged = hist["service.latency_us"]["count"]
summed = sum(w["latency_count"] for w in top["workers"])
assert merged == summed, "merge %d != per-worker sum %d" % (merged, summed)
print("obs smoke: lph_top cluster totals and percentiles ok")
EOF
grep -q '"timing_violations":0' build/obs_client.log \
    || { echo "obs smoke: server stage sum exceeded client wall"; \
         cat build/obs_client.log; exit 1; }
kill -TERM "$OBS_PID" && wait "$OBS_PID"
python3 scripts/trace_merge.py -o build/obs_merged_trace.json build/obs-traces
python3 scripts/trace_lint.py build/obs_merged_trace.json
python3 scripts/trace_summary.py build/obs_merged_trace.json --json >/dev/null

# Sanitizer passes: AddressSanitizer + UBSan over the whole suite (the `asan`
# preset), then ThreadSanitizer over the concurrency-heavy game/cache suites
# (the `tsan` preset).  Set LPH_SKIP_SANITIZERS=1 for a quick iteration loop.
if [[ "${LPH_SKIP_SANITIZERS:-0}" != "1" ]]; then
    cmake --preset asan
    cmake --build build-asan
    ctest --test-dir build-asan --output-on-failure

    # Differential-oracle smoke: fixed-seed fuzzing of every decision path
    # against the naive reference oracles, plus the planted-bug selftest.
    # Runs under ASan so any divergence comes with a memory-safety check.
    ./build-asan/tools/lph_fuzz --smoke --out build-asan/fuzz-repros

    cmake --preset tsan
    cmake --build build-tsan
    ctest --test-dir build-tsan --output-on-failure \
        -R 'test_(parallel_game|view_cache|game|faults|oracle|obs|service|resilience|lang|admission)'
fi

echo "all checks passed"
