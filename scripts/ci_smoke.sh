#!/usr/bin/env bash
# End-to-end smoke test for CI: exercises the CLI pipeline (gen → inspect →
# bench → train → tune), the serving and distributed tiers, and diffs the
# committed snapshots in results/smoke/. Everything runs offline against
# pre-built release binaries; total runtime is a few minutes on one core.
#
# Each fact CI guards is gated once. Here:
#   - §1 the trained checkpoint's bytes (results/smoke/checkpoint.cksum);
#   - §2-§5 the serve, plan, load and distributed tiers, on live processes;
#   - §6 seven experiment binaries' `--smoke` tables (results/smoke/*.txt);
#   - §7 the four README examples run to completion.
# Elsewhere: the correctness harness's suites and check counts are pinned by
# `cargo test` (crates/verify/tests/harness.rs), and CI's verify job gates a
# red `waco-cli verify` by its exit code; the traced tune counters
# (results/smoke/tune_cold_counters.txt) are diffed by CI's test job, which
# runs the `tune_cold` pass they come from.
#
#   cargo build --release --offline   # once
#   scripts/ci_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Every JSON gate below is a python3 assertion, with no fallback.
command -v python3 >/dev/null 2>&1 || {
    echo "ci_smoke.sh needs python3 on PATH" >&2
    exit 1
}

CARGO="${CARGO:-cargo}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run() {
    echo
    echo "--- $* ---"
    "$@"
}

# Build once so each step below is pure execution time.
run "$CARGO" build --release --offline -p waco-cli -p waco-bench
run "$CARGO" build --release --offline --examples

CLI=target/release/waco-cli

# 1. The CLI pipeline on a generated Kronecker matrix.
run "$CLI" gen --family kronecker --size 256 --seed 7 --out "$TMP/g.mtx"
run "$CLI" inspect "$TMP/g.mtx"
run "$CLI" bench --kernel spmm "$TMP/g.mtx"
run "$CLI" train --kernel spmm --matrices 4 --size 32 --epochs 2 \
    --out "$TMP/model.ckpt"
# The checkpoint is one JSON document with its format tag; the tune below
# is the load half of the round trip.
python3 - "$TMP/model.ckpt" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["format"] == "waco-cost-model", doc.get("format")
assert doc["tensors"], "checkpoint holds no tensors"
EOF
# Training does not depend on the pool size (crates/cli/tests/cli.rs holds
# that), so the checkpoint's bytes are a snapshot. A change that means to
# move a weight regenerates it with
# `cksum < model.ckpt > results/smoke/checkpoint.cksum` and says why.
cksum <"$TMP/model.ckpt" | diff -u results/smoke/checkpoint.cksum - || {
    echo "the trained checkpoint no longer matches results/smoke/checkpoint.cksum" >&2
    exit 1
}
echo "checkpoint OK"
mkdir -p results
run "$CLI" tune --kernel spmm --model "$TMP/model.ckpt" \
    --matrices 4 --size 32 --epochs 2 \
    --trace results/trace-smoke.json "$TMP/g.mtx"

# The structured trace must exist, parse as JSON, and carry the
# feature-extraction vs ANNS breakdown that fig16b consumes.
TRACE=results/trace-smoke.json
test -s "$TRACE"
python3 - "$TRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["trace"] == "waco-obs", doc.get("trace")
paths = [s["path"] for s in doc["spans"]]
for name in ["feature_extraction", "anns_traversal", "tune/measure"]:
    assert any(p == name or p.endswith("/" + name) for p in paths), \
        f"trace has no {name} span: {paths}"
EOF
echo "trace OK: $TRACE"

# 2. The serving layer: start the auto-tuning server on an ephemeral
#    loopback port, tune the same matrix twice (second answer must come
#    from the cache), then restart from the journal and confirm the
#    decision survived — all without re-tuning.
SERVE_CACHE="$TMP/serve-cache"
SERVE_TRACE=results/trace-serve.json
SERVE_OUT="$TMP/serve.out"
SERVE_PID=

start_server() {
    # Created here, not by the child's redirect, so the first `sed` below
    # cannot run before the file exists (a failed substitution ends the
    # script under `set -e`).
    : >"$SERVE_OUT"
    "$CLI" serve --addr 127.0.0.1:0 --cache "$SERVE_CACHE" \
        --trace "$SERVE_TRACE" >"$SERVE_OUT" 2>"$TMP/serve.err" &
    SERVE_PID=$!
    ADDR=
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^listening on //p' "$SERVE_OUT")"
        [ -n "$ADDR" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || {
            echo "server died on startup:" >&2
            cat "$TMP/serve.err" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "server never reported its address" >&2; exit 1; }
    echo "server up at $ADDR (pid $SERVE_PID)"
}

stop_server() {
    run "$CLI" query --addr "$ADDR" --op shutdown
    wait "$SERVE_PID"
}

echo
echo "--- serve: cold tune, then cache hit ---"
start_server
run "$CLI" query --addr "$ADDR" --kernel spmv "$TMP/g.mtx" | tee "$TMP/q1.out"
grep -q "^computed SpMV decision" "$TMP/q1.out"
run "$CLI" query --addr "$ADDR" --kernel spmv "$TMP/g.mtx" | tee "$TMP/q2.out"
grep -q "^cached SpMV decision" "$TMP/q2.out"
run "$CLI" query --addr "$ADDR" --op stats | tee "$TMP/stats1.out"
# One cold tune is one miss, one repeat is one hit (the `cache` object's keys
# are sorted; `plan_cache` has a `"misses"` of its own).
grep -q '"hits":1,"inserts":1,"misses":1,' "$TMP/stats1.out"

# A size line is a claim: a request whose matrix states a trillion rows, or
# more entries than the frame has bytes, gets an ordinary `ok:false` reply
# and the server is still there for the next request.
echo
echo "--- serve: hostile size lines are refused, the server keeps serving ---"
printf '%%%%MatrixMarket matrix coordinate real general\n1000000000000 4 1\n1 1 1.0\n' \
    >"$TMP/hostile.mtx"
if "$CLI" query --addr "$ADDR" --kernel spmv "$TMP/hostile.mtx" \
    >"$TMP/hostile.out" 2>&1; then
    echo "a 1000000000000x4 matrix was accepted over the wire" >&2
    exit 1
fi
cat "$TMP/hostile.out"
grep -q "the wire accepts at most" "$TMP/hostile.out"
python3 - "$ADDR" <<'PY'
import json, socket, struct, sys

host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=30)

def read_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "server hung up"
        buf += chunk
    return buf

def roundtrip(body):
    raw = json.dumps(body).encode()
    s.sendall(struct.pack(">I", len(raw)) + raw)
    (n,) = struct.unpack(">I", read_exact(4))
    return json.loads(read_exact(n))

for size_line in ["4 4 1152921504606846976", "4 4 100000000000", "1000000000000 4 1"]:
    matrix = f"%%MatrixMarket matrix coordinate real general\n{size_line}\n1 1 1.0\n"
    reply = roundtrip({"op": "tune", "kernel": "spmv", "dense": 0, "matrix": matrix})
    assert reply["ok"] is False and reply["error"], (size_line, reply)
    stats = roundtrip({"op": "stats"})
    assert stats["ok"] is True, (size_line, stats)
    print(f"refused `{size_line}`: {reply['error']}")
PY
run "$CLI" query --addr "$ADDR" --op stats >/dev/null
stop_server

echo
echo "--- serve: restart answers lookup from the journal ---"
start_server
run "$CLI" query --addr "$ADDR" --op lookup --kernel spmv "$TMP/g.mtx" \
    | tee "$TMP/q3.out"
grep -q "^cached SpMV decision" "$TMP/q3.out"
run "$CLI" query --addr "$ADDR" --op stats | tee "$TMP/stats2.out"
grep -q '"replayed":1' "$TMP/stats2.out"
stop_server
# The journal is all the server persists: ANNS indices live in memory only.
[ "$(ls -A "$SERVE_CACHE")" = "tuning.journal" ] || {
    echo "serve cache holds more than the journal:" >&2
    ls -A "$SERVE_CACHE" >&2
    exit 1
}

# The server's own structured trace is a CI artifact: it must exist, parse,
# and carry the request/cache instrumentation.
test -s "$SERVE_TRACE"
python3 -m json.tool "$SERVE_TRACE" >/dev/null
for needle in serve.requests serve.cache.hits serve.request_seconds; do
    grep -qF "$needle" "$SERVE_TRACE" || {
        echo "server trace is missing $needle" >&2
        exit 1
    }
done
echo "server trace OK: $SERVE_TRACE"

# 3. The lowering layer: dump a plan as text and JSON, and make sure the
#    default CSR schedules still lower to the specialized kernel tier (a
#    dense-8 SpMM is claimed by the register-tiled variant).
run "$CLI" plan --kernel spmv "$TMP/g.mtx" | tee "$TMP/plan.out"
grep -q "ExecutionPlan SpMV" "$TMP/plan.out"
run "$CLI" plan --kernel spmm --dense 8 --format json "$TMP/g.mtx"
# Capture the JSON alone (run's header lines would corrupt the document).
"$CLI" plan --kernel spmm --dense 8 --format json "$TMP/g.mtx" >"$TMP/plan.json"
python3 -m json.tool "$TMP/plan.json" >/dev/null
grep -qF '"fast_path":"reg_block_spmm"' "$TMP/plan.json" || {
    echo "default CSR SpMM schedule no longer lowers to the register-tiled fast path" >&2
    exit 1
}
grep -qF '"fast_path_reason":' "$TMP/plan.json" || {
    echo "plan JSON no longer reports the fast-path reason" >&2
    exit 1
}
echo "plan dump OK"

# 4. The load generator against a fresh server: the coalesce probe must
#    collapse concurrent same-fingerprint tunes into one tuner call, the
#    open-loop main run must complete without errors, and client-measured
#    p99 must stay under the ceiling (LOADGEN_P99_MS, default 500).
echo
echo "--- serve: loadgen smoke (coalescing + latency) ---"
SERVE_CACHE="$TMP/loadgen-cache"
SERVE_TRACE="$TMP/trace-loadgen.json"
start_server
run "$CLI" loadgen --addr "$ADDR" --smoke --out results/loadgen.json
"$CLI" query --addr "$ADDR" --op stats >"$TMP/loadgen-stats.out"
stop_server
test -s results/loadgen.json
python3 - results/loadgen.json <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
probe = r["coalesce_probe"]
lat = r["latency"]
assert probe["coalesced"] >= 1, f"no coalescing observed: {probe}"
assert probe["tune_calls"] <= probe["connections"] - probe["coalesced"], \
    f"coalescing saved nothing: {probe}"
assert probe["identical_responses"], "coalesced responses diverged"
assert lat["count"] > 0 and lat["errors"] == 0, lat
ceiling = float(os.environ.get("LOADGEN_P99_MS", "500"))
assert lat["p99_ms"] <= ceiling, \
    f"p99 {lat['p99_ms']:.2f}ms over the {ceiling}ms ceiling"
print(f"loadgen OK: coalesced={probe['coalesced']} "
      f"p50={lat['p50_ms']:.2f}ms p99={lat['p99_ms']:.2f}ms")
EOF
# The load generator repeats byte-identical requests, so the request memo
# must have answered some of them, inside its byte budget.
memo_check() {
    # $1: a captured `query --op stats` reply (its last line; `run` heads
    # it with the command); $2: the tier, for messages.
    python3 - "$1" "$2" <<'EOF'
import json, sys
memo = json.loads(open(sys.argv[1]).read().splitlines()[-1])["memo"]
assert memo["hits"] > 0, f"{sys.argv[2]}: the request memo answered nothing: {memo}"
assert memo["bytes"] <= memo["budget"], f"{sys.argv[2]}: memo over its budget: {memo}"
print(f"{sys.argv[2]} memo OK: hits={memo['hits']} entries={memo['entries']} "
      f"bytes={memo['bytes']}")
EOF
}
memo_check "$TMP/loadgen-stats.out" server
# The tuning cache holds at most its capacity, an exact entry count (the
# router's stats frame has no `cache` section).
python3 - "$TMP/loadgen-stats.out" <<'EOF'
import json, sys
cache = json.loads(open(sys.argv[1]).read().splitlines()[-1])["cache"]
assert cache["resident"] <= cache["capacity"], f"cache over its capacity: {cache}"
print(f"server cache OK: resident={cache['resident']} capacity={cache['capacity']}")
EOF

# 5. The distributed tier: a fingerprint-sharded router over two shard
#    processes. Load runs through the router; one shard is SIGKILLed
#    mid-run. Degraded, never wrong: the client must see zero error frames
#    and the router must account at least one failover in its stats.
echo
echo "--- route: 2 shards, kill one mid-run ---"
start_shard() {
    # $1: slot name (cache dir + log suffix). Echoes nothing; sets
    # SHARD_ADDR / SHARD_PID. The log is created first, as in start_server.
    : >"$TMP/shard-$1.out"
    "$CLI" serve --addr 127.0.0.1:0 --cache "$TMP/shard-$1-cache" \
        >"$TMP/shard-$1.out" 2>"$TMP/shard-$1.err" &
    SHARD_PID=$!
    SHARD_ADDR=
    for _ in $(seq 1 100); do
        SHARD_ADDR="$(sed -n 's/^listening on //p' "$TMP/shard-$1.out")"
        [ -n "$SHARD_ADDR" ] && break
        kill -0 "$SHARD_PID" 2>/dev/null || {
            echo "shard $1 died on startup:" >&2
            cat "$TMP/shard-$1.err" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$SHARD_ADDR" ] || { echo "shard $1 never reported its address" >&2; exit 1; }
    echo "shard $1 up at $SHARD_ADDR (pid $SHARD_PID)"
}

start_shard a; SHARD_A_ADDR=$SHARD_ADDR; SHARD_A_PID=$SHARD_PID
start_shard b; SHARD_B_ADDR=$SHARD_ADDR; SHARD_B_PID=$SHARD_PID
: >"$TMP/router.out"
"$CLI" route --addr 127.0.0.1:0 --shards "$SHARD_A_ADDR,$SHARD_B_ADDR" \
    >"$TMP/router.out" 2>"$TMP/router.err" &
ROUTER_PID=$!
ROUTER_ADDR=
for _ in $(seq 1 100); do
    ROUTER_ADDR="$(sed -n 's/^listening on //p' "$TMP/router.out")"
    [ -n "$ROUTER_ADDR" ] && break
    kill -0 "$ROUTER_PID" 2>/dev/null || {
        echo "router died on startup:" >&2
        cat "$TMP/router.err" >&2
        exit 1
    }
    sleep 0.1
done
[ -n "$ROUTER_ADDR" ] || { echo "router never reported its address" >&2; exit 1; }
echo "router up at $ROUTER_ADDR (pid $ROUTER_PID)"

# Open-loop load through the router; long enough that the kill below lands
# mid-run with traffic still arriving on the dead shard's keys.
"$CLI" loadgen --addr "$ROUTER_ADDR" --smoke --duration 4 --fingerprints 12 \
    --out results/loadgen_routed.json \
    >"$TMP/loadgen-routed.out" 2>&1 &
LOADGEN_PID=$!
sleep 1.5
echo "killing shard b (pid $SHARD_B_PID) mid-run"
kill -9 "$SHARD_B_PID"
wait "$SHARD_B_PID" 2>/dev/null || true
wait "$LOADGEN_PID" || {
    echo "routed loadgen failed:" >&2
    cat "$TMP/loadgen-routed.out" >&2
    exit 1
}
cat "$TMP/loadgen-routed.out"
run "$CLI" query --addr "$ROUTER_ADDR" --op stats | tee "$TMP/router-stats.out"
grep -q '"failover":' "$TMP/router-stats.out"
python3 - results/loadgen_routed.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
lat = r["latency"]
assert lat["count"] > 0 and lat["errors"] == 0, \
    f"routed run saw error frames: {lat}"
router = r["router"]
assert r["config"]["shards"] == 2, f"topology not read from the router: {r['config']}"
assert router["failover"] >= 1, f"no failover recorded: {router}"
assert router["shard_down"] >= 1, f"dead shard not recorded: {router}"
print(f"routed loadgen OK: {lat['count']} responses, 0 errors, "
      f"failover={router['failover']} shard_down={router['shard_down']}")
EOF
memo_check "$TMP/router-stats.out" router
run "$CLI" query --addr "$ROUTER_ADDR" --op shutdown
wait "$ROUTER_PID"
run "$CLI" query --addr "$SHARD_A_ADDR" --op shutdown
wait "$SHARD_A_PID"

# 6. Reproduction gate: every experiment whose smoke output is deterministic
#    must print exactly its committed snapshot in results/smoke/ (each takes
#    well under 2 s). fig16a is left out: it prints wall times. A change that
#    means to move a table regenerates the snapshot with
#    `target/release/BIN --smoke > results/smoke/BIN.txt` and says why.
for bin in table1 table2 table4 table7 table8 fig13 ablation; do
    echo
    echo "--- $bin --smoke vs results/smoke/$bin.txt ---"
    target/release/"$bin" --smoke >"$TMP/$bin.txt"
    diff -u "results/smoke/$bin.txt" "$TMP/$bin.txt" || {
        echo "$bin --smoke no longer prints results/smoke/$bin.txt" >&2
        exit 1
    }
done

# 7. The examples README advertises call the library's public entry points;
#    each must run to completion. The exit code is the gate (the output is
#    not snapshotted); the time each took is printed.
for example in quickstart pagerank gnn_spmm format_explorer; do
    echo
    echo "--- example $example ---"
    start=$(date +%s.%N)
    target/release/examples/"$example" >"$TMP/$example.txt" || {
        cat "$TMP/$example.txt"
        echo "example $example failed" >&2
        exit 1
    }
    python3 -c "print(f'example $example OK in {$(date +%s.%N) - $start:.2f} s')"
done

echo
echo "smoke test passed"
