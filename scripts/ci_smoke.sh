#!/usr/bin/env bash
# End-to-end smoke test for CI: exercises the CLI pipeline (gen → inspect →
# bench → train → tune), the serving and distributed tiers, and diffs seven
# experiment binaries' `--smoke` output against results/smoke/. Everything
# runs offline against pre-built release binaries; total runtime is a few
# minutes on one core.
#
#   cargo build --release --offline   # once
#   scripts/ci_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

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

CLI=target/release/waco-cli

# 1. The CLI pipeline on a generated Kronecker matrix.
run "$CLI" gen --family kronecker --size 256 --seed 7 --out "$TMP/g.mtx"
run "$CLI" inspect "$TMP/g.mtx"
run "$CLI" bench --kernel spmm "$TMP/g.mtx"
run "$CLI" train --kernel spmm --matrices 4 --size 32 --epochs 2 \
    --out "$TMP/model.ckpt"
# The checkpoint is one JSON document with its format tag; the tune below
# is the load half of the round trip.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$TMP/model.ckpt" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["format"] == "waco-cost-model", doc.get("format")
assert doc["tensors"], "checkpoint holds no tensors"
EOF
else
    grep -qF '{"format":"waco-cost-model","tensors":[' "$TMP/model.ckpt" || {
        echo "checkpoint is not a waco-cost-model document" >&2
        exit 1
    }
fi
echo "checkpoint OK"
mkdir -p results
run "$CLI" tune --kernel spmm --model "$TMP/model.ckpt" \
    --matrices 4 --size 32 --epochs 2 \
    --trace results/trace-smoke.json "$TMP/g.mtx"

# The structured trace must exist, parse as JSON, and carry the
# feature-extraction vs ANNS breakdown that fig16b consumes.
TRACE=results/trace-smoke.json
test -s "$TRACE"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$TRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["trace"] == "waco-obs", doc.get("trace")
paths = [s["path"] for s in doc["spans"]]
for name in ["feature_extraction", "anns_traversal", "tune/measure"]:
    assert any(p == name or p.endswith("/" + name) for p in paths), \
        f"trace has no {name} span: {paths}"
EOF
else
    for needle in '"trace":"waco-obs"' feature_extraction anns_traversal tune/measure; do
        grep -qF "$needle" "$TRACE" || {
            echo "trace is missing $needle" >&2
            exit 1
        }
    done
fi
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
if command -v python3 >/dev/null 2>&1; then
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
fi
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
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$SERVE_TRACE" >/dev/null
fi
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
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$TMP/plan.json" >/dev/null
fi
grep -qF '"fast_path":"reg_block_spmm"' "$TMP/plan.json" || {
    echo "default CSR SpMM schedule no longer lowers to the register-tiled fast path" >&2
    exit 1
}
grep -qF '"fast_path_reason":' "$TMP/plan.json" || {
    echo "plan JSON no longer reports the fast-path reason" >&2
    exit 1
}
echo "plan dump OK"

# 4. The correctness harness: differential + plan-equivalence + metamorphic
#    suites against the dense oracles plus serve-layer fault injection. The
#    differential fuzzer runs through plan execution; plan_equivalence holds
#    the plan walker and the reference interpreter to bit identity. The seed
#    is pinned so a red run is replayable verbatim; WACO_VERIFY_BUDGET=nightly
#    scales the same sweep up for scheduled runs.
VERIFY_REPORT=results/verify_report.json
run "$CLI" verify --seed 42 --budget "${WACO_VERIFY_BUDGET:-smoke}" \
    --out "$VERIFY_REPORT"
test -s "$VERIFY_REPORT"
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$VERIFY_REPORT" >/dev/null
fi
grep -qF '"passed":true' "$VERIFY_REPORT" || {
    echo "verify report does not say passed" >&2
    exit 1
}
grep -qF '"name":"plan_equivalence"' "$VERIFY_REPORT" || {
    echo "verify report is missing the plan_equivalence suite" >&2
    exit 1
}
grep -qF '"name":"spgemm_oracle"' "$VERIFY_REPORT" || {
    echo "verify report is missing the spgemm_oracle suite" >&2
    exit 1
}
grep -qF '"name":"fusion_equivalence"' "$VERIFY_REPORT" || {
    echo "verify report is missing the fusion_equivalence suite" >&2
    exit 1
}
grep -qF '"name":"distributed"' "$VERIFY_REPORT" || {
    echo "verify report is missing the distributed drill suite" >&2
    exit 1
}
grep -qF '"name":"search_pruning"' "$VERIFY_REPORT" || {
    echo "verify report is missing the search_pruning suite" >&2
    exit 1
}
echo "verify report OK: $VERIFY_REPORT"

# 5. The load generator against a fresh server: the coalesce probe must
#    collapse concurrent same-fingerprint tunes into one tuner call, the
#    open-loop main run must complete without errors, and client-measured
#    p99 must stay under the ceiling (LOADGEN_P99_MS, default 500).
echo
echo "--- serve: loadgen smoke (coalescing + latency) ---"
SERVE_CACHE="$TMP/loadgen-cache"
SERVE_TRACE="$TMP/trace-loadgen.json"
start_server
run "$CLI" loadgen --addr "$ADDR" --smoke --out results/loadgen.json
stop_server
test -s results/loadgen.json
if command -v python3 >/dev/null 2>&1; then
    python3 - results/loadgen.json <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
probe = r["coalesce_probe"]
lat = r["latency"]
assert probe["coalesced"] >= 1, f"no coalescing observed: {probe}"
assert probe["identical_responses"], "coalesced responses diverged"
assert lat["count"] > 0 and lat["errors"] == 0, lat
ceiling = float(os.environ.get("LOADGEN_P99_MS", "500"))
assert lat["p99_ms"] <= ceiling, \
    f"p99 {lat['p99_ms']:.2f}ms over the {ceiling}ms ceiling"
print(f"loadgen OK: coalesced={probe['coalesced']} "
      f"p50={lat['p50_ms']:.2f}ms p99={lat['p99_ms']:.2f}ms")
EOF
else
    grep -q '"coalesced":' results/loadgen.json
    echo "loadgen OK (python3 unavailable, JSON gates skipped)"
fi

# 6. The distributed tier: a fingerprint-sharded router over two shard
#    processes. Load runs through the router; one shard is SIGKILLed
#    mid-run. Degraded, never wrong: the client must see zero error frames
#    and the router must account at least one failover in its stats.
echo
echo "--- route: 2 shards, kill one mid-run ---"
start_shard() {
    # $1: slot name (cache dir + log suffix). Echoes nothing; sets
    # SHARD_ADDR / SHARD_PID.
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
    --shards 2 --out results/loadgen_routed.json \
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
if command -v python3 >/dev/null 2>&1; then
    python3 - results/loadgen_routed.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
lat = r["latency"]
assert lat["count"] > 0 and lat["errors"] == 0, \
    f"routed run saw error frames: {lat}"
router = r["router"]
assert router["failover"] >= 1, f"no failover recorded: {router}"
assert router["shard_down"] >= 1, f"dead shard not recorded: {router}"
print(f"routed loadgen OK: {lat['count']} responses, 0 errors, "
      f"failover={router['failover']} shard_down={router['shard_down']}")
EOF
else
    grep -q '"errors":0' results/loadgen_routed.json
    echo "routed loadgen OK (python3 unavailable, failover gate skipped)"
fi
run "$CLI" query --addr "$ROUTER_ADDR" --op shutdown
wait "$ROUTER_PID"
run "$CLI" query --addr "$SHARD_A_ADDR" --op shutdown
wait "$SHARD_A_PID"

# 7. Reproduction gate: every experiment whose smoke output is deterministic
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

echo
echo "smoke test passed"
