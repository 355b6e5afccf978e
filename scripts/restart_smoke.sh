#!/usr/bin/env bash
# Restart-durability smoke test: a run computed by one spasmd process
# must be served by the next process from the durable store — answered
# "cached": true, byte-identical, and without re-simulating.  This is
# the black-box twin of TestStoreWarmRestart, exercising the real
# binary, real signals, and a real on-disk store.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
STORE="$WORK/store"
ADDR=127.0.0.1:8399
BASE="http://$ADDR"
SPEC='{"app":"uniform","scale":"tiny","machine":"logp","topology":"torus","p":256}'
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

jsonfield() { # jsonfield FIELD < doc : prints doc[FIELD] (scalars raw, objects canonical)
    python3 -c '
import json, sys
v = json.load(sys.stdin).get(sys.argv[1])
print(json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v)
' "$1"
}

start() {
    ./spasmd.smoke -addr "$ADDR" -store "$STORE" &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "FAIL: spasmd never became healthy" >&2
    exit 1
}

stop() { # graceful: SIGTERM drains accepted work and flushes the store
    kill -TERM "$PID"
    wait "$PID" 2>/dev/null || true
    PID=""
}

go build -o spasmd.smoke ./cmd/spasmd
trap 'cleanup; rm -f spasmd.smoke' EXIT

echo "== first process: compute the run"
start
ID=$(curl -fsS -X POST "$BASE/v1/runs" -d "$SPEC" | jsonfield id)
for _ in $(seq 1 300); do
    STATE=$(curl -fsS "$BASE/v1/runs/$ID" | jsonfield state)
    [ "$STATE" = done ] && break
    [ "$STATE" = failed ] && { echo "FAIL: run failed" >&2; exit 1; }
    sleep 0.1
done
[ "$STATE" = done ] || { echo "FAIL: run never completed (state=$STATE)" >&2; exit 1; }
curl -fsS "$BASE/v1/runs/$ID" | jsonfield result > "$WORK/first.result"
stop

echo "== second process: same store, fresh memory"
start
curl -fsS -X POST "$BASE/v1/runs" -d "$SPEC" > "$WORK/second.json"

CACHED=$(jsonfield cached < "$WORK/second.json")
STATE=$(jsonfield state < "$WORK/second.json")
if [ "$CACHED" != True ] || [ "$STATE" != done ]; then
    echo "FAIL: restarted submit not served from the store (state=$STATE cached=$CACHED)" >&2
    exit 1
fi
jsonfield result < "$WORK/second.json" > "$WORK/second.result"
cmp "$WORK/first.result" "$WORK/second.result" || {
    echo "FAIL: result differs across restart" >&2
    exit 1
}

METRICS=$(curl -fsS "$BASE/metrics")
SUBMITTED=$(printf '%s\n' "$METRICS" | awk '$1 == "spasmd_jobs_submitted_total" {print $2}')
STORE_HITS=$(printf '%s\n' "$METRICS" | awk '$1 == "spasmd_store_hits_total" {print $2}')
if [ "$SUBMITTED" != 0 ]; then
    echo "FAIL: restarted process re-simulated (jobs_submitted_total=$SUBMITTED)" >&2
    exit 1
fi
if [ "${STORE_HITS:-0}" -lt 1 ]; then
    echo "FAIL: no store hit recorded (store_hits=$STORE_HITS)" >&2
    exit 1
fi
stop

echo "OK: restart served the run cached, byte-identical, without re-simulation"
