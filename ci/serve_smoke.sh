#!/usr/bin/env sh
# End-to-end smoke test for the job service (`experiments serve` /
# `experiments submit`):
#
#   1. start the service on an ephemeral port,
#   2. submit the same sweep twice — the second pass must be answered
#      >=90% from the verified result cache,
#   3. SIGTERM the service mid-batch, restart it, and require the
#      journal replay to finish the interrupted remainder,
#   4. drain the restarted service with `POST /shutdown`.
#
# Both drains must end the process within 30 s, so a drain that never
# wakes the accept loop fails the script instead of hanging it.
#
# Every submit pass also byte-compares served results against direct
# in-process runs (that check lives in the `submit` subcommand itself).
set -eu

cd "$(dirname "$0")/.."

BIN=target/release/experiments
KERNELS=saxpy,fft,dct
SCALE=4000

STATE=$(mktemp -d)
OUT=$(mktemp -d)
LOG="$STATE/serve.log"
SERVE_PID=""

fail() {
    echo "FAIL: $1" >&2
    [ -s "$LOG" ] && { echo "--- serve log ---" >&2; cat "$LOG" >&2; }
    exit 1
}

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$STATE" "$OUT"
}
trap cleanup EXIT INT TERM

cargo build --release --bin experiments

start_serve() {
    "$BIN" serve --port 0 --data-dir "$STATE/service" --workers 2 \
        >"$LOG" 2>&1 &
    SERVE_PID=$!
    # The service prints its ephemeral port on startup; wait for it.
    PORT=""
    i=0
    while [ $i -lt 100 ]; do
        PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
            "$LOG" | head -n 1)
        [ -n "$PORT" ] && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || fail "service exited at startup"
        i=$((i + 1))
        sleep 0.1
    done
    fail "service never reported its port"
}

stats() {
    curl -sf "http://127.0.0.1:$PORT/stats"
}

# Waits up to 30 s for the service to exit after the drain named in $1.
wait_exit() {
    i=0
    while kill -0 "$SERVE_PID" 2>/dev/null; do
        [ $i -lt 300 ] || fail "service still running 30 s after $1"
        i=$((i + 1))
        sleep 0.1
    done
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

# --- 1. cold pass: everything computed --------------------------------
start_serve
"$BIN" submit --port "$PORT" --kernels "$KERNELS" --scale "$SCALE" \
    --out "$OUT/pass1" || fail "first submit pass"

# --- 2. warm pass: >=90% served from the verified cache ----------------
"$BIN" submit --port "$PORT" --kernels "$KERNELS" --scale "$SCALE" \
    --out "$OUT/pass2" || fail "second submit pass"
total=$(grep -c '"cached":' "$OUT/pass2/submit.json")
hits=$(grep -c '"cached": true' "$OUT/pass2/submit.json" || true)
[ "$total" -gt 0 ] || fail "no rows in second-pass summary"
[ $((hits * 100)) -ge $((total * 90)) ] || \
    fail "second pass hit cache on $hits of $total jobs (<90%)"
echo "smoke: warm pass served $hits/$total jobs from cache"

# --- 3. SIGTERM mid-batch; replay finishes the remainder ---------------
# A big slow batch keeps the queue occupied while the signal lands.
"$BIN" submit --port "$PORT" --scale 60000 --out "$OUT/pass3" \
    >"$OUT/bg-submit.log" 2>&1 &
SUBMIT_PID=$!
sleep 1
kill -TERM "$SERVE_PID"
wait_exit "SIGTERM"
wait "$SUBMIT_PID" 2>/dev/null || true  # client fails once the listener dies

start_serve
recovered=$(sed -n 's/.*recovered \([0-9][0-9]*\) journaled job(s).*/\1/p' \
    "$LOG" | head -n 1)
[ -n "$recovered" ] || fail "restart did not report journal recovery"
[ "$recovered" -gt 0 ] || fail "no jobs recovered from the journal"
echo "smoke: restart replayed $recovered journaled job(s)"

# The replayed remainder must drain to zero pending work.
i=0
while :; do
    pending=$(stats | python3 -c \
        'import json,sys; j=json.load(sys.stdin)["jobs"]; print(j["queued"]+j["running"])' \
        2>/dev/null || echo "")
    [ "$pending" = "0" ] && break
    i=$((i + 1))
    [ $i -lt 600 ] || fail "replayed jobs never drained"
    sleep 0.5
done
echo "smoke: replayed remainder drained"

# --- 4. drain the restarted service over the API ------------------------
curl -sf -X POST "http://127.0.0.1:$PORT/shutdown" >/dev/null || fail "POST /shutdown"
wait_exit "POST /shutdown"
echo "smoke: service drained and exited"
