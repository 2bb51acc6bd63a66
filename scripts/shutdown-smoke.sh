#!/usr/bin/env sh
# Shutdown smoke test: boots a real refrint-serve, parks a long sweep on a
# worker, sends SIGTERM and asserts the graceful-drain contract — new
# submissions get 503 with Retry-After, /healthz flips to "closing" (503),
# and the process exits cleanly once -drain-timeout expires.  A second part
# runs the server on a -data-dir and restarts it twice: after SIGTERM the
# store must open from its index and serve the stored sweep by key; after
# kill -9 it must open by scanning its blobs and still serve it.  CI runs
# this next to the SSE and metrics smokes; locally: scripts/shutdown-smoke.sh
set -eu

port="${SHUTDOWN_SMOKE_PORT:-18085}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "shutdown-smoke: FAIL: $1" >&2
    [ -f "$tmp/serve.log" ] && { echo "--- serve.log ---" >&2; cat "$tmp/serve.log" >&2; }
    exit 1
}

# start boots the server with extra flags, logging to $tmp/serve.log.
start() {
    "$tmp/refrint-serve" -addr "127.0.0.1:$port" "$@" >"$tmp/serve.log" 2>&1 &
    pid=$!
    up=""
    for _ in $(seq 1 50); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || fail "server never came up on $base"
}

# stop waits for the server to exit after a signal; it must exit 0.
stop() {
    down=""
    for _ in $(seq 1 100); do
        if ! kill -0 "$pid" 2>/dev/null; then down=1; break; fi
        sleep 0.2
    done
    [ -n "$down" ] || fail "server still alive 20s after SIGTERM"
    wait "$pid" 2>/dev/null && status=0 || status=$?
    pid=""
    [ "$status" -eq 0 ] || fail "server exited with status $status"
}

# sweep submits a small sweep, waits for it to finish and prints its key.
sweep() {
    job=$(curl -sf -X POST "$base/v1/sweeps" -d "$1") || fail "sweep $1 not admitted"
    id=$(printf '%s' "$job" | sed -n 's/^ *"id": *"\([^"]*\)".*/\1/p')
    key=$(printf '%s' "$job" | sed -n 's/^ *"key": *"\([^"]*\)".*/\1/p')
    [ -n "$id" ] && [ -n "$key" ] || fail "no id or key in $job"
    for _ in $(seq 1 150); do
        if curl -sf "$base/v1/sweeps/$id" | grep -q '"state": *"done"'; then
            printf '%s' "$key"
            return
        fi
        sleep 0.2
    done
    fail "sweep $id never finished"
}

# served asserts a stored sweep answers by key with HTTP 200.
served() {
    code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/sweeps/$1/results" || true)
    [ "$code" = "200" ] || fail "stored sweep $1 got HTTP $code after restart, want 200 ($2)"
}

# opened asserts the store-opened log line names how the store was opened.
opened() {
    grep '"store opened"' "$tmp/serve.log" | grep -q "open=$1 " || fail "store not opened by $1 ($2)"
}

go build -o "$tmp/refrint-serve" ./cmd/refrint-serve
start -drain-timeout 3s

# A full-effort sweep occupies a worker far longer than the drain window, so
# the drain below is observable and the incomplete-drain abort path runs.
job=$(curl -sf -X POST "$base/v1/sweeps" -d '{"apps":["FFT"],"effort_scale":1.0}')
printf '%s' "$job" | grep -q '"id"' || fail "long sweep not admitted: $job"

kill -TERM "$pid"
sleep 0.5 # let the drain begin; it holds the server up for ~3s more

code=$(curl -s -o "$tmp/reject.json" -w '%{http_code}' -X POST "$base/v1/sweeps" \
    -d '{"apps":["FFT"],"effort_scale":0.05}' || true)
[ "$code" = "503" ] || fail "draining submission got HTTP $code, want 503"
curl -s -D "$tmp/reject.hdr" -o /dev/null -X POST "$base/v1/sweeps" \
    -d '{"apps":["FFT"],"effort_scale":0.05}' || true
grep -qi '^retry-after:' "$tmp/reject.hdr" || fail "draining 503 carried no Retry-After"

code=$(curl -s -o "$tmp/healthz.json" -w '%{http_code}' "$base/healthz" || true)
[ "$code" = "503" ] || fail "draining healthz got HTTP $code, want 503"
grep -q '"status": *"closing"' "$tmp/healthz.json" || fail "draining healthz not closing"

# The process must exit on its own: drain window (3s) + hard stop, well
# within this budget.
stop
grep -q "draining" "$tmp/serve.log" || fail "no drain log line"

# Restart round trip on a data dir.  A clean shutdown leaves an index the
# next start trusts; a crash after a blob write leaves one it must not.
data="$tmp/data"
start -data-dir "$data"
opened scan "fresh data dir"
first=$(sweep '{"apps":["FFT"],"retention_times_us":[50],"effort_scale":0.05}')
kill -TERM "$pid"
stop

start -data-dir "$data"
opened index "restart after SIGTERM"
served "$first" "restart after SIGTERM"
second=$(sweep '{"apps":["LU"],"retention_times_us":[50],"effort_scale":0.05}')
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

start -data-dir "$data"
opened scan "restart after kill -9"
served "$first" "restart after kill -9"
served "$second" "restart after kill -9"
kill -TERM "$pid"
stop

echo "shutdown-smoke: OK (drained, rejected new work with 503, exited cleanly; store reopened from its index after SIGTERM and by scan after kill -9)"
