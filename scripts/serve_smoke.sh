#!/usr/bin/env bash
# End-to-end smoke test of the simulation job server: run a tiny
# simulation with proteus-sim into a fresh result store, start
# proteus-served with a small queue on that store, submit the same
# simulation over HTTP and assert it is answered from the store (the CLI
# and HTTP name the same tuple), assert that an identical resubmission is
# answered from the cache (no new simulation), scrape /metrics, then
# SIGTERM the server and assert it drains and exits 0. Before the first
# job it posts a sim spec whose LPQ cannot be allocated and a campaign
# spec whose builds cannot finish, and asserts a 400 for each with the
# server still healthy.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"; kill "$SERVER_PID" 2>/dev/null || true' EXIT

SPEC='{"type":"sim","bench":"QE","scheme":"Proteus","threads":1,"simops":16,"initops":64}'

say() { echo "serve_smoke: $*" >&2; }

go build -o "$WORK/proteus-served" ./cmd/proteus-served
go build -o "$WORK/proteus-sim" ./cmd/proteus-sim
say "built proteus-served and proteus-sim"

# The CLI run of the spec below stores its result before the server starts.
"$WORK/proteus-sim" -store "$WORK/store" -bench QE -scheme Proteus -threads 1 -simops 16 -initops 64 >"$WORK/sim.log"
say "proteus-sim stored its result"

"$WORK/proteus-served" -addr "$ADDR" -store "$WORK/store" -queue 4 -workers 1 \
    -drain-timeout 30s 2>"$WORK/server.log" &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        say "server died during startup:"; cat "$WORK/server.log" >&2; exit 1
    fi
    sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null || { say "server never became healthy"; exit 1; }
say "server healthy on $ADDR"

# A machine Validate refuses (an LPQ of 2^31-1 entries, ~200 GB) and a
# campaign whose workload builds would outlive every timeout (10^9
# initialization operations per thread) are each a 400 at admission:
# neither is queued, so no worker allocates or builds it.
for OVERSIZED in '{"type":"sim","lpq":2147483647}' '{"type":"campaign","initops":1000000000}'; do
    CODE=$(curl -sS -o "$WORK/oversized.json" -w '%{http_code}' -XPOST "$BASE/v1/jobs" -d "$OVERSIZED")
    [ "$CODE" = 400 ] || { say "$OVERSIZED answered $CODE, want 400: $(cat "$WORK/oversized.json")"; exit 1; }
    HEALTH=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/healthz")
    [ "$HEALTH" = 200 ] || { say "healthz answered $HEALTH after $OVERSIZED, want 200"; exit 1; }
    say "$OVERSIZED refused with 400; healthz still 200"
done

# Submit asynchronously and poll to completion.
SUBMIT=$(curl -fsS -XPOST "$BASE/v1/jobs" -d "$SPEC")
ID=$(echo "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { say "no job id in response: $SUBMIT"; exit 1; }
say "submitted $ID"

STATE=""
for i in $(seq 1 150); do
    STATUS=$(curl -fsS "$BASE/v1/jobs/$ID")
    STATE=$(echo "$STATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$STATE" in
        done) break ;;
        failed|cancelled) say "job $ID ended $STATE: $STATUS"; exit 1 ;;
    esac
    sleep 0.2
done
[ "$STATE" = "done" ] || { say "job $ID stuck in state '$STATE'"; exit 1; }
say "job $ID done"

metric() { curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m {print $2}'; }

# The HTTP submission names the tuple proteus-sim ran: a store hit.
STORE_HITS=$(metric proteus_engine_store_hits_total)
SIMULATED_BEFORE=$(metric proteus_engine_simulated_total)
if [ "$STORE_HITS" != 1 ] || [ "$SIMULATED_BEFORE" != 0 ]; then
    say "HTTP job was not the CLI's tuple: store_hits_total $STORE_HITS, simulated_total $SIMULATED_BEFORE (want 1, 0)"
    exit 1
fi
say "HTTP job was answered from proteus-sim's store entry"

# An identical synchronous resubmission must be answered from the cache:
# the result store (or memo table) serves it, nothing new is simulated.
RESULT2=$(curl -fsS -XPOST "$BASE/v1/jobs?wait=1" -d "$SPEC")
echo "$RESULT2" | grep -q '"state":"done"' || { say "resubmission not done: $RESULT2"; exit 1; }
SIMULATED_AFTER=$(metric proteus_engine_simulated_total)
if [ "$SIMULATED_AFTER" != "$SIMULATED_BEFORE" ]; then
    say "resubmission re-simulated: simulated_total $SIMULATED_BEFORE -> $SIMULATED_AFTER"
    exit 1
fi
say "resubmission was a cache hit (simulated_total stayed $SIMULATED_AFTER)"

# The exposition must cover all three layers.
METRICS=$(curl -fsS "$BASE/metrics")
for m in proteus_serve_requests_total proteus_serve_queue_depth \
         proteus_serve_request_duration_seconds_bucket \
         proteus_engine_simulated_total proteus_engine_store_hits_total \
         proteus_store_writes_total; do
    echo "$METRICS" | grep -q "^$m" || { say "metric $m missing"; exit 1; }
done
say "/metrics exposes serve, engine and store layers"

# Graceful drain: SIGTERM must lead to a clean exit 0.
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
if [ "$EXIT" != 0 ]; then
    say "server exited $EXIT after SIGTERM:"; cat "$WORK/server.log" >&2; exit 1
fi
say "SIGTERM drained cleanly (exit 0)"

# The store survives the server: entries are on disk.
ENTRIES=$(find "$WORK/store" -name '*.json' | wc -l)
[ "$ENTRIES" -ge 1 ] || { say "result store is empty after shutdown"; exit 1; }
say "result store holds $ENTRIES entr$( [ "$ENTRIES" = 1 ] && echo y || echo ies) — PASS"
