#!/bin/sh
# mipsd_smoke.sh — end-to-end smoke test for the simulation job daemon.
# Starts mipsd, submits a job over HTTP, polls it to completion, downloads
# its snapshot (twice: a finished job serves the same bytes each time),
# resubmits the snapshot as a new job, and checks that both jobs produced
# identical output. Exercises the same loop as the Go HTTP tests, but
# against the real binary over a real socket.
set -eu
cd "$(dirname "$0")/.."

ADDR="${MIPSD_ADDR:-127.0.0.1:9473}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
MIPSD_PID=""

cleanup() {
    status=$?
    if [ -n "$MIPSD_PID" ]; then
        # SIGTERM triggers the graceful drain path.
        kill "$MIPSD_PID" 2>/dev/null || true
        wait "$MIPSD_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
    exit "$status"
}
trap cleanup EXIT INT TERM

# Pull a string field out of a one-object JSON response. The daemon's
# encoder never escapes quotes inside these fields, so this is safe.
field() { # field <name> <file>
    sed -n "s/.*\"$1\": *\"\\([^\"]*\\)\".*/\\1/p" "$2" | head -1
}

echo "==> build mipsd"
go build -o "$TMP/mipsd" ./cmd/mipsd

echo "==> start mipsd on $ADDR"
"$TMP/mipsd" -addr "$ADDR" -quantum 5000 &
MIPSD_PID=$!

for i in $(seq 1 100); do
    if curl -fsS "$BASE/v1/jobs" >/dev/null 2>&1; then
        break
    fi
    if [ "$i" -eq 100 ]; then
        echo "mipsd never came up on $ADDR" >&2
        exit 1
    fi
    sleep 0.1
done

wait_done() { # wait_done <id> -> prints final state
    id=$1
    for i in $(seq 1 600); do
        curl -fsS "$BASE/v1/jobs/$id" >"$TMP/status.json"
        state=$(field state "$TMP/status.json")
        case "$state" in
        done | failed | cancelled)
            echo "$state"
            return 0
            ;;
        esac
        sleep 0.1
    done
    echo "timeout"
    return 0
}

echo "==> unversioned /jobs is gone"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/jobs")
[ "$CODE" = "404" ] || { echo "GET /jobs returned $CODE, want 404" >&2; exit 1; }

echo "==> /status reports the default engine"
curl -fsS "$BASE/status" >"$TMP/server_status.json"
ENGINE=$(field engine "$TMP/server_status.json")
[ "$ENGINE" = "traces" ] || {
    echo "/status reports engine '$ENGINE', want traces" >&2
    cat "$TMP/server_status.json" >&2
    exit 1
}

echo "==> submit fib (blocks engine)"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"program":"fib","engine":"blocks"}' \
    "$BASE/v1/jobs" >"$TMP/submit.json"
ID=$(field id "$TMP/submit.json")
[ -n "$ID" ] || { echo "no job id in response" >&2; cat "$TMP/submit.json" >&2; exit 1; }
echo "    job $ID"

STATE=$(wait_done "$ID")
if [ "$STATE" != "done" ]; then
    echo "job $ID ended in state $STATE" >&2
    cat "$TMP/status.json" >&2
    exit 1
fi

echo "==> fetch output and snapshot"
curl -fsS "$BASE/v1/jobs/$ID/output" >"$TMP/out1"
curl -fsS "$BASE/v1/jobs/$ID/snapshot" >"$TMP/snap.bin"
[ -s "$TMP/out1" ] || { echo "job produced no output" >&2; exit 1; }
[ -s "$TMP/snap.bin" ] || { echo "empty snapshot" >&2; exit 1; }

echo "==> a finished job keeps its record: status and a stable snapshot"
curl -fsS "$BASE/v1/jobs/$ID" >"$TMP/final.json"
FINISHED=$(field finished "$TMP/final.json")
if [ "$(field state "$TMP/final.json")" != "done" ] || [ -z "$FINISHED" ] ||
    [ "$FINISHED" = "0001-01-01T00:00:00Z" ]; then
    echo "finished job $ID lost its record:" >&2
    cat "$TMP/final.json" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID/snapshot" >"$TMP/snap2.bin"
cmp -s "$TMP/snap.bin" "$TMP/snap2.bin" || {
    echo "two downloads of finished job $ID's snapshot differ" >&2
    exit 1
}

echo "==> resubmit snapshot on the fast engine"
SNAP_B64=$(base64 "$TMP/snap.bin" | tr -d '\n')
printf '{"snapshot":"%s","engine":"fast","name":"fib-resumed"}' "$SNAP_B64" >"$TMP/resubmit.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
    --data @"$TMP/resubmit.json" "$BASE/v1/jobs" >"$TMP/submit2.json"
ID2=$(field id "$TMP/submit2.json")
[ -n "$ID2" ] || { echo "no job id in resubmit response" >&2; cat "$TMP/submit2.json" >&2; exit 1; }
echo "    job $ID2"

STATE2=$(wait_done "$ID2")
if [ "$STATE2" != "done" ]; then
    echo "resumed job $ID2 ended in state $STATE2" >&2
    cat "$TMP/status.json" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID2/output" >"$TMP/out2"

echo "==> compare outputs"
if ! cmp -s "$TMP/out1" "$TMP/out2"; then
    echo "restored job output differs from the original:" >&2
    diff "$TMP/out1" "$TMP/out2" >&2 || true
    exit 1
fi

echo "==> templates: create -> fork -> output -> delete"
curl -fsS -X PUT -H 'Content-Type: application/json' \
    -d '{"program":"fib","engine":"fast"}' \
    "$BASE/v1/templates/fib-golden" >"$TMP/tpl.json"
TPL=$(field name "$TMP/tpl.json")
[ "$TPL" = "fib-golden" ] || { echo "template create failed" >&2; cat "$TMP/tpl.json" >&2; exit 1; }
curl -fsS "$BASE/v1/templates/fib-golden" >/dev/null
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"template":"fib-golden","engine":"blocks","name":"fib-forked"}' \
    "$BASE/v1/jobs" >"$TMP/submit_fork.json"
IDF=$(field id "$TMP/submit_fork.json")
[ -n "$IDF" ] || { echo "no job id for forked job" >&2; cat "$TMP/submit_fork.json" >&2; exit 1; }
echo "    forked job $IDF"
STATEF=$(wait_done "$IDF")
if [ "$STATEF" != "done" ]; then
    echo "forked job $IDF ended in state $STATEF" >&2
    cat "$TMP/status.json" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$IDF/output" >"$TMP/out_fork"
if ! cmp -s "$TMP/out1" "$TMP/out_fork"; then
    echo "template-forked job output differs from cold boot:" >&2
    diff "$TMP/out1" "$TMP/out_fork" >&2 || true
    exit 1
fi
curl -fsS -X DELETE "$BASE/v1/templates/fib-golden" >/dev/null
if curl -fsS "$BASE/v1/templates/fib-golden" >"$TMP/tpl_gone.json" 2>/dev/null; then
    echo "deleted template still resolves" >&2
    exit 1
fi
curl -sS "$BASE/v1/templates/fib-golden" >"$TMP/tpl_gone.json"
CODE=$(field code "$TMP/tpl_gone.json")
[ "$CODE" = "template_missing" ] || {
    echo "deleted template lookup returned code '$CODE', want template_missing" >&2
    cat "$TMP/tpl_gone.json" >&2
    exit 1
}

echo "==> fleet observability: profiled tenant job"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"program":"fib","engine":"fast","tenant":"smoke","profile":true}' \
    "$BASE/v1/jobs" >"$TMP/submit3.json"
ID3=$(field id "$TMP/submit3.json")
[ -n "$ID3" ] || { echo "no job id for profiled job" >&2; cat "$TMP/submit3.json" >&2; exit 1; }
STATE3=$(wait_done "$ID3")
if [ "$STATE3" != "done" ]; then
    echo "profiled job $ID3 ended in state $STATE3" >&2
    cat "$TMP/status.json" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID3/profile" >"$TMP/prof.folded"
[ -s "$TMP/prof.folded" ] || { echo "empty per-job folded profile" >&2; exit 1; }
grep -q '^user;' "$TMP/prof.folded" || {
    echo "per-job profile has no user-space stacks:" >&2
    head "$TMP/prof.folded" >&2
    exit 1
}

echo "==> fleet observability: /metrics rollup families"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
[ -s "$TMP/metrics.txt" ] || { echo "empty /metrics" >&2; exit 1; }
for want in \
    jobs_latency_seconds jobs_instrs_per_second jobs_outcomes \
    jobs_rollup_instructions jobs_admission_seconds jobs_template_forks \
    jobs_cow_faults 'tenant="smoke"' 'quantile="0.99"'; do
    grep -q "$want" "$TMP/metrics.txt" || {
        echo "/metrics is missing $want" >&2
        exit 1
    }
done

echo "==> jit introspection: traces-engine job, tier heatmap, deopt families"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"program":"fib","engine":"traces","tenant":"smoke","name":"fib-traced"}' \
    "$BASE/v1/jobs" >"$TMP/submit4.json"
ID4=$(field id "$TMP/submit4.json")
[ -n "$ID4" ] || { echo "no job id for traces-engine job" >&2; cat "$TMP/submit4.json" >&2; exit 1; }
STATE4=$(wait_done "$ID4")
if [ "$STATE4" != "done" ]; then
    echo "traces-engine job $ID4 ended in state $STATE4" >&2
    cat "$TMP/status.json" >&2
    exit 1
fi
curl -fsS "$BASE/jit/traces" >"$TMP/jit_traces.json"
grep -q '"entry_pc"' "$TMP/jit_traces.json" || {
    echo "/jit/traces has no trace sites:" >&2
    head "$TMP/jit_traces.json" >&2
    exit 1
}
grep -q "\"$ID4/fib-traced\"" "$TMP/jit_traces.json" || {
    echo "/jit/traces is missing the traced job's heatmap" >&2
    exit 1
}
curl -fsS "$BASE/jit/events" >"$TMP/jit_events.json"
grep -q '"kind": *"compiled"' "$TMP/jit_events.json" || {
    echo "/jit/events recorded no trace compilation:" >&2
    head "$TMP/jit_events.json" >&2
    exit 1
}
curl -fsS "$BASE/metrics" >"$TMP/metrics2.txt"
for want in \
    xlate_trace_guard_exits_branch_direction xlate_trace_guard_exits_fault \
    xlate_trace_refuse_shadow_branch xlate_trace_poisoned xlate_tier_traces; do
    grep -q "^$want{" "$TMP/metrics2.txt" || {
        echo "/metrics is missing the per-reason family $want" >&2
        exit 1
    }
done

echo "==> fleet observability: merged flamegraph"
curl -fsS "$BASE/profile/flame?scope=fleet" >"$TMP/fleet.folded"
[ -s "$TMP/fleet.folded" ] || { echo "empty fleet flamegraph" >&2; exit 1; }
grep -q '^user;' "$TMP/fleet.folded" || {
    echo "fleet flamegraph has no user-space stacks" >&2
    exit 1
}

echo "==> fleet observability: peer list and sampled stream"
curl -fsS "$BASE/fleet/peers" >"$TMP/peers.json"
[ -s "$TMP/peers.json" ] || { echo "empty /fleet/peers response" >&2; exit 1; }
# The sampled stream must at least announce its sample set; a 2s tail
# is plenty (curl exits 28 on --max-time, which is the expected path).
curl -sS --max-time 2 "$BASE/trace/stream?sample=2" >"$TMP/stream.txt" || true
grep -q '^event: sample' "$TMP/stream.txt" || {
    echo "sampled stream never sent its announce frame:" >&2
    head "$TMP/stream.txt" >&2
    exit 1
}

echo "OK"
