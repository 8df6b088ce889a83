#!/bin/sh
# mipsd_smoke.sh — end-to-end smoke test for the simulation job daemon.
# Starts mipsd, submits a job over HTTP, polls it to completion, downloads
# its snapshot (twice: a finished job serves the same bytes each time),
# resubmits the snapshot as a new job, and checks that both jobs produced
# identical output. Among the later checks: the second and third bare
# jobs on the same program adopt the translations the first published,
# and twelve more leave less to the blocks tier than the second did. Exercises the same
# loop as the Go HTTP tests, but against the real binary over a real
# socket.
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

# Pull a numeric field out of a one-object JSON response.
num() { # num <name> <file>
    sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p" "$2" | head -1
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

echo "==> max_steps counts instructions on every engine"
# A step is one retired instruction or one exception entry, so a bare
# fib job limited to 5000 steps fails at the same instruction on the
# reference engine and on the trace tier.
LIMIT_INSTRS=""
for eng in reference traces; do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"program\":\"fib\",\"engine\":\"$eng\",\"max_steps\":5000}" \
        "$BASE/v1/jobs" >"$TMP/submit_max.json"
    IDM=$(field id "$TMP/submit_max.json")
    [ -n "$IDM" ] || { echo "no job id for the $eng max_steps job" >&2; cat "$TMP/submit_max.json" >&2; exit 1; }
    STATEM=$(wait_done "$IDM")
    ERRM=$(field error "$TMP/status.json")
    if [ "$STATEM" != "failed" ] || [ "$ERRM" != "step limit 5000 exceeded" ]; then
        echo "$eng job $IDM with max_steps 5000 ended $STATEM ($ERRM), want failed at the step limit" >&2
        cat "$TMP/status.json" >&2
        exit 1
    fi
    INSTRS=$(num instructions "$TMP/status.json")
    if [ -n "$LIMIT_INSTRS" ] && [ "$INSTRS" != "$LIMIT_INSTRS" ]; then
        echo "max_steps 5000: $eng ran $INSTRS instructions, reference $LIMIT_INSTRS" >&2
        exit 1
    fi
    LIMIT_INSTRS=$INSTRS
done

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

echo "==> shared translations: the second and third bare calc jobs adopt what the first published"
# mipsd compiles each program once, so every bare calc job loads the
# same image. The image's first job publishes its blocks and traces,
# and the second and third adopt them. Each job runs under its own
# tenant, so the per-tenant xlate.* rollups tell them apart. Twelve
# more jobs follow the three. The image's heat is pooled, so code each
# run executes only a few times is traced once for the image, and the
# last job leaves less to the blocks tier than the second and the third
# did. With heat counted per machine every adopting job, the second on,
# would retire the same number there.
SETTLE=$(seq -f 'settle-%g' 1 12)
CALC_OUT=""
for tenant in adopt-1 adopt-2 adopt-3 $SETTLE; do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"program\":\"calc\",\"engine\":\"traces\",\"tenant\":\"$tenant\"}" \
        "$BASE/v1/jobs" >"$TMP/submit_calc.json"
    IDC=$(field id "$TMP/submit_calc.json")
    [ -n "$IDC" ] || { echo "no job id for the $tenant calc job" >&2; cat "$TMP/submit_calc.json" >&2; exit 1; }
    STATEC=$(wait_done "$IDC")
    if [ "$STATEC" != "done" ]; then
        echo "$tenant calc job $IDC ended in state $STATEC" >&2
        cat "$TMP/status.json" >&2
        exit 1
    fi
    curl -fsS "$BASE/v1/jobs/$IDC/output" >"$TMP/calc_$tenant"
    [ -s "$TMP/calc_$tenant" ] || { echo "$tenant calc job printed nothing" >&2; exit 1; }
    if [ -n "$CALC_OUT" ] && ! cmp -s "$CALC_OUT" "$TMP/calc_$tenant"; then
        echo "the $tenant calc job's output differs from the first's:" >&2
        diff "$CALC_OUT" "$TMP/calc_$tenant" >&2 || true
        exit 1
    fi
    CALC_OUT="$TMP/calc_adopt-1"
done
curl -fsS "$BASE/metrics" >"$TMP/metrics3.txt"
adopted() { # adopted <tenant> -> the tenant's xlate.trace.adopted total
    sed -n "s/^xlate_trace_adopted{tenant=\"$1\",[^}]*} \([0-9]*\)\$/\1/p" "$TMP/metrics3.txt" | head -1
}
A1=$(adopted adopt-1)
A2=$(adopted adopt-2)
A3=$(adopted adopt-3)
if [ "$A1" != "0" ] || [ -z "$A2" ] || [ "$A2" -eq 0 ] || [ -z "$A3" ] || [ "$A3" -eq 0 ]; then
    echo "adopted traces by calc job: '$A1' '$A2' '$A3' (want 0, then more than 0 twice)" >&2
    grep '^xlate_trace_adopted' "$TMP/metrics3.txt" >&2 || true
    exit 1
fi
echo "    second job adopted $A2 traces, third $A3"
tier_blocks() { # tier_blocks <tenant> -> the tenant's xlate.tier.blocks total
    sed -n "s/^xlate_tier_blocks{tenant=\"$1\",[^}]*} \([0-9]*\)\$/\1/p" "$TMP/metrics3.txt" | head -1
}
B2=$(tier_blocks adopt-2)
B3=$(tier_blocks adopt-3)
BLAST=$(tier_blocks settle-12)
if [ -z "$B2" ] || [ -z "$B3" ] || [ -z "$BLAST" ] || [ "$BLAST" -ge "$B2" ] || [ "$BLAST" -ge "$B3" ]; then
    echo "blocks-tier instructions of the second, third and last calc job: '$B2' '$B3' '$BLAST' (want the last below both)" >&2
    grep '^xlate_tier_blocks' "$TMP/metrics3.txt" >&2 || true
    exit 1
fi
echo "    blocks-tier instructions: second job $B2, third $B3, last $BLAST"

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
