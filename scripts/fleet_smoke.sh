#!/bin/sh
# fleet_smoke.sh — multi-daemon federation smoke test.
# Starts two worker mipsd instances and one coordinator federating
# them via -peers, runs profiled jobs for distinct tenants on each
# worker, and asserts that the coordinator's single pane of glass
# shows both: merged /metrics series carrying worker="host:port"
# labels, fleet_peer_up 1 for every peer, and a fleet flamegraph
# containing stacks from both workers' profiled jobs. The merged
# flamegraph is left at $FLEET_FLAME_OUT (default fleet_flame.folded)
# as a CI artifact.
set -eu
cd "$(dirname "$0")/.."

W1="${FLEET_W1:-127.0.0.1:9481}"
W2="${FLEET_W2:-127.0.0.1:9482}"
CO="${FLEET_CO:-127.0.0.1:9483}"
FLAME_OUT="${FLEET_FLAME_OUT:-fleet_flame.folded}"
TMP="$(mktemp -d)"
PIDS=""

cleanup() {
    status=$?
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
    exit "$status"
}
trap cleanup EXIT INT TERM

field() { # field <name> <file>
    sed -n "s/.*\"$1\": *\"\\([^\"]*\\)\".*/\\1/p" "$2" | head -1
}

wait_up() { # wait_up <addr>
    for i in $(seq 1 100); do
        if curl -fsS "http://$1/v1/jobs" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon never came up on $1" >&2
    return 1
}

wait_done() { # wait_done <addr> <id>
    for i in $(seq 1 600); do
        curl -fsS "http://$1/v1/jobs/$2" >"$TMP/status.json"
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

run_job() { # run_job <addr> <tenant>
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"program\":\"fib\",\"engine\":\"fast\",\"tenant\":\"$2\",\"profile\":true}" \
        "http://$1/v1/jobs" >"$TMP/submit.json"
    id=$(field id "$TMP/submit.json")
    [ -n "$id" ] || { echo "no job id from $1" >&2; cat "$TMP/submit.json" >&2; return 1; }
    state=$(wait_done "$1" "$id")
    if [ "$state" != "done" ]; then
        echo "job $id on $1 ended in state $state" >&2
        cat "$TMP/status.json" >&2
        return 1
    fi
}

echo "==> build mipsd"
go build -o "$TMP/mipsd" ./cmd/mipsd

echo "==> start workers on $W1 and $W2, coordinator on $CO"
"$TMP/mipsd" -addr "$W1" -quantum 5000 &
PIDS="$PIDS $!"
"$TMP/mipsd" -addr "$W2" -quantum 5000 &
PIDS="$PIDS $!"
"$TMP/mipsd" -addr "$CO" -quantum 5000 -peers "$W1,$W2" &
PIDS="$PIDS $!"
wait_up "$W1"
wait_up "$W2"
wait_up "$CO"

echo "==> run profiled jobs on each worker"
run_job "$W1" "tenant-a"
run_job "$W2" "tenant-b"

echo "==> coordinator /metrics merges both workers"
curl -fsS "http://$CO/metrics" >"$TMP/merged.txt"
[ -s "$TMP/merged.txt" ] || { echo "empty coordinator /metrics" >&2; exit 1; }
for want in \
    "worker=\"$W1\"" "worker=\"$W2\"" \
    'tenant="tenant-a"' 'tenant="tenant-b"' \
    jobs_latency_seconds fleet_peers; do
    grep -q "$want" "$TMP/merged.txt" || {
        echo "merged /metrics is missing $want" >&2
        grep -c . "$TMP/merged.txt" >&2
        exit 1
    }
done
for w in "$W1" "$W2"; do
    grep -q "fleet_peer_up{worker=\"$w\"} 1" "$TMP/merged.txt" || {
        echo "coordinator does not report peer $w as up:" >&2
        grep fleet_peer_up "$TMP/merged.txt" >&2 || true
        exit 1
    }
done

echo "==> coordinator peer list"
curl -fsS "http://$CO/fleet/peers" >"$TMP/peers.json"
grep -q "$W1" "$TMP/peers.json" || { echo "peer $W1 missing from /fleet/peers" >&2; exit 1; }
grep -q "$W2" "$TMP/peers.json" || { echo "peer $W2 missing from /fleet/peers" >&2; exit 1; }

echo "==> fleet flamegraph artifact -> $FLAME_OUT"
curl -fsS "http://$CO/profile/flame?scope=fleet" >"$FLAME_OUT"
[ -s "$FLAME_OUT" ] || { echo "empty fleet flamegraph" >&2; exit 1; }
grep -q '^user;' "$FLAME_OUT" || {
    echo "fleet flamegraph has no user-space stacks" >&2
    exit 1
}

echo "==> dead peer degrades, never fails the scrape"
kill "$(echo "$PIDS" | awk '{print $1}')" 2>/dev/null || true
for i in $(seq 1 100); do
    curl -fsS "http://$CO/metrics" >"$TMP/degraded.txt"
    if grep -q "fleet_peer_up{worker=\"$W1\"} 0" "$TMP/degraded.txt"; then
        break
    fi
    if [ "$i" -eq 100 ]; then
        echo "dead peer $W1 never reported as down:" >&2
        grep fleet_peer_up "$TMP/degraded.txt" >&2 || true
        exit 1
    fi
    sleep 0.1
done
grep -q "fleet_peer_up{worker=\"$W2\"} 1" "$TMP/degraded.txt" || {
    echo "live peer $W2 lost its up status" >&2
    exit 1
}

echo "OK"
