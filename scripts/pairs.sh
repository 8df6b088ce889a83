#!/bin/sh
# pairs.sh — paired runs of the benchmark, the parent against this
# checkout, written out as data.
#
#   sh scripts/pairs.sh REV WORKLOAD N OUT
#
# REV is the commit to compare against (usually the parent), WORKLOAD
# one of bench/run.sh's workloads, N the number of pairs. REV is
# extracted with git archive under .bench_build/pairs/ once per REV,
# and both benchmarks are built once per call, each in its own tree as
# bench/run.sh builds it. Pair i runs both sides with seed i+1 and the
# benchmark's default duration; REV goes first in even pairs, this
# checkout in odd ones.
# Each run appends one JSON line to OUT:
#
#   {"pair":0,"side":"parent","workload":"paper","attempted":12,"failed":0,
#    "op_ms_min":1.2,"rss_mb":34.5,"setup_s":0.7}
#
# side is "parent" for REV and "change" for this checkout. A run whose
# benchmark exits non-zero stops the script. `go run ./cmd/benchdiff
# OUT` renders the file: medians, quartiles, wins and a verdict per
# workload and end-to-end metric of BENCHMARK.json.
set -eu
if [ $# -ne 4 ]; then
    echo "usage: sh scripts/pairs.sh REV WORKLOAD N OUT" >&2
    exit 2
fi
rev=$1 workload=$2 n=$3 out=$4
cd "$(dirname "$0")/.."
change=$(pwd)
case "$out" in /*) ;; *) out="$change/$out" ;; esac
parent="$change/.bench_build/pairs/$(git rev-parse --short "$rev")"
# The tree is keyed by its commit, so its contents never change: it is
# extracted only when no earlier call finished extracting it, and the
# parent's build cache inside it stays warm from call to call.
if [ ! -f "$parent/.pairs-extracted" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
    touch "$parent/.pairs-extracted"
fi

# env_for TREE sets the environment bench/run.sh gives the benchmark,
# which builds cmd/mipsd with it.
env_for() {
    export GOCACHE="$1/.bench_build/gocache" GOTMPDIR="$1/.bench_build/tmp" TMPDIR="$1/.bench_build/tmp"
    export GOTOOLCHAIN=local GOPROXY=off
}

for tree in "$parent" "$change"; do
    mkdir -p "$tree/.bench_build/tmp"
    (env_for "$tree" && go -C "$tree/bench" build -o "$tree/.bench_build/bench" .)
done

# value KEY reads a number from the result line on standard input:
# a top-level count, or a metric's value.
value() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p; t; s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"
}

# run SIDE TREE PAIR runs the benchmark once and appends its line to OUT.
run() {
    res="$parent.out"
    (cd "$2" && env_for "$2" && "$2/.bench_build/bench" -workload "$workload" -seed "$(($3 + 1))") >"$res"
    line=$(tail -n 1 "$res")
    printf '{"pair":%d,"side":"%s","workload":"%s","attempted":%s,"failed":%s,"op_ms_min":%s,"rss_mb":%s,"setup_s":%s}\n' \
        "$3" "$1" "$workload" \
        "$(echo "$line" | value attempted)" "$(echo "$line" | value failed)" \
        "$(echo "$line" | value op_ms_min)" "$(echo "$line" | value rss_mb)" "$(echo "$line" | value setup_s)" >>"$out"
}

i=0
while [ "$i" -lt "$n" ]; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    echo "pairs.sh: $workload pair $((i + 1))/$n done" >&2
    i=$((i + 1))
done
