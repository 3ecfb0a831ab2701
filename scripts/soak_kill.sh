#!/bin/sh
# soak_kill.sh — SIGKILL crash soak for the fleet's group commit.
#
# A two-log audited fleet crawl (alpha and bravo overlap by half a
# stride, and each also carries the forgery) runs against a checkpoint
# dir, an STH dir and an index dir, rate-limited so the crawl takes
# about a minute. It is killed with SIGKILL at SOAK_KILLS seeded random
# moments, restarted over the same dirs after each kill, and the last
# run is left to finish. A reference crawl of identically built logs
# runs once, uninterrupted and unthrottled, into its own dirs.
#
# soakcheck -kill then requires both runs to end healthy and the killed
# index to hold exactly the reference index's certificates, matched by
# leaf hash: distinct leaf hashes == unique entries. A checkpoint
# committed past an entry that was still in the feed or the index
# memtable loses that certificate for good — the restarted crawl
# resumes after it — and fails this check.
#
# Record counts are deliberately not compared: every restart
# re-delivers the entries after the last commit, and the index stores
# them again (about 3,100 records for 3,001 certificates) until index
# Put becomes idempotent by leaf hash.
#
# Tunables (env): SOAK_ENTRIES, SOAK_KILLS, SOAK_SEED, SOAK_DIR.
set -eu

GO=${GO:-go}
SOAK_ENTRIES=${SOAK_ENTRIES:-3000}
SOAK_KILLS=${SOAK_KILLS:-3}
SOAK_SEED=${SOAK_SEED:-1}
SOAK_DIR=${SOAK_DIR:-$(mktemp -d /tmp/ctsoakkill.XXXXXX)}

echo "soak-kill: workdir $SOAK_DIR"
$GO build -o "$SOAK_DIR/ctmonitor" ./cmd/ctmonitor
$GO build -o "$SOAK_DIR/soakcheck" ./cmd/soakcheck

# run DIR OUT [flags...] execs one fleet crawl over DIR's durable
# state, so that backgrounding `run ... &` makes $! the ctmonitor PID.
run() {
    dir=$1
    out=$2
    shift 2
    exec "$SOAK_DIR/ctmonitor" \
        -logs "alpha:clean,bravo:clean" -entries "$SOAK_ENTRIES" -batch 16 -audit \
        -checkpoint-dir "$dir/ckpt" -sth-store-dir "$dir/sth" -index-dir "$dir/index" \
        -stats-json "$@" >"$out" 2>"$out.log"
}

rm -rf "$SOAK_DIR/kill" "$SOAK_DIR/ref"
mkdir -p "$SOAK_DIR/kill" "$SOAK_DIR/ref"

# Kill delays in seconds after each start, drawn from [2.5, 7): late
# enough for the crawl to have committed progress, early enough that
# the throttled crawl is still running.
delays=$(awk -v seed="$SOAK_SEED" -v n="$SOAK_KILLS" \
    'BEGIN { srand(seed); for (i = 0; i < n; i++) printf "%.2f\n", 2.5 + 4.5 * rand() }')

i=0
for d in $delays; do
    i=$((i + 1))
    echo "soak-kill: run $i (SIGKILL after ${d}s)"
    run "$SOAK_DIR/kill" "$SOAK_DIR/kill$i.json" -rate-limit 5 -rate-burst 1 &
    pid=$!
    sleep "$d"
    if ! kill -KILL "$pid" 2>/dev/null; then
        echo "soak-kill: FAIL: run $i exited before the SIGKILL landed; raise SOAK_ENTRIES" >&2
        exit 1
    fi
    wait "$pid" || true
done

echo "soak-kill: final run (resume and finish)"
( run "$SOAK_DIR/kill" "$SOAK_DIR/final.json" -rate-limit 5 -rate-burst 1 ) || {
    echo "soak-kill: FAIL: final run exited non-zero (see $SOAK_DIR/final.json.log)" >&2
    exit 1
}

echo "soak-kill: reference run (uninterrupted)"
( run "$SOAK_DIR/ref" "$SOAK_DIR/ref.json" ) || {
    echo "soak-kill: FAIL: reference run exited non-zero (see $SOAK_DIR/ref.json.log)" >&2
    exit 1
}

"$SOAK_DIR/soakcheck" -kill -ref-index "$SOAK_DIR/ref/index" -index "$SOAK_DIR/kill/index" \
    "$SOAK_DIR/ref.json" "$SOAK_DIR/final.json"
echo "soak-kill: OK (artifacts in $SOAK_DIR)"
