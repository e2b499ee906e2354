#!/bin/sh
# serve-smoke: start the fastcc-serve daemon on a free port, run the
# scripted client round-trip (upload -> contract -> fetch -> compare against
# a local contraction), then shut the daemon down with SIGTERM and require a
# clean exit — which the daemon only reports when its shard-cache and
# output-chunk leak gauges returned to their startup baseline.
#
# A second pair of daemon runs exercises the shard cache's disk tier: a
# 1-byte RAM budget forces every cold shard through the spill path (the
# selftest's warm round must still be bit-identical, now served from disk),
# and a persistent spill directory shared by both runs must let the second
# daemon adopt the first one's on-disk shard images (spill_adopts > 0).
#
# Usage: tools/serve_smoke.sh [bin-dir]   (default bin/)
set -eu

BIN=${1:-bin}
WORK=$(mktemp -d)
ADDR_FILE="$WORK/addr"
SERVE_LOG="$WORK/serve.log"
SPILL_DIR="$WORK/spill"

cleanup() {
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# start_daemon [extra flags...]: launch fastcc-serve, wait for the bound
# address, export ADDR/SERVE_PID.
start_daemon() {
    rm -f "$ADDR_FILE"
    : >"$SERVE_LOG"
    "$BIN/fastcc-serve" \
        -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
        -threads 2 -inflight 2 -queue 16 \
        "$@" \
        >"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    i=0
    while [ ! -s "$ADDR_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: daemon never wrote $ADDR_FILE" >&2
            cat "$SERVE_LOG" >&2
            exit 1
        fi
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "serve-smoke: daemon exited early" >&2
            cat "$SERVE_LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$ADDR_FILE")
}

# stop_daemon: SIGTERM, require exit 0 and the clean-shutdown log line.
stop_daemon() {
    kill -TERM "$SERVE_PID"
    if ! wait "$SERVE_PID"; then
        echo "serve-smoke: daemon exited nonzero after SIGTERM" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    SERVE_PID=""
    grep -q "clean shutdown" "$SERVE_LOG" || {
        echo "serve-smoke: daemon log missing clean-shutdown line" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    }
}

start_daemon -cache-budget 1048576 -tenant-quota 262144
echo "serve-smoke: daemon on $ADDR"

# Scripted round-trip: the selftest uploads two random tensors, contracts
# them remotely twice (cold + warm), and compares each download
# bit-for-bit against a local contraction.
"$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant \
    selftest -threads 2

"$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant stats

# Clean shutdown: SIGTERM must produce exit 0, which the daemon gates on
# zero leak-gauge deltas after dropping all server state.
stop_daemon
echo "serve-smoke: ok (clean shutdown, leak gauges at baseline)"

# --- spill run 1: evict-to-disk and reload within one daemon ------------
# The 1-byte cache budget evicts each run's shards as soon as the run's pins
# drop, so the selftest's warm round re-pins its shards from the spill files
# the first round's eviction wrote — and must still be bit-identical.
start_daemon -cache-budget 1 \
    -spill-dir "$SPILL_DIR" -spill-budget 1048576 -spill-persist
echo "serve-smoke: spill daemon 1 on $ADDR"

"$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant \
    selftest -threads 2

STATS1=$("$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant stats)
echo "$STATS1"
echo "$STATS1" | grep -Eq 'spill_writes=[1-9]' || {
    echo "serve-smoke: spill daemon 1 reported no spill writes" >&2
    exit 1
}
echo "$STATS1" | grep -Eq 'spill_reads=[1-9]' || {
    echo "serve-smoke: spill daemon 1 reported no spill reads" >&2
    exit 1
}
stop_daemon
ls "$SPILL_DIR"/*.fspl >/dev/null 2>&1 || {
    echo "serve-smoke: persistent spill dir empty after daemon 1 shutdown" >&2
    exit 1
}
echo "serve-smoke: spill run 1 ok (shards spilled, reloaded, files persisted)"

# --- spill run 2: warm restart adopts the previous daemon's files -------
# Same spill dir, same selftest seed: the uploads hash to the same content
# keys, so the cold contraction must adopt daemon 1's on-disk shard images
# instead of rebuilding.
start_daemon -cache-budget 1 \
    -spill-dir "$SPILL_DIR" -spill-budget 1048576 -spill-persist
echo "serve-smoke: spill daemon 2 on $ADDR"

"$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant \
    selftest -threads 2

STATS2=$("$BIN/fastcc-client" -server "http://$ADDR" -tenant smoke-tenant stats)
echo "$STATS2"
echo "$STATS2" | grep -Eq 'spill_adopts=[1-9]' || {
    echo "serve-smoke: spill daemon 2 adopted no on-disk shards after restart" >&2
    exit 1
}
stop_daemon
echo "serve-smoke: spill run 2 ok (restart adopted the on-disk cache)"
