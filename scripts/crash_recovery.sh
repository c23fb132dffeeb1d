#!/usr/bin/env bash
# Crash-recovery soak test for `silkmoth serve --data-dir`.
#
# Loops for a fixed number of rounds with a fixed seed:
#   1. start the durable server (first round initializes the store)
#      with a tiny --wal-segment-bytes so every round spans many
#      sealed segments and recovery exercises the parallel,
#      multi-segment replay path,
#   2. issue random acknowledged updates (appends / removes / compacts /
#      forced snapshots) over HTTP, recording each acked one, then a
#      burst of CONCURRENT writers whose appends contend for the
#      group-commit queue — gid order in the acks is commit order, so
#      the interleaving is stitched back into the replay log,
#   3. append to a second catalog collection (`aux`, created in round 1
#      via PUT /collections/aux) through its scoped route, so every
#      crash covers two stores plus the catalog manifest,
#   4. `kill -9` the server (no graceful shutdown — the WAL tail must
#      carry everything),
#   5. restart from --data-dir alone and check /stats AND
#      /collections/aux/stats match the expected live counts, and that
#      GET /collections lists `aux` with the 2 shards it was created
#      with and `default` with the server's --shards.
#
# After the last round a REFERENCE server is built fresh from the seed
# input and fed the exact same acked update sequence in-memory (both
# collections); the recovered durable server and the reference must
# return identical search results (ids and scores) for a panel of
# probe references against the default AND the aux collection. Any
# divergence fails the script.
#
# Usage: scripts/crash_recovery.sh [rounds] [updates-per-round]
# Env:   SILKMOTH=path/to/silkmoth (default: target/release/silkmoth)

set -euo pipefail

ROUNDS="${1:-5}"
UPDATES="${2:-12}"
WRITERS=4           # concurrent writers per round
PER_WRITER=5        # appends each concurrent writer issues
SEGMENT_BYTES=512   # tiny WAL segments: every round seals several
SHARDS=3            # the durable server's --shards
SEED=20170711 # fixed: the soak is reproducible run-to-run
SILKMOTH="${SILKMOTH:-target/release/silkmoth}"
PORT=7741
REF_PORT=7742
WORK="$(mktemp -d)"
STORE="$WORK/store"
INPUT="$WORK/seed.sets"
OPS="$WORK/ops.jsonl"         # every acknowledged default-collection update
AUX_OPS="$WORK/aux_ops.jsonl" # every acknowledged aux-collection append
SERVER_PID=""
REF_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    [ -n "$REF_PID" ] && kill -9 "$REF_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

die() {
    echo "FAIL: $*" >&2
    exit 1
}

# Deterministic RNG: bash's $RANDOM re-seeded from a fixed seed.
RANDOM=$SEED

wait_healthy() {
    local port="$1"
    for _ in $(seq 1 100); do
        if curl -sf "localhost:$port/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    die "server on port $port never became healthy"
}

# --- seed input: 20 sets of 2 elements each --------------------------------
: >"$INPUT"
for i in $(seq 0 19); do
    echo "w$((i % 7)) w$(((i + 3) % 5)) shared$((i % 4))|w$(((i * 3) % 11)) shared$(((i + 1) % 4))" >>"$INPUT"
done
: >"$OPS"
: >"$AUX_OPS"
AUX_COUNT=0 # expected live sets in the aux collection

# Track the expected live set count; gids are assigned monotonically so
# the shell can mirror the numbering: base 0..19, appends continue it.
NEXT_GID=20
declare -A LIVE
for i in $(seq 0 19); do LIVE[$i]=1; done

live_count() { echo "${#LIVE[@]}"; }

random_live_gid() {
    local keys=("${!LIVE[@]}")
    echo "${keys[$((RANDOM % ${#keys[@]}))]}"
}

issue_updates() {
    local port="$1" n="$2"
    for _ in $(seq 1 "$n"); do
        local roll=$((RANDOM % 100))
        if [ "$roll" -lt 45 ]; then
            local body="{\"sets\": [[\"w$((RANDOM % 9)) shared$((RANDOM % 4))\", \"w$((RANDOM % 9)) w$((RANDOM % 6))\"]]}"
            curl -sf -X POST "localhost:$port/sets" -d "$body" >/dev/null ||
                die "append not acknowledged"
            echo "POST /sets $body" >>"$OPS"
            LIVE[$NEXT_GID]=1
            NEXT_GID=$((NEXT_GID + 1))
        elif [ "$roll" -lt 75 ] && [ "$(live_count)" -gt 2 ]; then
            local gid
            gid=$(random_live_gid)
            curl -sf -X DELETE "localhost:$port/sets" -d "{\"ids\": [$gid]}" >/dev/null ||
                die "remove of live gid $gid not acknowledged"
            echo "DELETE /sets {\"ids\": [$gid]}" >>"$OPS"
            unset "LIVE[$gid]"
        elif [ "$roll" -lt 90 ]; then
            curl -sf -X POST "localhost:$port/compact" >/dev/null ||
                die "compact not acknowledged"
            echo "POST /compact" >>"$OPS"
        else
            # Durable-only: force a checkpoint (not replayed on the
            # reference, where it would be a 409 and changes nothing).
            curl -sf -X POST "localhost:$port/snapshot" >/dev/null ||
                die "snapshot not acknowledged"
        fi
    done
}

# A burst of WRITERS concurrent processes, each issuing PER_WRITER
# single-set appends. Every ack carries the assigned gid; gid order IS
# commit order (the group-commit leader assigns gids as records hit
# the WAL), so sorting the acks by gid reconstructs the exact update
# sequence for the reference replay.
concurrent_appends() {
    local port="$1" w pid pids=()
    rm -f "$WORK"/concurrent.*
    for w in $(seq 1 "$WRITERS"); do
        (
            for i in $(seq 1 "$PER_WRITER"); do
                body="{\"sets\": [[\"cw$w u$i shared$(((w + i) % 4))\"]]}"
                resp=$(curl -sf -X POST "localhost:$port/sets" -d "$body") || exit 1
                gid=$(echo "$resp" | jq '.appended[0]')
                echo "$gid POST /sets $body" >>"$WORK/concurrent.$w"
            done
        ) &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do
        wait "$pid" || die "a concurrent writer's append was not acknowledged"
    done
    sort -n "$WORK"/concurrent.* | sed 's/^[0-9]* //' >>"$OPS"
    local n
    n=$(cat "$WORK"/concurrent.* | wc -l)
    [ "$n" -eq $((WRITERS * PER_WRITER)) ] || die "expected $((WRITERS * PER_WRITER)) concurrent acks, saw $n"
    rm -f "$WORK"/concurrent.*
    for _ in $(seq 1 "$n"); do
        LIVE[$NEXT_GID]=1
        NEXT_GID=$((NEXT_GID + 1))
    done
}

check_sets() {
    local port="$1" want got
    want="$(live_count)"
    got=$(curl -sf "localhost:$port/stats" | jq .sets)
    [ "$got" = "$want" ] || die "port $port reports $got sets, expected $want"
}

# Appends to the aux collection through its scoped route — the same
# ack-then-record discipline as the default collection's updates.
aux_appends() {
    local port="$1" n="$2" i body
    for i in $(seq 1 "$n"); do
        body="{\"sets\": [[\"aux r$round u$i shared$((RANDOM % 4))\", \"aux w$((RANDOM % 9))\"]]}"
        curl -sf -X POST "localhost:$port/collections/aux/sets" -d "$body" >/dev/null ||
            die "aux append not acknowledged"
        echo "$body" >>"$AUX_OPS"
        AUX_COUNT=$((AUX_COUNT + 1))
    done
}

check_aux() {
    local port="$1" got
    got=$(curl -sf "localhost:$port/collections/aux/stats" | jq .sets)
    [ "$got" = "$AUX_COUNT" ] || die "port $port reports $got aux sets, expected $AUX_COUNT"
}

# The catalog registry as listed: `aux` with its own shard count,
# `default` with the count its engine runs with.
check_listing() {
    local port="$1" got want
    want="[{\"name\":\"aux\",\"shards\":2},{\"name\":\"default\",\"shards\":$SHARDS}]"
    got=$(curl -sf "localhost:$port/collections" | jq -c '[.collections[] | {name, shards}]')
    [ "$got" = "$want" ] || die "port $port lists $got, expected $want"
}

# --- the soak ---------------------------------------------------------------
for round in $(seq 1 "$ROUNDS"); do
    if [ "$round" -eq 1 ]; then
        "$SILKMOTH" serve --input "$INPUT" --data-dir "$STORE" --port "$PORT" \
            --shards "$SHARDS" --threads 2 --delta 0.4 --wal-segment-bytes "$SEGMENT_BYTES" &
    else
        "$SILKMOTH" serve --data-dir "$STORE" --port "$PORT" \
            --shards "$SHARDS" --threads 2 --delta 0.4 --wal-segment-bytes "$SEGMENT_BYTES" &
    fi
    SERVER_PID=$!
    wait_healthy "$PORT"
    check_sets "$PORT" # recovery restored the previous round's state
    if [ "$round" -eq 1 ]; then
        curl -sf -X PUT "localhost:$PORT/collections/aux" -d '{"shards": 2}' >/dev/null ||
            die "creating the aux collection failed"
    else
        check_aux "$PORT" # the catalog manifest + aux store recovered too
        check_listing "$PORT"
    fi
    issue_updates "$PORT" "$UPDATES"
    concurrent_appends "$PORT"
    aux_appends "$PORT" 3
    check_sets "$PORT"
    check_aux "$PORT"
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
    echo "# round $round ok: killed with $(live_count) live + $AUX_COUNT aux sets on disk"
done

# --- final recovery + differential check vs a reference rebuild -------------
# --slow-query-ms 0 arms slow-query trace capture so metrics_check.sh
# can verify /debug/traces caught its adversarial query.
"$SILKMOTH" serve --data-dir "$STORE" --port "$PORT" --shards "$SHARDS" --threads 2 --delta 0.4 \
    --wal-segment-bytes "$SEGMENT_BYTES" --slow-query-ms 0 &
SERVER_PID=$!
"$SILKMOTH" serve --input "$INPUT" --port "$REF_PORT" --shards 1 --threads 2 --delta 0.4 &
REF_PID=$!
wait_healthy "$PORT"
wait_healthy "$REF_PORT"
check_sets "$PORT"
check_aux "$PORT"
check_listing "$PORT"

# Replay every acked update against the reference (same order, same
# bodies → same gids, since ids are assigned monotonically).
while IFS=' ' read -r method path body; do
    if [ -n "$body" ]; then
        curl -sf -X "$method" "localhost:$REF_PORT$path" -d "$body" >/dev/null ||
            die "reference replay rejected: $method $path $body"
    else
        curl -sf -X "$method" "localhost:$REF_PORT$path" >/dev/null ||
            die "reference replay rejected: $method $path"
    fi
done <"$OPS"
check_sets "$REF_PORT"

# Rebuild the aux collection on the (ephemeral) reference catalog and
# replay its acked appends in order — gids are per-collection, so the
# same body sequence yields the same ids.
curl -sf -X PUT "localhost:$REF_PORT/collections/aux" -d '{"shards": 2}' >/dev/null ||
    die "creating aux on the reference failed"
while IFS= read -r body; do
    curl -sf -X POST "localhost:$REF_PORT/collections/aux/sets" -d "$body" >/dev/null ||
        die "aux reference replay rejected: $body"
done <"$AUX_OPS"
check_aux "$REF_PORT"

# Probe panel: results (ids + scores) must match exactly. Pass stats
# may legitimately differ (pruning depends on index internals), so only
# the "results" field is compared.
for probe in \
    '{"reference": ["w0 w3 shared0", "w3 shared1"], "floor": 0.1}' \
    '{"reference": ["w1 w4 shared1"], "k": 5, "floor": 0.0}' \
    '{"reference": ["w6 shared3", "w9 w2"], "floor": 0.3}' \
    '{"reference": ["nothing matches this probe"], "floor": 0.0}'; do
    got=$(curl -sf -X POST "localhost:$PORT/search" -d "$probe" | jq -S .results)
    want=$(curl -sf -X POST "localhost:$REF_PORT/search" -d "$probe" | jq -S .results)
    if [ "$got" != "$want" ]; then
        echo "probe: $probe" >&2
        echo "recovered: $got" >&2
        echo "reference: $want" >&2
        die "recovered server diverges from the reference rebuild"
    fi
done

# Same exactness bar for the recovered aux collection, through its
# scoped route. A probe that only matches default-collection elements
# must come back empty here — catalog recovery must not bleed one
# tenant's sets into another's index.
for probe in \
    '{"reference": ["aux r1 u1 shared0", "aux w3"], "floor": 0.0}' \
    '{"reference": ["aux r2 u2 shared2"], "k": 4, "floor": 0.0}' \
    '{"reference": ["w0 w3 shared0"], "floor": 0.4}'; do
    got=$(curl -sf -X POST "localhost:$PORT/collections/aux/search" -d "$probe" | jq -S .results)
    want=$(curl -sf -X POST "localhost:$REF_PORT/collections/aux/search" -d "$probe" | jq -S .results)
    if [ "$got" != "$want" ]; then
        echo "aux probe: $probe" >&2
        echo "recovered: $got" >&2
        echo "reference: $want" >&2
        die "recovered aux collection diverges from the reference rebuild"
    fi
done

# With the recovered server still up and warm from the probe panel,
# validate its /metrics exposition: two scrapes, linted for format and
# counter monotonicity.
"$(dirname "$0")/metrics_check.sh" "$PORT"

echo "PASS: $ROUNDS rounds × ($UPDATES random + $((WRITERS * PER_WRITER)) concurrent + 3 aux) updates, ${SEGMENT_BYTES}-byte WAL segments, kill -9 each round, both collections identical on the probe panels"
