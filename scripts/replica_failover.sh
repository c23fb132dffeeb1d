#!/usr/bin/env bash
# Replica failover soak for `silkmoth serve --replicate-addr/--replicate-from`.
#
# With a fixed seed:
#   1. start a durable PRIMARY that ships its WAL on a replication
#      listener, and a FOLLOWER that starts from an *empty* data dir
#      (it must bootstrap a snapshot over the wire, then tail),
#   2. issue random acknowledged updates (appends / removes / compacts /
#      forced snapshot rotations) against the primary over HTTP,
#      recording each acked one,
#   3. wait for the follower to catch up (matching `update_seq`), then
#      `kill -9` the primary — no goodbye,
#   4. `POST /promote` the follower: it must flip to the primary role,
#      bump the failover epoch, and start accepting writes,
#   5. issue more acked updates against the promoted follower,
#   6. build a REFERENCE server fresh from the seed input, replay the
#      exact acked update sequence, and diff a panel of search results
#      (ids + scores) against the promoted follower.
# Any divergence — or a write the promoted follower lost — fails.
#
# Usage: scripts/replica_failover.sh [updates] [post-failover-updates]
# Env:   SILKMOTH=path/to/silkmoth (default: target/release/silkmoth)
#        METRICSLINT=path/to/metricslint (default: target/release/metricslint)

set -euo pipefail

UPDATES="${1:-25}"
POST_UPDATES="${2:-10}"
SEED=20170711 # fixed: the soak is reproducible run-to-run
SILKMOTH="${SILKMOTH:-target/release/silkmoth}"
PORT=7751     # primary HTTP
F_PORT=7752   # follower HTTP
REF_PORT=7753 # reference HTTP
REPL=7851     # primary replication log listener
WORK="$(mktemp -d)"
P_STORE="$WORK/primary"
F_STORE="$WORK/follower"
INPUT="$WORK/seed.sets"
OPS="$WORK/ops.jsonl" # every acknowledged update, in order
PRIMARY_PID=""
FOLLOWER_PID=""
REF_PID=""

cleanup() {
    for pid in "$PRIMARY_PID" "$FOLLOWER_PID" "$REF_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
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
            # Durable-only: force a checkpoint + WAL rotation. On the
            # primary this also forces any follower that lags past the
            # rotation to re-bootstrap. Not replayed on the reference
            # (a 409 there, and state-neutral anyway).
            curl -sf -X POST "localhost:$port/snapshot" >/dev/null ||
                die "snapshot not acknowledged"
        fi
    done
}

check_sets() {
    local port="$1" want got
    want="$(live_count)"
    got=$(curl -sf "localhost:$port/stats" | jq .sets)
    [ "$got" = "$want" ] || die "port $port reports $got sets, expected $want"
}

update_seq() {
    curl -sf "localhost:$1/stats" | jq .storage.update_seq
}

wait_caught_up() {
    local want
    want=$(update_seq "$PORT")
    for _ in $(seq 1 200); do
        if [ "$(update_seq "$F_PORT")" = "$want" ]; then
            return 0
        fi
        sleep 0.1
    done
    die "follower stuck at $(update_seq "$F_PORT") of $want"
}

# --- primary + follower ----------------------------------------------------
# --slow-query-ms 0 arms slow-query trace capture on both roles so
# metrics_check.sh can verify /debug/traces caught its adversarial query;
# the follower's --trace-sample 1 also traces every replicated apply.
"$SILKMOTH" serve --input "$INPUT" --data-dir "$P_STORE" --port "$PORT" \
    --shards 3 --threads 2 --delta 0.4 --replicate-addr "127.0.0.1:$REPL" \
    --slow-query-ms 0 &
PRIMARY_PID=$!
wait_healthy "$PORT"
# The follower's data dir does not exist: everything it serves must
# arrive through the replication stream.
"$SILKMOTH" serve --data-dir "$F_STORE" --port "$F_PORT" \
    --shards 3 --threads 2 --delta 0.4 --replicate-from "127.0.0.1:$REPL" \
    --slow-query-ms 0 --trace-sample 1 &
FOLLOWER_PID=$!
wait_healthy "$F_PORT"

role=$(curl -sf "localhost:$F_PORT/healthz" | jq -r .role)
[ "$role" = "follower" ] || die "follower reports role '$role'"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "localhost:$F_PORT/sets" \
    -d '{"sets": [["too early"]]}')
[ "$code" = "409" ] || die "follower accepted a write pre-promotion (HTTP $code)"

issue_updates "$PORT" "$UPDATES"
check_sets "$PORT"
wait_caught_up
# The follower's sampled applies sit in its trace ring (256 traces):
# check them before later traffic can evict them.
curl -sf "localhost:$F_PORT/debug/traces" >"$WORK/follower.traces.json" ||
    die "fetching the follower's /debug/traces"
"${METRICSLINT:-target/release/metricslint}" --traces "$WORK/follower.traces.json" \
    --require-route replica/apply || die "no replica/apply trace on the follower"
check_sets "$F_PORT"
echo "# follower caught up at update_seq $(update_seq "$F_PORT") with $(live_count) live sets"

# Both roles are live and mid-replication: validate the /metrics
# exposition on the primary AND the follower (two scrapes each, linted
# for format and counter monotonicity).
"$(dirname "$0")/metrics_check.sh" "$PORT" "$F_PORT"

# --- kill -9 the primary, promote the follower -----------------------------
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""

promoted=$(curl -sf -X POST "localhost:$F_PORT/promote")
[ "$(echo "$promoted" | jq -r .role)" = "primary" ] || die "promote answered: $promoted"
[ "$(echo "$promoted" | jq .epoch)" = "1" ] || die "promote did not bump the epoch: $promoted"
role=$(curl -sf "localhost:$F_PORT/healthz" | jq -r .role)
[ "$role" = "primary" ] || die "promoted follower reports role '$role'"

issue_updates "$F_PORT" "$POST_UPDATES"
check_sets "$F_PORT"
echo "# promoted follower took $POST_UPDATES post-failover updates"

# --- differential check vs a reference rebuild -----------------------------
"$SILKMOTH" serve --input "$INPUT" --port "$REF_PORT" --shards 1 --threads 2 --delta 0.4 &
REF_PID=$!
wait_healthy "$REF_PORT"

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

# Probe panel: results (ids + scores) must match exactly. Pass stats
# may legitimately differ (pruning depends on index internals), so only
# the "results" field is compared.
for probe in \
    '{"reference": ["w0 w3 shared0", "w3 shared1"], "floor": 0.1}' \
    '{"reference": ["w1 w4 shared1"], "k": 5, "floor": 0.0}' \
    '{"reference": ["w6 shared3", "w9 w2"], "floor": 0.3}' \
    '{"reference": ["nothing matches this probe"], "floor": 0.0}'; do
    got=$(curl -sf -X POST "localhost:$F_PORT/search" -d "$probe" | jq -S .results)
    want=$(curl -sf -X POST "localhost:$REF_PORT/search" -d "$probe" | jq -S .results)
    if [ "$got" != "$want" ]; then
        echo "probe: $probe" >&2
        echo "promoted: $got" >&2
        echo "reference: $want" >&2
        die "promoted follower diverges from the reference rebuild"
    fi
done

echo "PASS: bootstrap from empty dir, $UPDATES replicated updates, kill -9 + promote, $POST_UPDATES post-failover updates, results identical to the reference rebuild"
