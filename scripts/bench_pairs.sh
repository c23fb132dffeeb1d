#!/usr/bin/env bash
# Compares the working tree with a parent commit on one workload of the
# benchmark suite, the way the ROADMAP asks two commits to be compared on
# a small shared box: alternating pairs of full runs, medians with
# quartiles, and a win count — never one run against one run.
#
#   ./scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#   ./scripts/bench_pairs.sh HEAD~1 topk-candidates
#
# The parent is exported (`git archive`) into a directory of its own and
# the change is the working tree in place; each side builds the suite and
# `silkmoth` into a fresh target directory, so neither reuses the other's
# or an earlier build's artefacts, and each runs from its own root,
# because the suite builds and drives the `silkmoth` of the directory it
# is started in. Building in place may rewrite the suite's Cargo.lock
# (cargo drops entries for crates the workspace no longer has); the
# script saves it first and restores it on exit, however it exits. Pair i runs both sides with `--seed i` (the seed only
# orders the fixed data) for the contract's `run_seconds`; odd pairs run
# the parent first, even pairs the change.
#
# Prints, per end-to-end metric of BENCHMARK.json, both medians with
# their quartiles, the ratio of the medians (change / parent) and how many
# pairs the change won (ties count for neither side). The suite's rule
# for a gain: the change wins at least nine pairs in ten and the medians
# differ by more than the parent's own quartile distance. Every run's
# result line is kept under target/bench_pairs/<workload>/.
#
# After the pairs, one traced run per side (`--trace 1 --seed 1`) and its
# counts side by side, each marked `=` or `≠`: the read funnel — the
# op-list hash and answer digest, the signature cost, the candidates
# after each filter, the pairs verified and found, the φ evaluations and
# the index size — and beside it the write path — the snapshot's bytes
# on disk, the snapshots the run took, the WAL bytes per update and the
# records recovery replayed. These are counts the program makes, and
# they repeat exactly: a change that claims the same answers from the
# same funnel shows `=` on every row but the ones it says it moves. A
# storage change shows its rows on the write path: across the
# dictionary-coded snapshot (format v3) only `storage.snapshot.bytes`
# moves, down. Across verification bounded by the threshold in force
# they were `core.sim_evals` (down: verification reads the pass's φ
# table and stops at the column bound) and `core.verify.results`
# (redefined: verified pairs that reached the threshold they were
# verified against), and in the traced runs' logs
# `core.verify.useful_ratio` and `core.engine.verify_us` with them;
# `bench.trace_accounted_ratio` rises further above 1 there, because the
# suite's frozen replay still solves every floor survivor without the
# bound.
#
# Below the funnel, where the time went in the same two traced runs. The
# read path: `core.filter.us` (the posting walk, the check filter and the
# nearest-neighbor filter of one query), `core.engine.stage_us` and
# `core.engine.verify_us` (the engine's own two phases). Building and
# opening: `collection.build_s` (one collection built from the corpus's
# texts), `server.shard.build_s` (the sharded engine the server builds),
# `storage.open.s` (recovery: snapshot load, rebuild and WAL replay) and
# `core.engine.apply_us` (one update applied to the engine). The
# request path around the engine: `server.http.roundtrip_us` (one
# request's round trip over the socket), `server.json.decode_us` and
# `server.json.encode_us` (the request and reply documents), and
# `collection.encode_us` (the reference encoded against a shard's
# dictionary). And `bench.rss_serving_peak_mb`. Each row gives each side's value and their
# ratio (change / parent). Timings do not repeat exactly, so these rows
# carry no `=` / `≠`: a saving claimed for a layer shows as a ratio below
# 1 on its rows. Across the candidate stage without a candidates × |R|
# matrix, whose funnel rows are all `=`, the ones that move are
# `core.filter.us` and `core.engine.stage_us`, down; across the one-walk
# collection build, `collection.build_s`, `server.shard.build_s` and
# `storage.open.s`, down. Across the nearest-neighbor filter that probes
# only up to the sim-thresh cap (with the walk's φ cache), one funnel row
# moves: `core.sim_evals`, down on `topk-candidates`, `topk-verify` and
# `mixed-rw` and `=` on `floor-small` (α = 0 there, so no cap applies);
# every other row stays `=`. Across the HTTP front that re-arms its read
# timeout only before a socket read and writes each reply in one write,
# with JSON strings escaped by runs, the request-path rows go down
# (`server.http.roundtrip_us` and `server.json.encode_us` most) and
# every funnel and write-path row stays `=`.
#
# Run nothing else meanwhile: the suite pins itself and its server to one
# CPU, and this box has two.

set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$ref^{commit}")
seconds=$(jq -r .run_seconds BENCHMARK.json)
manifest=crates/bench/src/bin/suite/Cargo.toml

work=$root/target/bench_pairs/$workload
rm -rf "$work"
mkdir -p "$work/parent"
git archive "$commit" | tar -x -C "$work/parent"

# Building the change side in place lets cargo re-resolve the suite's
# lockfile against the working tree's crates; put it back on exit.
lock=$root/crates/bench/src/bin/suite/Cargo.lock
cp "$lock" "$work/suite.Cargo.lock"
trap 'cp "$work/suite.Cargo.lock" "$lock"' EXIT

# side_root <side> — the directory a side is built in and run from.
side_root() {
    if [ "$1" = parent ]; then echo "$work/parent"; else echo "$root"; fi
}

for side in parent change; do
    echo "# building $side ($(side_root "$side"))" >&2
    (cd "$(side_root "$side")" &&
        CARGO_TARGET_DIR=$work/$side-target \
            cargo build --release --offline --quiet --manifest-path "$manifest")
done

# suite <side> <seed> <trace> — one full run of a side, from its root.
suite() {
    (cd "$(side_root "$1")" &&
        CARGO_TARGET_DIR=$work/$1-target "$work/$1-target/release/suite" \
            --workload "$workload" --seed "$2" --seconds "$seconds" --trace "$3")
}

# run <side> <seed> — one untraced run; its result line goes to <side>.jsonl.
run() {
    suite "$1" "$2" 0 >"$work/$1.$2.log"
    tail -n 1 "$work/$1.$2.log" >>"$work/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "# pair $i/$pairs: $side" >&2
        run "$side" "$i"
    done
done

echo "$workload: $pairs pairs of $seconds s runs, parent $(git rev-parse --short "$commit") vs the working tree"
jq -rn --slurpfile parent "$work/parent.jsonl" --slurpfile change "$work/change.jsonl" \
    --slurpfile contract BENCHMARK.json '
    def quantile(f): sort as $s | (f * (($s | length) - 1)) as $pos | ($pos | floor) as $lo
        | $s[$lo] + ($pos - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
    def summary: "\(quantile(0.5)) [\(quantile(0.25)) \(quantile(0.75))]";
    (["metric", "unit", "parent median [q1 q3]", "change median [q1 q3]", "change/parent", "wins"] | @tsv),
    ($contract[0].end_to_end[] | . as $m
        | [$parent[].metrics[$m.name].value] as $p
        | [$change[].metrics[$m.name].value] as $c
        | [range(0; $p | length) | select(if $m.better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] as $won
        | [$m.name, $m.unit, ($p | summary), ($c | summary),
           (($c | quantile(0.5)) / ($p | quantile(0.5))), "\($won | length)/\($p | length)"]
        | @tsv),
    "failed operations: parent \([$parent[].failed] | add), change \([$change[].failed] | add); " +
    "answers correct: parent \([$parent[].correct] | all), change \([$change[].correct] | all)"
' | awk -F'\t' '
    function short(s,    out, n, parts, i) {
        n = split(s, parts, " ")
        out = ""
        for (i = 1; i <= n; i++) {
            word = parts[i]; lead = ""; trail = ""
            if (substr(word, 1, 1) == "[") { lead = "["; word = substr(word, 2) }
            if (substr(word, length(word)) == "]") { trail = "]"; word = substr(word, 1, length(word) - 1) }
            if (word ~ /^-?[0-9.]+(e-?[0-9]+)?$/) word = sprintf("%.5g", word)
            out = out (i > 1 ? " " : "") lead word trail
        }
        return out
    }
    NF < 6 { print; next }
    { printf "%-26s %-6s %-30s %-30s %-14s %s\n", $1, $2, short($3), short($4), short($5), $6 }'

for side in parent change; do
    echo "# funnel: $side" >&2
    suite "$side" 1 1 >"$work/$side.trace.log"
done

# funnel_rows <side> — `name<TAB>value` per read-funnel and write-path
# row of a traced run.
funnel_rows() {
    sed -n 's/.*: op list \([0-9a-f]*\), answer digest \([0-9a-f]*\),.*/op list\t\1\nanswer digest\t\2/p' \
        "$work/$1.trace.log"
    tail -n 1 "$work/$1.trace.log" | jq -r '.metrics as $m
        | ("core.signature.cost core.filter.candidates core.filter.after_check core.filter.after_nn " +
           "core.verify.verified core.verify.results core.sim_evals collection.postings collection.tokens " +
           "storage.snapshot.bytes storage.snapshot.count storage.wal.bytes_per_update storage.open.replayed_records"
           | split(" ")[]) as $name
        | "\($name)\t\($m[$name].value)"'
}

echo
echo "funnel and write path, one --trace 1 --seed 1 run per side (funnel counts per query; = equal, ≠ moved):"
paste <(funnel_rows parent) <(funnel_rows change) | awk -F'\t' '
    BEGIN { printf "%-26s %-20s %-20s\n", "count", "parent", "change" }
    { printf "%-26s %-20s %-20s %s\n", $1, $2, $4, ($2 == $4 ? "=" : "≠") }'

# timing_rows <side> — `name<TAB>value` per traced timing row.
timing_rows() {
    tail -n 1 "$work/$1.trace.log" | jq -r '.metrics as $m
        | ("core.filter.us core.engine.stage_us core.engine.verify_us collection.build_s " +
           "server.shard.build_s storage.open.s core.engine.apply_us " +
           "server.http.roundtrip_us server.json.decode_us server.json.encode_us collection.encode_us " +
           "bench.rss_serving_peak_mb"
           | split(" ")[]) as $name
        | "\($name)\t\($m[$name].value)"'
}

echo
echo "where the time went, the same traced runs (timings do not repeat exactly: change/parent, no = / ≠):"
paste <(timing_rows parent) <(timing_rows change) | awk -F'\t' '
    BEGIN { printf "%-26s %-20s %-20s %s\n", "trace", "parent", "change", "change/parent" }
    { printf "%-26s %-20.6g %-20.6g %s\n", $1, $2, $4, ($2 > 0 ? sprintf("%.3f", $4 / $2) : "-") }'
