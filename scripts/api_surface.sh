#!/usr/bin/env bash
# Dumps the workspace's public API surface to a checked-in snapshot
# (scripts/api_surface.txt) so that API changes are deliberate: CI runs
# `./scripts/api_surface.sh --check` and fails on any diff that was not
# committed alongside the code change.
#
#   ./scripts/api_surface.sh           # regenerate the snapshot in place
#   ./scripts/api_surface.sh --check   # diff against the snapshot; exit 1 on drift
#
# The dump is a grep-level approximation (no nightly rustdoc-JSON in this
# toolchain): for every non-test, non-vendored source file it lists the
# `pub` items — fns, types, traits, consts, statics, modules, re-exports,
# macros, and public struct fields — first line only for multi-line
# signatures, prefixed with the file path and sorted. That is enough to
# catch additions, removals, renames, and signature changes of anything
# exported from the workspace crates.
#
# Beside the snapshot it keeps a size budget (scripts/size_budget.txt):
# the number of public items, and the workspace's product lines — the
# lines before the first `#[cfg(test)]` of every crates/*/src/**/*.rs
# (the benchmark suite package excepted) and src/**/*.rs — and those
# product lines split into code, comment (`//`, `///`, `//!`) and blank
# lines — and beside them the test lines: those from the first
# `#[cfg(test)]` on in the same files, plus every line of tests/**/*.rs
# and crates/*/tests/**/*.rs. `--check` prints each number's change
# against the recorded one
# and fails when the public items or the product lines differ from the
# record in either direction (it prints every delta before it fails,
# on drift too): growth, like API drift, has to be
# committed deliberately, and a shrink has to be re-recorded so that the
# lines it freed cannot be spent again unrecorded. The split and the
# test lines are reported, not gated.

set -euo pipefail
cd "$(dirname "$0")/.."

SNAPSHOT=scripts/api_surface.txt
BUDGET=scripts/size_budget.txt

generate() {
    # src/ (the facade crate + CLI) and crates/*/src; vendor/ is
    # explicitly out of scope (stand-in crates, not our API).
    find src crates -name '*.rs' -path '*/src/*' -o -name '*.rs' -path 'src/*' \
        | LC_ALL=C sort \
        | while read -r f; do
            # `pub` / `pub(crate)` etc. — only plain `pub` is public API.
            grep -hE '^[[:space:]]*pub (fn|unsafe fn|struct|enum|trait|type|const|static|mod|use|macro_rules!|[A-Za-z_][A-Za-z0-9_]*:)' "$f" \
                | sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' -e "s|^|$f: |" \
                || true
        done
}

# source_lines — "<total> <code> <comment> <blank> <test>": product
# lines, their split, and the lines from each file's first
# `#[cfg(test)]` on.
source_lines() {
    find src crates -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' \) \
        -not -path 'crates/bench/src/bin/suite/*' -print0 \
        | xargs -0 awk 'FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            !counting { test++; next }
            { n++ }
            /^[[:space:]]*$/ { blank++ }
            /^[[:space:]]*\/\// { comment++ }
            END { print n + 0, n - comment - blank, comment + 0, blank + 0, test + 0 }'
}

# budget <public items> — the tracked numbers, one per line.
budget() {
    local total code comment blank test suites
    read -r total code comment blank test < <(source_lines)
    suites=$(find tests crates/*/tests -name '*.rs' -print0 | xargs -0 cat | wc -l)
    echo "public_items $1"
    echo "product_lines $total"
    echo "product_code_lines $code"
    echo "product_comment_lines $comment"
    echo "product_blank_lines $blank"
    echo "test_lines $((test + suites))"
}

case "${1:-}" in
--check)
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    generate >"$tmp"
    # Every number's delta first, so a failing run still reports the
    # size change; then the verdicts.
    errors=()
    while read -r name now; do
        recorded=$(awk -v name="$name" '$1 == name { print $2 }' "$BUDGET")
        if [ -n "$recorded" ]; then
            printf '%s %s (%+d against %s)\n' "$name" "$now" $((now - recorded)) "$recorded"
        else
            echo "$name $now (not recorded)"
        fi
        case "$name" in
        public_items | product_lines) ;;
        *) continue ;;
        esac
        if [ -z "$recorded" ] || [ "$now" -gt "$recorded" ]; then
            errors+=("error: $name rose to $now (budget in $BUDGET: ${recorded:-none})."
                "If the growth is deliberate, run ./scripts/api_surface.sh and"
                "commit the regenerated budget with your change.")
        elif [ "$now" -lt "$recorded" ]; then
            errors+=("error: $name fell to $now (budget in $BUDGET: $recorded)."
                "Run ./scripts/api_surface.sh to re-record the lower number and"
                "commit the regenerated budget with your change.")
        fi
    done < <(budget "$(wc -l <"$tmp")")
    status=0
    if diff -u "$SNAPSHOT" "$tmp"; then
        echo "API surface matches $SNAPSHOT ($(wc -l <"$SNAPSHOT") public items)."
    else
        echo >&2
        echo "error: public API surface drifted from $SNAPSHOT." >&2
        echo "If the change is deliberate, run ./scripts/api_surface.sh and" >&2
        echo "commit the regenerated snapshot with your change." >&2
        status=1
    fi
    if [ "${#errors[@]}" -gt 0 ]; then
        printf '%s\n' "${errors[@]}" >&2
        status=1
    fi
    exit "$status"
    ;;
"")
    generate >"$SNAPSHOT"
    budget "$(wc -l <"$SNAPSHOT")" >"$BUDGET"
    echo "Wrote $SNAPSHOT ($(wc -l <"$SNAPSHOT") public items) and $BUDGET:"
    cat "$BUDGET"
    ;;
*)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac
