#!/usr/bin/env bash
# Non-test code lines per crate and in total — the number ROADMAP aim 2
# tracks. A line counts when it sits in crates/<crate>/src/**/*.rs before
# the file's first column-0 `#[cfg(test)]`, is not blank, and is not a
# comment-only line (`//`, `///`, `//!`).
#
#   tools/loc.sh           print the per-crate table and the total
#   tools/loc.sh --check   also fail when the total exceeds
#                          tools/loc_budget.txt (a PR that needs more
#                          lines raises the budget in its own diff), or
#                          when any one file has more than 1000 such
#                          lines (no file should need a table of contents)
set -eu
cd "$(dirname "$0")/.."

count() {
    # Code lines of the files given on stdin (one path per line).
    xargs -r awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' | sort | count)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

if [ "${1:-}" = "--check" ]; then
    budget=$(tr -dc '0-9' <tools/loc_budget.txt)
    if [ "$total" -gt "$budget" ]; then
        echo "loc check FAILED: $total non-test lines exceed the budget of $budget (tools/loc_budget.txt)"
        exit 1
    fi
    echo "loc check ok ($total <= $budget)"
    ceiling=1000
    big=$(for f in $(find crates/*/src -name '*.rs' | sort); do
        n=$(echo "$f" | count)
        [ "$n" -le "$ceiling" ] || printf '  %s: %d\n' "$f" "$n"
    done)
    if [ -n "$big" ]; then
        echo "loc check FAILED: files over $ceiling non-test lines:"
        echo "$big"
        exit 1
    fi
    echo "loc check ok (no file over $ceiling)"
fi
