#!/usr/bin/env bash
# Docs hygiene gate, run by CI and locally (`tools/check_docs.sh`).
#
# 1. Dead-link check: every relative markdown link in README.md and
#    docs/*.md must point at a file that exists, and a `#fragment` must
#    match a heading in the target file (GitHub slug rules: lowercase,
#    punctuation stripped, spaces to dashes).
# 2. Metric-catalog check: every `vsched_*` / `vslo_*` / `visa_*` /
#    `wasp_*` metric name exported from library code (crates/*/src) must
#    appear in docs/observability.md, either verbatim or covered by a
#    documented `_*` wildcard row.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative links (and their anchors) -------------------------------
slugs_of() {
    # GitHub-style anchors for every heading in a markdown file.
    sed -n 's/^#\{1,6\} //p' "$1" |
        tr '[:upper:]' '[:lower:]' |
        sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    # Relative links only: skip http(s), mailto, and pure in-page anchors.
    links=$(grep -o '](\([^)]*\))' "$doc" | sed -e 's/^](//' -e 's/)$//' |
        grep -v -e '^https\?:' -e '^mailto:' -e '^#' || true)
    for link in $links; do
        target=${link%%#*}
        frag=""
        case "$link" in *#*) frag=${link#*#} ;; esac
        path="$dir/$target"
        if [ ! -e "$path" ]; then
            echo "DEAD LINK: $doc -> $link ($path does not exist)"
            fail=1
            continue
        fi
        if [ -n "$frag" ] && [ -f "$path" ]; then
            if ! slugs_of "$path" | grep -qx "$frag"; then
                echo "STALE ANCHOR: $doc -> $link (no heading slugs to '$frag' in $path)"
                fail=1
            fi
        fi
    done
done

# --- 2. metric catalog ----------------------------------------------------
catalog=docs/observability.md
if [ ! -f "$catalog" ]; then
    echo "MISSING: $catalog"
    exit 1
fi
# Metric names exported from code: string literals starting with a metric
# prefix. Bench harnesses (crates/*/benches) name benchmarks, not metrics.
exported=$(grep -rhoE '"(vsched|vslo|visa|wasp)_[a-z0-9_]+' crates/*/src --include='*.rs' |
    tr -d '"' | sort -u)
# Documented wildcard prefixes (rows like `vsched_shard_*`).
wildcards=$(grep -oE '(vsched|vslo|visa|wasp)_[a-z0-9_]+_\*' "$catalog" | sed 's/\*$//' | sort -u)
for m in $exported; do
    if grep -q "$m" "$catalog"; then
        continue
    fi
    covered=0
    for w in $wildcards; do
        case "$m" in "$w"*) covered=1 ;; esac
    done
    if [ "$covered" -eq 0 ]; then
        echo "UNDOCUMENTED METRIC: $m exported from code but absent from $catalog"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs check FAILED"
    exit 1
fi
echo "docs check ok"
