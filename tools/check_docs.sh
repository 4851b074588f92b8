#!/usr/bin/env bash
# Docs hygiene gate, run by CI and locally (`tools/check_docs.sh`).
#
# Dead-link check: every relative markdown link in README.md and
# docs/*.md must point at a file that exists, and a `#fragment` must
# match a heading in the target file (GitHub slug rules: lowercase,
# punctuation stripped, spaces to dashes).
#
# The metric catalog in docs/observability.md is checked by a tier-1 test
# of vhttp instead (`every_family_has_one_catalog_row_and_every_row_one_family`):
# its rows must equal the exposition's family tables by name, type and
# label keys, in both directions.
set -u
cd "$(dirname "$0")/.."

fail=0

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

if [ "$fail" -ne 0 ]; then
    echo "docs check FAILED"
    exit 1
fi
echo "docs check ok"
