#!/usr/bin/env bash
# Dead public API gate, run by CI's `docs` job and locally
# (`tools/check_pub_callers.sh`).
#
# Every `pub fn|struct|enum|trait|type|const|static|mod` item of a library
# crate (crates/*/src, except crates/bench) needs at least one reference,
# other than its own definition line, in non-test, non-comment code under
# crates/*/src, crates/bench, examples/, tests/ or vperf/src. A `pub fn`
# counts only call-shaped references — `name(`, `name::<` or `::name`, and
# not a `fn name(` definition — so a field, a local or a variant of the
# same name is no caller; any other item counts whole-word references.
# A file's code ends at its first column-0 `#[cfg(test)]` (as in
# tools/loc.sh), crates/*/tests/ are not read, and neither are `//`
# comments, doc comments (so doc tests), or one-line string literals. A
# `pub use` re-export names items without calling them, so it counts only
# as a reference to the modules on its path.
#
# Items with no such caller that are kept on purpose are listed in
# tools/pub_callers_allow.txt, one `path name — reason` line each. The
# check fails on an unlisted item without callers, and on a stale
# allow-list line: the item has a caller now, or no longer exists.
#
# Known blind spots: references are counted by name, not resolved, so a
# function whose name is common (`new`, `finish`, `label`, ...) counts every
# call of another function of that name as its own; and multi-line (raw)
# string literals — embedded guest C or assembly — are read as code.
set -u
cd "$(dirname "$0")/.."
export LC_ALL=C

allow=tools/pub_callers_allow.txt

# One `def path name` line per item and one `dead path name` line per item
# without callers.
files=$(find crates/*/src examples tests vperf/src -name '*.rs' | sort)
# One awk over every file, so the reference counts span files.
items=$(awk -v q="'" '
    FNR == 1 { in_tests = 0; reexport = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
        line = $0
        gsub(q "\\\\?." q, "", line)                  # char literals
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)        # string literals
        sub(/\/\/.*/, "", line)                       # comments
        n = split(line, w, /[^A-Za-z0-9_]+/)
    }
    reexport || line ~ /^[ \t]*pub use / {
        reexport = (line !~ /;/)
        for (i = 1; i <= n; i++) if (w[i] != "") via_reexport[w[i]]++
        next
    }
    {
        for (i = 1; i <= n; i++) if (w[i] != "") count[w[i]]++
        # Call-shaped references, for `pub fn` items.
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*[ \t]*(\(|::<)/)) {
            tok = substr(rest, RSTART, RLENGTH)
            sub(/[ \t]*(\(|::<)$/, "", tok)
            if (substr(rest, 1, RSTART - 1) !~ /(^|[^A-Za-z0-9_])fn[ \t]+$/) calls[tok]++
            rest = substr(rest, RSTART + RLENGTH)
        }
        rest = line
        while (match(rest, /::[A-Za-z_][A-Za-z0-9_]*/)) {
            tok = substr(rest, RSTART + 2, RLENGTH - 2)
            rest = substr(rest, RSTART + RLENGTH)
            if (rest !~ /^[ \t]*(\(|::<)/) calls[tok]++
        }
    }
    FILENAME ~ /^crates\// && FILENAME !~ /^crates\/bench\// &&
    line ~ /^[ \t]*pub[ \t]/ {
        k = 1
        while (w[k] == "" || w[k] == "pub" || w[k] == "unsafe" || w[k] == "async" ||
               w[k] == "extern" || w[k] == "C" ||
               (w[k] == "const" && (w[k + 1] == "fn" || w[k + 1] == "unsafe")))
            k++
        if (w[k] ~ /^(fn|struct|enum|trait|type|const|static|mod)$/ && w[k + 1] != "") {
            ndef++
            def_file[ndef] = FILENAME
            def_name[ndef] = w[k + 1]
            def_mod[ndef] = (w[k] == "mod")
            def_fn[ndef] = (w[k] == "fn")
            for (i = 1; i <= n; i++) if (w[i] == w[k + 1]) def_own[ndef]++
        }
    }
    END {
        for (d = 1; d <= ndef; d++) {
            name = def_name[d]
            print "def " def_file[d] " " name
            if (def_fn[d])
                refs = calls[name]
            else
                refs = count[name] - def_own[d] + (def_mod[d] ? via_reexport[name] : 0)
            if (refs < 1) print "dead " def_file[d] " " name
        }
    }' $files | sort -u)
dead=$(echo "$items" | sed -n 's/^dead //p')
defined=$(echo "$items" | sed -n 's/^def //p')
listed=$(grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | awk '{ print $1 " " $2 }' | sort)

fail=0
unlisted=$(comm -23 <(echo "$dead") <(echo "$listed") | grep -v '^$')
if [ -n "$unlisted" ]; then
    echo "pub items with no caller outside tests (delete them, or list them with a reason in $allow):"
    echo "$unlisted" | sed 's/^/  /'
    fail=1
fi
for entry in $(comm -13 <(echo "$dead") <(echo "$listed") | tr ' ' ':'); do
    entry=${entry/:/ }
    if echo "$defined" | grep -qxF "$entry"; then
        echo "STALE ALLOW-LIST LINE: $entry has a caller now (drop its line from $allow)"
    else
        echo "STALE ALLOW-LIST LINE: $entry no longer exists (drop its line from $allow)"
    fi
    fail=1
done
dupes=$(echo "$listed" | uniq -d)
if [ -n "$dupes" ]; then
    echo "DUPLICATE ALLOW-LIST LINES: $dupes"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "pub caller check FAILED"
    exit 1
fi
echo "pub caller check ok ($(echo "$listed" | grep -c .) allow-listed)"
