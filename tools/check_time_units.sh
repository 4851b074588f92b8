#!/usr/bin/env bash
# Time-unit gate, run by CI's `docs` job and locally
# (`tools/check_time_units.sh`).
#
# Virtual time inside the libraries is `vclock::Cycles`; a value in f64
# seconds may enter only where a caller outside them pins the signature,
# and is converted once there with `Cycles::from_secs`. This check finds
# every declaration of an f64 named `*_s` or `*secs` — a parameter, a
# field or a typed `let`, as `f64`, `&f64`, `[f64]` or `Option<f64>` — in
# the library crates (crates/*/src, except crates/bench, whose bins are
# the boundary). A file's code ends at its first column-0 `#[cfg(test)]`
# (as in tools/loc.sh); `//` comments and one-line string literals are
# not read.
#
# Each declaration is named `path owner.name`, where the owner is the
# nearest `fn`, `struct` or `enum` above it, and must be listed in
# tools/time_units_allow.txt as one `path owner.name — reason` line. The
# check fails on an unlisted declaration and on a stale allow-list line
# (nothing by that name is declared there any more), so the list can
# only shrink with the code.
#
# Known blind spot: two declarations with the same owner and name in one
# file (say `offer(arrival_s: f64)` on two types) share one line.
set -u
cd "$(dirname "$0")/.."
export LC_ALL=C

allow=tools/time_units_allow.txt

files=$(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort)
found=$(awk -v q="'" '
    FNR == 1 { in_tests = 0; owner = "-" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
        line = $0
        gsub(q "\\\\?." q, "", line)                  # char literals
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)        # string literals
        sub(/\/\/.*/, "", line)                       # comments
        if (match(line, /(^|[^A-Za-z0-9_])(fn|struct|enum)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            item = substr(line, RSTART, RLENGTH)
            sub(/.*(fn|struct|enum)[ \t]+/, "", item)
            owner = item
        }
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*(_s|secs)[ \t]*:[ \t]*(&[ \t]*(mut[ \t]+)?)?(\[|Option<)?f64([^A-Za-z0-9_]|$)/)) {
            decl = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            sub(/[ \t]*:.*/, "", decl)
            print FILENAME " " owner "." decl
        }
    }' $files | sort -u)
listed=$(grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | awk '{ print $1 " " $2 }' | sort)

fail=0
unlisted=$(comm -23 <(echo "$found") <(echo "$listed") | grep -v '^$')
if [ -n "$unlisted" ]; then
    echo "f64 seconds in library code (take vclock::Cycles, or list the declaration with a reason in $allow):"
    echo "$unlisted" | sed 's/^/  /'
    fail=1
fi
stale=$(comm -13 <(echo "$found") <(echo "$listed") | grep -v '^$')
if [ -n "$stale" ]; then
    echo "$stale" | sed "s|^|STALE ALLOW-LIST LINE: |; s|\$| is no longer declared (drop its line from $allow)|"
    fail=1
fi
dupes=$(echo "$listed" | uniq -d)
if [ -n "$dupes" ]; then
    echo "DUPLICATE ALLOW-LIST LINES: $dupes"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "time unit check FAILED"
    exit 1
fi
echo "time unit check ok ($(echo "$listed" | grep -c .) f64-second declarations, each listed)"
