#!/usr/bin/env bash
# Non-test lines per crate, at a revision and in the working tree.
#
#   scripts/loc.sh [REV]
#
# Counts the lines of every `.rs` file under `crates/*/src`, each file cut
# at its first column-0 `#[cfg(test)]` (the unit tests below it are not
# counted; blank and comment lines above it are), and skips whole every file
# of a module declared under `#[cfg(test)]` (`#[cfg(test)] mod m;`), for
# REV (default HEAD,
# extracted with `git archive`) and for the working tree, untracked files
# included. Prints one row per crate, REV's count, the tree's and the
# delta, then the totals.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="${1:-HEAD}"
work="$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git -C "$repo" archive "$rev" crates | tar -x -C "$work"

# The files that can hold a module declared under `#[cfg(test)]`, on the
# declaration's line or the line above it: `m.rs` and `m/mod.rs` in the
# declaring file's module directory. One path a line.
test_modules() {
    find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { armed = 0 }
        /#\[cfg\(test\)\]/ { armed = 1 }
        armed && match($0, /^[ \t]*(#\[cfg\(test\)\][ \t]*)?(pub(\([a-z]+\))? )?mod [a-z0-9_]+;/) {
            match($0, /mod [a-z0-9_]+;/)
            name = substr($0, RSTART + 4, RLENGTH - 5)
            dir = FILENAME
            sub(/\.rs$/, "", dir)
            sub(/\/(lib|main|mod)$/, "", dir)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        !/#\[cfg\(test\)\]/ { armed = 0 }'
}

# One `crate<TAB>lines` row per crate of the tree at $1, sorted by crate.
count() {
    (cd "$1" && find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 awk -v tests="$(test_modules)" '
        BEGIN { split(tests, list, "\n"); for (i in list) skip[list[i]] = 1 }
        FNR == 1 { split(FILENAME, path, "/"); n[path[2]] += 0; cut = FILENAME in skip }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n[path[2]]++ }
        END { for (c in n) print c "\t" n[c] }') | sort
}

printf '%-12s %8s %8s %7s\n' crate "$rev" tree delta
join -t $'\t' -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$work") <(count "$repo") | awk -F '\t' '
    { printf "%-12s %8d %8d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-12s %8d %8d %+7d\n", "total", a, b, b - a }'
