#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails if any end-to-end
# metric of any workload differs between the two by more than its own bound
# (bound 0: failed_share and the modelled ledger must be exactly equal).
# Arguments are passed on to run.sh (--seed N, --quick).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
for side in a b; do
    echo "agree.sh: run $side" >&2
    "$here/run.sh" "$@" | grep '^e2e ' > "$here/out/agree.$side.txt"
done

# e2e <workload> <metric> <value> <unit> <better> <bound>
awk '
    NR == FNR { first[$2 " " $3] = $4; next }
    {
        a = first[$2 " " $3]; b = $4; bound = $7
        diff = (a == b) ? 0 : (a == 0 ? 1 : (b - a) / a)
        if (diff < 0) diff = -diff
        verdict = (diff > bound) ? "DISAGREE" : "ok"
        if (diff > bound) bad++
        printf "%-14s %-22s %16s %16s %-8s %6.2f%% (bound %g%%) %s\n", $2, $3, a, b, $5, diff * 100, bound * 100, verdict
    }
    END {
        if (bad) { printf "agree.sh: %d metric(s) disagree\n", bad; exit 1 }
        print "agree.sh: the two runs agree within every bound"
    }
' "$here/out/agree.a.txt" "$here/out/agree.b.txt"
