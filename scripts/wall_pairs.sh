#!/usr/bin/env bash
# Parent-versus-change evidence for the host-time ledger.
#
#   scripts/wall_pairs.sh [PARENT_REV] [PAIRS] [TRACED_WORKLOAD] > BENCH_wall.json
#
# Extracts PARENT_REV (default HEAD~1) into a scratch directory with
# `git archive`, then for every workload of BENCHMARK.json runs PAIRS
# (default 10) pairs of the unmodified
#
#   benchmark/run.sh --workload W --seed N --seconds 10 --trace 0
#
# one run in the parent's tree and one in this one, the same seed for both
# runs of a pair and a different one for each pair, alternating which side
# goes first. Three traced pairs on TRACED_WORKLOAD (default `interp_only`;
# name the workload the change claims its gain on), seed 23, alternating
# order, run inside that workload's pair loop after pairs 1, ceil(PAIRS/2)
# and PAIRS, so that one slow minute cannot move one side's layers alone.
# They add every per-layer metric BENCHMARK.json declares, as
# `traced_<workload>`: per side and metric, the median of the three runs
# and the runs. Prints, per workload and end-to-end metric: each side's
# runs, median and quartiles, how many pairs the change won, and a verdict
# by the benchmark's own bound. Progress goes to stderr.
#
# The report on stdout replaces the last one; so that the trajectory stays
# data, one compact row per workload (both `pass_ms` medians, pairs won,
# verdict) is also appended to BENCH_wall_history.json, which only grows.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="${1:-HEAD~1}"
pairs="${2:-10}"
traced="${3:-interp_only}"
work="$(mktemp -d "${TMPDIR:-/tmp}/wall_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
parent_sha="$(git -C "$repo" rev-parse "$parent_rev")"
change_sha="$(git -C "$repo" rev-parse HEAD)$(git -C "$repo" diff --quiet HEAD || echo '+uncommitted')"

# One run: prints the result line of run.sh, built in the side's own tree.
run_side() { # side workload seed trace
    local dir="$repo"
    [[ "$1" == parent ]] && dir="$work/parent"
    (cd "$dir" && benchmark/run.sh --workload "$2" --seed "$3" --seconds 10 --trace "$4") | tail -n 1
}

# One traced pair, the parent first in the first and third.
traced_pairs=0
traced_pair() {
    local order=(parent change)
    ((traced_pairs % 2)) && order=(change parent)
    for side in "${order[@]}"; do
        echo "[$traced] traced pair $((traced_pairs + 1))/3: $side" >&2
        printf '{"workload": "%s", "traced_pair": %d, "side": "%s", "traced": %s}\n' \
            "$traced" "$traced_pairs" "$side" "$(run_side "$side" "$traced" 23 1)" >> "$work/runs.jsonl"
    done
    traced_pairs=$((traced_pairs + 1))
}

workloads="$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$repo/BENCHMARK.json")"
traced_after=(0 $(((pairs + 1) / 2 - 1)) $((pairs - 1)))
: > "$work/runs.jsonl"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((101 + i))
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            echo "[$w] pair $((i + 1))/$pairs seed $seed: $side" >&2
            printf '{"workload": "%s", "pair": %d, "seed": %d, "side": "%s", "first": "%s", "result": %s}\n' \
                "$w" "$i" "$seed" "$side" "${order[0]}" "$(run_side "$side" "$w" "$seed" 0)" >> "$work/runs.jsonl"
        done
        if [[ "$w" == "$traced" ]]; then
            for after in "${traced_after[@]}"; do
                if ((after == i)); then traced_pair; fi
            done
        fi
    done
done
# A traced workload outside BENCHMARK.json's list (or PAIRS = 0) still gets its three.
while ((traced_pairs < 3)); do traced_pair; done

python3 - "$repo/BENCHMARK.json" "$work/runs.jsonl" "$parent_sha" "$change_sha" "$traced" \
    "$repo/BENCH_wall_history.json" <<'PY'
import json, os, statistics, sys

contract = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
bounds = {m["name"]: m for m in contract["end_to_end"]}
LAYERS = [m["name"] for m in contract["per_layer"]]


def side_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(metric, parent, change, wins, losses, n):
    lower = bounds[metric]["better"] == "lower"
    gain = (parent["median"] - change["median"]) if lower else (change["median"] - parent["median"])
    if all(v == parent["runs"][0] for v in parent["runs"] + change["runs"]):
        return "equal"
    if wins * 10 >= n * 9 and gain > parent["q3"] - parent["q1"]:
        return "better"
    if -gain > bounds[metric]["bound"] * parent["median"]:
        return "worse"
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    if spread > bounds[metric]["bound"] and losses > 0:
        return "unresolved"
    return "within bound"


workloads = []
for w in [x["name"] for x in contract["workloads"]]:
    mine = [r for r in runs if r["workload"] == w and "result" in r]
    n = len(mine) // 2
    failed = {s: sum(r["result"]["failed"] for r in mine if r["side"] == s) for s in ("parent", "change")}
    attempted = {s: sum(r["result"]["attempted"] for r in mine if r["side"] == s) for s in ("parent", "change")}
    metrics = {}
    for metric in bounds:
        by_side = {s: [r["result"]["metrics"][metric]["value"] for r in mine if r["side"] == s]
                   for s in ("parent", "change")}
        lower = bounds[metric]["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(by_side["parent"], by_side["change"]))
        ties = sum(c == p for p, c in zip(by_side["parent"], by_side["change"]))
        parent, change = side_stats(by_side["parent"]), side_stats(by_side["change"])
        metrics[metric] = {
            "unit": bounds[metric]["unit"], "better": bounds[metric]["better"], "bound": bounds[metric]["bound"],
            "parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "wins": wins, "ties": ties, "pairs": n,
            "verdict": verdict(metric, parent, change, wins, n - wins - ties, n),
        }
    workloads.append({"name": w, "pairs": n, "seeds": sorted({r["seed"] for r in mine}),
                      "attempted": attempted, "failed": failed,
                      "all_correct": all(r["result"]["correct"] for r in mine), "metrics": metrics})

# A traced run reports the layers its workload exercises; the rest are absent.
traced = {}
for side in ("parent", "change"):
    mine = [r["traced"]["metrics"] for r in runs if "traced" in r and r["side"] == side]
    traced[side] = {k: {"median": statistics.median(m[k]["value"] for m in mine),
                        "runs": [m[k]["value"] for m in mine]}
                    for k in LAYERS if all(k in m for m in mine)}
json.dump({
    "figure": "host-wall-pairs",
    "command": "benchmark/run.sh --workload W --seed N --seconds 10 --trace 0",
    "parent": sys.argv[3], "change": sys.argv[4],
    "rule": "better = the change wins at least 9 of 10 pairs and the medians differ by more than the "
            "parent's inter-quartile spread; worse = the change's median is worse than the parent's by more "
            "than the metric's bound; unresolved = the parent's spread exceeds the bound and a pair was lost",
    "workloads": workloads,
    "traced_" + sys.argv[5]: traced,
}, sys.stdout, indent=1)
print()

history = json.load(open(sys.argv[6])) if os.path.exists(sys.argv[6]) else []
for w in workloads:
    m = w["metrics"]["pass_ms"]
    history.append({"rev": sys.argv[4], "parent": sys.argv[3], "workload": w["name"],
                    "parent_pass_ms": m["parent"]["median"], "change_pass_ms": m["change"]["median"],
                    "wins": m["wins"], "pairs": m["pairs"], "verdict": m["verdict"]})
with open(sys.argv[6], "w") as out:
    out.write("[\n" + ",\n".join(json.dumps(row) for row in history) + "\n]\n")
PY
