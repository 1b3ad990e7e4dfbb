#!/usr/bin/env bash
# The one command of the host-time ledger.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run of one workload, as the pipeline calls it: builds, runs
#       `wall` (--trace 0) or `wall-traced` (--trace 1), and ends with one
#       JSON line {"correct", "attempted", "failed", "metrics"}.
#
#   benchmark/run.sh [--seed N] [--quick]
#       The whole ledger: every workload untraced, then traced, each in its
#       own process; prints every metric by name with its unit and writes
#       benchmark/out/BENCH_wall.json and benchmark/out/spans.<workload>.jsonl.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

workload="" trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]:-}" ;;
        --trace) trace="${args[i + 1]:-}" ;;
    esac
done

# The pass time an untraced report on stdin states: the base of
# bench.trace_overhead_ratio.
pass_ms() {
    sed -n 's/^e2e [a-z_]* pass_ms \([^ ]*\) .*/\1/p'
}

if [[ -n "$workload" ]]; then
    if [[ "$trace" == 1 ]]; then
        base="$("$bin/wall" --workload "$workload" --quick | pass_ms)"
        exec "$bin/wall-traced" "$@" --untraced-pass-ms "$base"
    fi
    exec "$bin/wall" "$@"
fi

out="$here/out"
mkdir -p "$out"
runs=()
for w in suite_cold interp_only peak_compiled compile_only server_mix; do
    "$bin/wall" --workload "$w" "$@" | tee "$out/last.txt"
    runs+=("{\"workload\": \"$w\", \"trace\": 0, \"result\": $(tail -n 1 "$out/last.txt")}")
    base="$(pass_ms < "$out/last.txt")"
    "$bin/wall-traced" --workload "$w" "$@" --untraced-pass-ms "$base" | tee "$out/last.txt"
    runs+=("{\"workload\": \"$w\", \"trace\": 1, \"result\": $(tail -n 1 "$out/last.txt")}")
    mv "$out/spans.jsonl" "$out/spans.$w.jsonl"
done
rm -f "$out/last.txt"
{
    echo '['
    printf '  %s' "${runs[0]}"
    printf ',\n  %s' "${runs[@]:1}"
    printf '\n]\n'
} > "$out/BENCH_wall.json"
echo "wrote $out/BENCH_wall.json and $out/spans.<workload>.jsonl" >&2
