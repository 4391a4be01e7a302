#!/usr/bin/env bash
# Interleaved same-seed A/B of two revisions on the benchmark of record.
#
#   scripts/ab.sh <parent-rev> <change-rev> [--workloads "w ..."] [--seeds "n ..."]
#                 [--holdout "n ..."] [--claim TEXT] [--dir DIR] [--out FILE]
#
# Each revision is exported with `git archive` into its own directory under
# DIR (default: a fresh temporary directory) and built into its own fresh
# CARGO_TARGET_DIR: a target directory shared between two checkouts can
# report one tree's build as fresh for the other. For every seed and
# workload the two sides then run back to back — the parent first on odd
# seeds, the change first on even ones — each with BENCHMARK.json's command
# at its `run_seconds` and `--trace 0`. The first line of /proc/stat is read
# around every run, so the summary can report each run's steal fraction, and
# bash's `time` records each run's user and system CPU seconds beside it.
# `--holdout` seeds run after the main set, interleaved the same way, and
# are reported apart from the medians. Defaults: every workload of
# BENCHMARK.json, seeds 1-10, no held-out seed, out results/BENCH_ab.json.
#
# scripts/ab_summary.py writes the JSON from DIR/runs; re-run it alone to
# re-summarise a finished DIR.
set -euo pipefail

usage() {
    sed -n '4,5p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
root="$(git rev-parse --show-toplevel)"
parent="$(git -C "$root" rev-parse --verify "$1^{commit}")"
change="$(git -C "$root" rev-parse --verify "$2^{commit}")"
shift 2
workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
seeds="1 2 3 4 5 6 7 8 9 10"
holdout=""
claim="none"
dir=""
out="$root/results/BENCH_ab.json"
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workloads) workloads="$2" ;;
        --seeds) seeds="$2" ;;
        --holdout) holdout="$2" ;;
        --claim) claim="$2" ;;
        --dir) dir="$2" ;;
        --out) out="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$dir" ] || dir="$(mktemp -d "${TMPDIR:-/tmp}/pdht-ab.XXXXXX")"
mkdir -p "$dir"
echo "A/B parent $parent vs change $change in $dir"

# The benchmark command, word by word, and its run length.
mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$root/BENCHMARK.json")
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

for side in parent change; do
    rev="${!side}"
    rm -rf "${dir:?}/$side" "$dir/target-$side"
    mkdir -p "$dir/$side"
    git -C "$root" archive "$rev" | tar -x -C "$dir/$side"
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done
sha256sum "$dir"/target-{parent,change}/release/pdht-benchmark | tee "$dir/binaries.sha256"

# One benchmark run of `side`; outputs, exit status, the /proc/stat cpu
# line before and after, and the run's user and system CPU seconds
# (`cpu_times`, one line "U S") land in runs/<set>/<workload>/<seed>/<side>/.
run() {
    local set="$1" side="$2" workload="$3" seed="$4"
    local to="$dir/runs/$set/$workload/$seed/$side" status=0
    local TIMEFORMAT='%3U %3S'
    mkdir -p "$to"
    head -n 1 /proc/stat > "$to/proc_stat"
    # The inner group keeps the run's own redirection off `time`'s report.
    { time { (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/target-$side" "${cmd[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$to") \
        > "$to/stdout.log" 2>&1 || status=$?; }; } 2> "$to/cpu_times"
    head -n 1 /proc/stat >> "$to/proc_stat"
    echo "$status" > "$to/status"
    echo "$set $workload seed $seed $side: exit $status"
}

for set in main holdout; do
    if [ "$set" = main ]; then list="$seeds"; else list="$holdout"; fi
    for seed in $list; do
        for workload in $workloads; do
            if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
            for side in $order; do
                run "$set" "$side" "$workload" "$seed"
            done
        done
    done
done

python3 "$root/scripts/ab_summary.py" "$dir" "$out" \
    --parent "$parent" --change "$change" --claim "$claim" --benchmark "$root/BENCHMARK.json"
