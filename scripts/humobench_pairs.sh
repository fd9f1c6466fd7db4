#!/usr/bin/env bash
# Runs humobench in alternating parent/change pairs and prints the per-arm
# median of every end-to-end metric that BENCHMARK.json declares (of every
# per-layer metric for traced runs).
#
# The parent arm is humobench built from <parent-rev>, exported with
# `git archive` into a temporary directory (removed at exit); the change arm
# is humobench built from the working tree. Each pair runs both arms back to
# back, and the arm that runs first alternates from pair to pair, so a load
# trend or a cost of running first reaches both arms alike. Each run's last
# stdout line (its JSON) is kept in the temporary directory's `runs.jsonl`
# while the script runs, and printed per run as it finishes.
#
# Usage: scripts/humobench_pairs.sh <parent-rev> <workload> <seed> <pairs>
#
# HUMOBENCH_SECONDS sets each run's --seconds (default 5); HUMOBENCH_TRACE=1
# runs traced (--trace 1).
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs>" >&2
    exit 2
fi
rev=$1
workload=$2
seed=$3
pairs=$4
seconds=${HUMOBENCH_SECONDS:-5}
trace=${HUMOBENCH_TRACE:-0}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/humobench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" |
    tar -x -C "$tmp/parent"
for dir in "$tmp/parent" "$root"; do
    echo "building humobench in $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/humobench/Cargo.toml"
done

# One run of an arm: humobench reads and writes paths relative to its
# checkout's root, so each binary runs from there.
run() {
    local arm=$1 dir
    if [ "$arm" = parent ]; then dir=$tmp/parent; else dir=$root; fi
    local line
    line=$(cd "$dir" && ./humobench/target/release/humobench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    echo "$arm $line" | tee -a "$tmp/runs.jsonl"
}

for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then
        run parent
        run change
    else
        run change
        run parent
    fi
done

python3 - "$root/BENCHMARK.json" "$tmp/runs.jsonl" "$trace" <<'EOF'
import json
import statistics
import sys

catalogue = "per_layer" if sys.argv[3] == "1" else "end_to_end"
metrics = [m["name"] for m in json.load(open(sys.argv[1]))[catalogue]]
runs = {"parent": [], "change": []}
for line in open(sys.argv[2]):
    arm, _, doc = line.partition(" ")
    runs[arm].append(json.loads(doc))
print(f"{'metric':<26} {'parent':>12} {'change':>12} {'change/parent':>14}")
for name in metrics:
    medians = []
    for arm in ("parent", "change"):
        values = [run["metrics"][name]["value"] for run in runs[arm] if name in run["metrics"]]
        medians.append(statistics.median(values) if values else None)
    parent, change = medians
    ratio = f"{change / parent:.3f}" if parent and change is not None else "-"
    cells = ["-" if m is None else f"{m:.6g}" for m in medians]
    print(f"{name:<26} {cells[0]:>12} {cells[1]:>12} {ratio:>14}")
for arm in ("parent", "change"):
    correct = sum(run.get("correct") is True for run in runs[arm])
    print(f"{arm}: {correct} of {len(runs[arm])} runs correct")
EOF
