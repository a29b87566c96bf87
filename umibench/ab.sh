#!/usr/bin/env bash
# Interleaved A/B of two revisions on the umibench end-to-end metrics.
#
#   umibench/ab.sh <rev-a> <rev-b>
#
# Exports each revision with `git archive` (offline; nothing is added to
# .git), overlays this checkout's umibench/ on both so the two sides run
# identical benchmark code, and builds each into its own target
# directory under target/umibench-ab/. It then runs 10 pairs per
# workload of BENCHMARK.json on the held-out seed 2, for BENCHMARK.json's
# run_seconds, alternating which side runs first, and prints for every
# metric a run prints (the result line's and the unscaled ones) each
# side's median and quartiles and how many pairs B won. Ties count for
# neither; "better" comes from BENCHMARK.json, and for a metric not in it
# is "higher" for a rate (unit ending in /s) and "lower" otherwise.
set -euo pipefail

[ $# -eq 2 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
rev_a=$1 rev_b=$2

root=$(git rev-parse --show-toplevel)
pairs=10 seed=2 out="$root/target/umibench-ab"
bench_json="$root/BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench_json")

build() { # side rev
    local dir="$out/$1"
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    git -C "$root" archive "$2" | tar -x -C "$dir/src"
    rm -rf "$dir/src/umibench"
    cp -R "$root/umibench" "$dir/src/umibench"
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/build" \
        cargo build --release --offline --quiet --manifest-path umibench/Cargo.toml)
}

run() { # side workload pair
    local dir="$out/$1"
    (cd "$dir/src" && "$dir/build/release/umibench" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) > "$out/runs/$2-$3-$1.out"
}

mkdir -p "$out"
echo "building A=$rev_a and B=$rev_b into $out" >&2
build A "$rev_a"
build B "$rev_b"
rm -rf "$out/runs"
mkdir -p "$out/runs"
for w in $workloads; do
    for ((i = 1; i <= pairs; i++)); do
        echo "$w pair $i/$pairs" >&2
        if ((i % 2)); then run A "$w" "$i"; run B "$w" "$i"; else run B "$w" "$i"; run A "$w" "$i"; fi
    done
done

python3 - "$out/runs" "$bench_json" "$rev_a" "$rev_b" $workloads <<'PY'
import json, os, re, statistics, sys
runs, bench_json, rev_a, rev_b, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
# A printed metric: "<name> <value> <unit> (n=<samples>)".
metric_line = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+\(n=\d+\)$")
rows = []
for f in sorted(os.listdir(runs)):
    w, pair, side = f[: -len(".out")].rsplit("-", 2)
    text = open(os.path.join(runs, f)).read().splitlines()
    try:
        result = json.loads(text[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": 0}
    metrics = {m[1]: (float(m[2]), m[3]) for m in map(metric_line.match, text) if m}
    rows.append({"workload": w, "pair": int(pair), "side": side, "result": result, "metrics": metrics})
better = {m["name"]: m["better"] for m in json.load(open(bench_json))["end_to_end"]}

def q(v):
    v = list(v)
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3

print(f"A = {rev_a}, B = {rev_b}")
print(f"{'workload':<9} {'metric':<18} {'A median':>12} {'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} {'B wins':>7}")
for w in workloads:
    mine = [r for r in rows if r["workload"] == w]
    for bad in (r for r in mine if not r["result"]["correct"] or r["result"]["failed"]):
        print(f"{w}: side {bad['side']} pair {bad['pair']} was not correct")
    for m in dict.fromkeys(name for r in mine for name in r["metrics"]):
        side = {s: {r["pair"]: r["metrics"][m][0] for r in mine if r["side"] == s and m in r["metrics"]}
                for s in "AB"}
        pairs = sorted(set(side["A"]) & set(side["B"]))
        if not pairs:
            continue
        unit = next(r["metrics"][m][1] for r in mine if m in r["metrics"])
        sign = 1 if better.get(m, "higher" if unit.endswith("/s") else "lower") == "higher" else -1
        wins = sum(1 for p in pairs if sign * (side["B"][p] - side["A"][p]) > 0)
        qa, qb = q(side["A"].values()), q(side["B"].values())
        print(f"{w:<9} {m:<18} {statistics.median(side['A'].values()):>12.5g} "
              f"{qa[0]:>11.5g}..{qa[2]:<11.5g} {statistics.median(side['B'].values()):>12.5g} "
              f"{qb[0]:>11.5g}..{qb[2]:<11.5g} {wins:>3}/{len(pairs)}")
PY
