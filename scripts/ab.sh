#!/usr/bin/env bash
# Interleaved A/B of two revisions on one experiment harness's wall-clock.
#
#   scripts/ab.sh <rev-a> <rev-b> <harness> [rounds]
#
# Exports each revision with `git archive` (offline; nothing is added to
# .git) into a temporary directory, builds the harness binary of each in
# release with `cargo build --offline`, then runs `rounds` (default 6)
# interleaved rounds at UMI_SCALE=test UMI_JOBS=1, alternating which side
# runs first. Every run starts in a fresh scratch working directory, so
# the results/ files a harness writes never touch this checkout.
#
# Prints each side's median wall-clock with its quartiles and how many
# rounds B was faster, then the same for the harness's own per-cell
# seconds (from the results/BENCH_pipeline.json it writes) for every cell
# named in CELLS (space-separated labels, e.g. CELLS=176.gcc). Also says
# whether the two sides' stdout was byte-identical in every round.
set -euo pipefail

[ $# -ge 3 ] && [ $# -le 4 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
rev_a=$1 rev_b=$2 harness=$3 rounds=${4:-6}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

build() { # side rev
    local dir="$tmp/$1"
    mkdir -p "$dir/src"
    git -C "$root" archive "$2" | tar -x -C "$dir/src"
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/build" \
        cargo build --release --offline --quiet -p umi-bench --bin "$harness")
}

run() { # side round
    local work="$tmp/work-$1-$2"
    mkdir -p "$work"
    local t0 t1
    t0=$(date +%s.%N)
    (cd "$work" && UMI_SCALE=test UMI_JOBS=1 "$tmp/$1/build/release/$harness") > "$tmp/runs/$2-$1.out"
    t1=$(date +%s.%N)
    echo "$t0 $t1" > "$tmp/runs/$2-$1.time"
    cp "$work/results/BENCH_pipeline.json" "$tmp/runs/$2-$1.json" 2>/dev/null || true
    rm -rf "$work"
}

echo "building A=$rev_a and B=$rev_b in $tmp" >&2
build A "$rev_a"
build B "$rev_b"
mkdir -p "$tmp/runs"
for ((i = 1; i <= rounds; i++)); do
    echo "$harness round $i/$rounds" >&2
    if ((i % 2)); then run A "$i"; run B "$i"; else run B "$i"; run A "$i"; fi
done

python3 - "$tmp/runs" "$rev_a" "$rev_b" "$harness" "$rounds" ${CELLS:-} <<'PY'
import json, os, statistics, sys
runs, rev_a, rev_b, harness, rounds, cells = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5]), sys.argv[6:]
rounds = range(1, rounds + 1)

def read(side, i, ext):
    return open(os.path.join(runs, f"{i}-{side}.{ext}")).read()

def wall(side, i):
    t0, t1 = map(float, read(side, i, "time").split())
    return t1 - t0

def cell(side, i, label):
    try:
        entry = json.loads(read(side, i, "json"))["harnesses"][harness]
    except (OSError, ValueError, KeyError):
        return None
    return next((c["seconds"] for c in entry.get("cells", []) if c["label"] == label), None)

def q(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3

def row(name, a, b):
    pairs = [i for i in rounds if a.get(i) is not None and b.get(i) is not None]
    if not pairs:
        print(f"{name:<24} (not reported)")
        return
    va, vb = [a[i] for i in pairs], [b[i] for i in pairs]
    qa, qb = q(va), q(vb)
    wins = sum(1 for i in pairs if b[i] < a[i])
    print(f"{name:<24} {statistics.median(va):>10.3f} {qa[0]:>9.3f}..{qa[2]:<9.3f} "
          f"{statistics.median(vb):>10.3f} {qb[0]:>9.3f}..{qb[2]:<9.3f} {wins:>3}/{len(pairs)}")

print(f"A = {rev_a}, B = {rev_b}, {harness}, UMI_SCALE=test UMI_JOBS=1, {len(rounds)} rounds")
print(f"{'seconds':<24} {'A median':>10} {'A q1..q3':>20} {'B median':>10} {'B q1..q3':>20} {'B faster':>8}")
row("wall-clock", {i: wall("A", i) for i in rounds}, {i: wall("B", i) for i in rounds})
for label in cells:
    row(f"cell {label}", {i: cell("A", i, label) for i in rounds}, {i: cell("B", i, label) for i in rounds})
same = all(read("A", i, "out") == read("B", i, "out") for i in rounds)
print(f"stdout identical in every round: {'yes' if same else 'no'}")
PY
