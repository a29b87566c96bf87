#!/bin/sh
# Smoke test: build, then every crate's unit and integration tests, then
# run the representative harnesses at CI scale and require
# byte-identical output against the golden files — with the parallel
# engine on (UMI_JOBS=2), so any nondeterminism in the fan-out shows up
# as a diff. cache_sink doubles as a correctness gate: it asserts that
# the full simulator and the prefetch-off machine agree on every demand
# statistic.
#
# umi_lint is both the static report and the static gate: it exits
# non-zero on any Error-severity static diagnostic (a must-cache verdict
# that exact simulation contradicts and a composed miss-count interval
# it escapes are both Errors) or when static-vs-dynamic delinquency
# agreement drops below its bar, which aborts this script before the
# golden comparison. This is the only place CI runs the gate; a harness
# that exits non-zero is named with its status before the script aborts.
#
# Every harness runs in a scratch working directory, so the results/
# files each run writes (results/BENCH_pipeline.json and umi_lint's
# JSON reports) land there and a passing run leaves the checkout as it
# found it.
#
# Run from the repository root: scripts/smoke.sh
set -eu

cargo build --release --workspace
cargo test -q --workspace

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
work="$tmp/work"
mkdir "$work"

harnesses="table6 table4 fig3 umi_lint cache_sink table_profile vm_dispatch"

for bin in $harnesses; do
    status=0
    (cd "$work" && UMI_SCALE=test UMI_JOBS=2 "$root/target/release/$bin") > "$tmp/$bin.txt" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "smoke: $bin exited with status $status" >&2
        exit "$status"
    fi
    if ! diff -u "results/golden/$bin.txt" "$tmp/$bin.txt"; then
        echo "smoke: $bin output differs from results/golden/$bin.txt" >&2
        exit 1
    fi
    echo "smoke: $bin matches golden output"
done

# umi_lint also writes machine-readable copies of its results:
# per-workload verdict, reason-code and interval counts that the stdout
# golden only summarises. They must match the committed copies byte for
# byte.
json="umi_absint umi_staticplan umi_lint"
for j in $json; do
    if ! diff -u "results/$j.json" "$work/results/$j.json"; then
        echo "smoke: regenerated $j.json differs from the committed results/$j.json" >&2
        exit 1
    fi
done
echo "smoke: results/{$(echo $json | tr ' ' ',')}.json match the committed copies"

# Golden coverage: every file under results/golden/ must have been
# diffed above. A golden nobody compares against is a gate that silently
# stopped gating (the harness-list drift PR 9 had to repair by hand).
for golden in results/golden/*.txt; do
    bin=$(basename "$golden" .txt)
    case " $harnesses " in
        *" $bin "*) ;;
        *)
            echo "smoke: $golden was never diffed (add $bin to the harness list)" >&2
            exit 1
            ;;
    esac
done
echo "smoke: all $(ls results/golden/*.txt | wc -l | tr -d ' ') goldens were diffed"

# Trace cache: run one golden harness twice against the same
# UMI_TRACE_DIR — the cold pass captures every workload's execution
# trace to disk, the warm pass replays from it. Both must still be
# byte-identical to the golden (the cache can only change wall-clock,
# never output), and trace_stat reports the cold/warm timings and the
# encoding density.
tdir="$tmp/traces"
t0=$(date +%s.%N)
(cd "$work" && UMI_SCALE=test UMI_JOBS=1 UMI_TRACE_DIR="$tdir" "$root/target/release/table6") > "$tmp/table6.cold.txt"
t1=$(date +%s.%N)
(cd "$work" && UMI_SCALE=test UMI_JOBS=1 UMI_TRACE_DIR="$tdir" "$root/target/release/table6") > "$tmp/table6.warm.txt"
t2=$(date +%s.%N)
for pass in cold warm; do
    if ! diff -u "results/golden/table6.txt" "$tmp/table6.$pass.txt"; then
        echo "smoke: table6 $pass-cache output differs from golden" >&2
        exit 1
    fi
done
cold=$(awk "BEGIN{printf \"%.3f\", $t1 - $t0}")
warm=$(awk "BEGIN{printf \"%.3f\", $t2 - $t1}")
(cd "$work" && "$root/target/release/trace_stat" "$tdir" "$cold" "$warm")
echo "smoke: table6 byte-identical cold and warm (capture ${cold}s, replay ${warm}s)"

echo "smoke: OK"
