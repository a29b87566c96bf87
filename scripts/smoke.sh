#!/bin/sh
# Smoke test: build + tier-1 tests, then run the representative
# harnesses at CI scale and require byte-identical output against the
# golden files — with the parallel engine on (UMI_JOBS=2), so any
# nondeterminism in the fan-out shows up as a diff. cache_sink doubles
# as a correctness gate: it asserts sink agreement and the sampled-mode
# error bound before printing.
#
# umi_lint is both a harness and a gate: it exits non-zero on any
# Error-severity static diagnostic or when static-vs-dynamic delinquency
# agreement drops below its bar, which aborts this script before the
# golden comparison. table_absint likewise exits non-zero when exact
# simulation contradicts any must-analysis verdict, and table_staticplan
# when any composed miss-count interval is escaped (the soundness gates).
#
# Run from the repository root: scripts/smoke.sh
set -eu

cargo build --release --workspace
cargo test -q

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

harnesses="table6 table4 fig3 table_static umi_lint table_absint table_staticplan cache_sink table_profile vm_dispatch"

# The three static gates also rewrite machine-readable copies of their
# results: per-workload verdict, reason-code and interval counts that the
# stdout goldens only summarise. Keep the checked-out copies so the
# regenerated files can be required to match them byte for byte.
json="umi_absint umi_staticplan umi_lint"
mkdir "$tmp/json"
for j in $json; do
    cp "results/$j.json" "$tmp/json/$j.json"
done

for bin in $harnesses; do
    UMI_SCALE=test UMI_JOBS=2 ./target/release/$bin > "$tmp/$bin.txt"
    if ! diff -u "results/golden/$bin.txt" "$tmp/$bin.txt"; then
        echo "smoke: $bin output differs from results/golden/$bin.txt" >&2
        exit 1
    fi
    echo "smoke: $bin matches golden output"
done

for j in $json; do
    if ! diff -u "$tmp/json/$j.json" "results/$j.json"; then
        echo "smoke: regenerated results/$j.json differs from the committed copy" >&2
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
# never output), and the cold/warm timings + encoding density land in
# results/BENCH_pipeline.json via trace_stat.
tdir="$tmp/traces"
t0=$(date +%s.%N)
UMI_SCALE=test UMI_JOBS=1 UMI_TRACE_DIR="$tdir" ./target/release/table6 > "$tmp/table6.cold.txt"
t1=$(date +%s.%N)
UMI_SCALE=test UMI_JOBS=1 UMI_TRACE_DIR="$tdir" ./target/release/table6 > "$tmp/table6.warm.txt"
t2=$(date +%s.%N)
for pass in cold warm; do
    if ! diff -u "results/golden/table6.txt" "$tmp/table6.$pass.txt"; then
        echo "smoke: table6 $pass-cache output differs from golden" >&2
        exit 1
    fi
done
cold=$(awk "BEGIN{printf \"%.3f\", $t1 - $t0}")
warm=$(awk "BEGIN{printf \"%.3f\", $t2 - $t1}")
./target/release/trace_stat "$tdir" "$cold" "$warm"
echo "smoke: table6 byte-identical cold and warm (capture ${cold}s, replay ${warm}s)"

echo "smoke: OK"
