#!/usr/bin/env bash
# The benchmark's one command. Three forms:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
#       One run (the form BENCHMARK.json's command is called in): builds
#       release, runs the workload in this process's child, prints every
#       metric and, as the last line, the JSON result.
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--out DIR] [--smoke]
#       The full set: each workload (or only W) in its own child process,
#       once untraced for the end-to-end numbers and once traced for the
#       per-layer numbers, results under DIR (default benchmark/out).
#
#   run.sh --compare A/ B/
#       Compares two result sets against the bounds in BENCHMARK.json.
#
# Run it from the repository root. Nothing outside the build directory
# ($CARGO_TARGET_DIR, default benchmark/target) and DIR is written.
set -euo pipefail

here=$(dirname "$0")

if [ "${1:-}" = "--compare" ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --compare A/ B/" >&2; exit 2; }
    exec python3 "$here/compare.py" "$here/../BENCHMARK.json" "$2" "$3"
fi

# glibc keeps freed memory instead of handing it back to the kernel. In this
# sandbox a page given back is reclaimed by the host and costs a hypervisor
# fault to get again; with the default trimming the same code swung 2x from
# run to run, with this it repeats within a few percent (README, "Noise").
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=4294967296

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/autocomp_benchmark"

case " $* " in
*" --trace "*) exec "$bin" "$@" ;;
esac

workloads="steady_1pct storm_50pct crash_restart lake_fleet"
seed=1
seconds=15
out="$here/out"
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    *) echo "$0: unknown argument $1" >&2; exit 2 ;;
    esac
done

status=0
for workload in $workloads; do
    for trace in 0 1; do
        echo "== $workload, trace $trace"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" ${extra[@]+"${extra[@]}"} || status=1
    done
    # The traced and the untraced process must have decided the same.
    stem="$out/$workload.seed$seed"
    if ! diff <(grep '^digest=' "$stem.trace0.info") <(grep '^digest=' "$stem.trace1.info"); then
        echo "$workload: traced and untraced digests differ" >&2
        status=1
    fi
done
exit $status
