#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh                      every workload, tracing off: end-to-end metrics
#   benchmark/run.sh --trace              every workload, short traced run + layer ledger;
#                                         writes benchmark/out/TRACE_<workload>.json and
#                                         benchmark/out/LAYERS.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload in one process (what BENCHMARK.json runs)
#
# Builds offline from source first (the traced binary is a second build of
# this package only, with the counting allocator compiled in). Each
# workload runs in its own process. Exits nonzero if a build fails or a
# workload's outputs are wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(sim_fib sim_fib_lossy sim_cholesky sim_chase live_open_20k live_local_closed)
workload="" seed=1 seconds=16 trace=0

while (($#)); do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
        --trace)
            if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        *) echo "usage: $0 [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]" >&2; exit 2 ;;
    esac
done

features=()
if [[ "$trace" == 1 ]]; then features=(--features count-alloc); fi

if [[ -n "$workload" ]]; then
    exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" \
        "${features[@]}" -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
fi

status=0
for w in "${workloads[@]}"; do
    "$0" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=$?
    echo
done

if [[ "$trace" == 1 ]]; then
    # One file for the whole pass: each workload's ledger and layer values.
    {
        printf '{'
        sep=""
        for w in "${workloads[@]}"; do
            if [[ -f "$here/out/LAYERS_$w.json" ]]; then
                printf '%s\n"%s": ' "$sep" "$w"
                cat "$here/out/LAYERS_$w.json"
                sep=","
            fi
        done
        printf '}\n'
    } > "$here/out/LAYERS.json"
    echo "wrote $here/out/LAYERS.json and TRACE_<workload>.json for ${#workloads[@]} workloads"
fi
exit "$status"
