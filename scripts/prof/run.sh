#!/usr/bin/env bash
# Where does a ledger workload's CPU time go, or (--allocs) who calls malloc?
# Preloads the SIGPROF sampler (scripts/prof/sampler.c) or the allocation-site
# sampler (scripts/prof/mallocs.c) into the unmodified benchmark binary and
# prints the flat profile (scripts/prof/symbolize.py). Needs cc, addr2line,
# python3; everything it writes lands in target/prof/.
#
#   bash scripts/prof/run.sh [--allocs] <workload> [seconds]
set -euo pipefail
cd "$(dirname "$0")/../.."
preload=sampler dump=samples table=profile flag=()
if [ "${1:-}" = --allocs ]; then
    preload=mallocs dump=stacks table=allocs flag=(--allocs)
    shift
fi
workload=${1:?usage: bash scripts/prof/run.sh [--allocs] <workload> [seconds]}
seconds=${2:-10}
out=target/prof
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/$preload.so" "scripts/prof/$preload.c"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
PROF_OUT="$out/$workload.$dump" LD_PRELOAD="$PWD/$out/$preload.so" \
    benchmark/target/release/benchmark \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out/$workload.report.txt"
python3 scripts/prof/symbolize.py "${flag[@]}" "$out/$workload.$dump" | tee "$out/$workload.$table.txt"
