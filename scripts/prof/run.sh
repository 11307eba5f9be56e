#!/usr/bin/env bash
# Where does a ledger workload's CPU time go, (--within SUBSTR) where inside
# the functions whose symbol contains SUBSTR, (--allocs) who calls malloc, or
# (--live) who holds the heap at its high-water mark? Preloads the SIGPROF
# sampler (scripts/prof/sampler.c) or the allocation-site sampler
# (scripts/prof/mallocs.c, $PROF_LIVE for --live) into the unmodified benchmark
# binary and prints the flat profile (scripts/prof/symbolize.py). Needs cc,
# addr2line, python3; everything it writes lands in target/prof/.
#
#   bash scripts/prof/run.sh [--within SUBSTR|--allocs|--live] <workload> [seconds]
set -euo pipefail
cd "$(dirname "$0")/../.."
preload=sampler dump=samples table=profile flag=()
case "${1:-}" in
--within) table=within flag=(--within "${2:?--within needs a substring of a symbol}"); shift 2 ;;
--allocs) preload=mallocs dump=stacks table=allocs flag=(--allocs); shift ;;
--live) preload=mallocs dump=sites table=live flag=(--live); export PROF_LIVE=1; shift ;;
esac
workload=${1:?usage: bash scripts/prof/run.sh [--within SUBSTR|--allocs|--live] <workload> [seconds]}
seconds=${2:-10}
out=target/prof
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/$preload.so" "scripts/prof/$preload.c"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
PROF_OUT="$out/$workload.$dump" LD_PRELOAD="$PWD/$out/$preload.so" \
    benchmark/target/release/benchmark \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out/$workload.report.txt"
python3 scripts/prof/symbolize.py "${flag[@]}" "$out/$workload.$dump" | tee "$out/$workload.$table.txt"
