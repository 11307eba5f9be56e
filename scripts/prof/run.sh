#!/usr/bin/env bash
# Where does a ledger workload's CPU time go? Preloads the SIGPROF sampler
# (scripts/prof/sampler.c) into the unmodified benchmark binary and prints
# the flat profile (scripts/prof/symbolize.py). Needs cc, addr2line, python3;
# everything it writes lands in target/prof/.
#
#   bash scripts/prof/run.sh <workload> [seconds]
set -euo pipefail
cd "$(dirname "$0")/../.."
workload=${1:?usage: bash scripts/prof/run.sh <workload> [seconds]}
seconds=${2:-10}
out=target/prof
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/prof/sampler.c
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
PROF_OUT="$out/$workload.samples" LD_PRELOAD="$PWD/$out/sampler.so" \
    benchmark/target/release/benchmark \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out/$workload.report.txt"
python3 scripts/prof/symbolize.py "$out/$workload.samples" | tee "$out/$workload.profile.txt"
