#!/usr/bin/env bash
# Is a change faster than its parent on a ledger workload? Runs the contract
# form (--workload W --seed S --seconds N --trace 0) of two benchmark
# binaries in interleaved pairs, one pair per seed, alternating which side
# goes first, and prints each pair's wall_s / setup_s / peak_rss_mb, then,
# for each of the three, both medians, how many pairs the change is ahead
# in, the parent's q1/q3 and the median gap over the parent's interquartile
# range. Exits non-zero if any run reports correct: false.
# Needs python3.
#
#   bash scripts/prof/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS SEED...
#
# Build each side from its own checkout first, e.g.
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# and pass the two benchmark/target/release/benchmark paths.
set -euo pipefail
usage="usage: bash scripts/prof/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS SEED..."
parent=${1:?$usage} change=${2:?$usage} workload=${3:?$usage} seconds=${4:?$usage}
shift 4
[ $# -gt 0 ] || { echo "$usage" >&2; exit 2; }
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
run() { # side binary seed: one contract-form run, its last (JSON) line kept
    local json
    json=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$1" "$3" "$json" >>"$runs"
}
i=0
for seed in "$@"; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"; run change "$change" "$seed"
    else
        run change "$change" "$seed"; run parent "$parent" "$seed"
    fi
    i=$((i + 1))
done
python3 - "$runs" "$workload" <<'EOF'
import json, statistics, sys

rows = [line.rstrip("\n").split("\t", 2) for line in open(sys.argv[1])]
runs, wrong = {}, []
for side, seed, text in rows:
    doc = json.loads(text)
    if not doc.get("correct"):
        wrong.append(f"{side} seed {seed}")
    runs[side, seed] = {k: v["value"] for k, v in doc["metrics"].items()}
seeds = list(dict.fromkeys(seed for _, seed, _ in rows))
keys = ("wall_s", "setup_s", "peak_rss_mb")
print(f"# {sys.argv[2]}: parent vs change, {len(seeds)} interleaved pairs")
print("seed  " + "  ".join(f"{s + ' ' + k:>18}" for s in ("parent", "change") for k in keys) + "  ahead")
for seed in seeds:
    p, c = runs["parent", seed], runs["change", seed]
    won = c["wall_s"] < p["wall_s"]
    cells = [f"{side[k]:>18.4f}" for side in (p, c) for k in keys]
    print(f"{seed:<4}  " + "  ".join(cells) + f"  {'yes' if won else 'no'}")
for k in keys:
    pv = [runs["parent", s][k] for s in seeds]
    cv = [runs["change", s][k] for s in seeds]
    won = sum(c < p for p, c in zip(pv, cv))
    pm, cm = statistics.median(pv), statistics.median(cv)
    q1, _, q3 = statistics.quantiles(pv, n=4, method="inclusive") if len(pv) > 1 else (pm, pm, pm)
    iqr = q3 - q1
    gap = pm - cm
    print(f"{k} median  parent {pm:.4f}  change {cm:.4f}  ({(cm / pm - 1) * 100:+.1f} %)")
    print(f"  change ahead   {won}/{len(seeds)}")
    print(f"  parent q1/q3   {q1:.4f} / {q3:.4f}  (IQR {iqr:.4f})")
    print(f"  gap / IQR      {gap / iqr:.2f}" if iqr > 0 else "  gap / IQR      n/a (zero IQR)")
if wrong:
    print("correct: false in " + ", ".join(wrong), file=sys.stderr)
    sys.exit(1)
EOF
