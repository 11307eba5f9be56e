#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/.
# Full-resolution runs; pass --fast through for reduced sweeps.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p mpichgq-bench -p mpichgq-apps --bin figs --bin qtop --bin qtrace
mkdir -p results
FAST="${1:-}"
# Each batch runs its figures in parallel; a bare `wait` would return 0
# even when one of them failed, so wait on every PID and stop on the
# first batch with a failed figure, naming it.
running=()
fig() {
  target/release/figs "$1" $FAST > "results/$1.txt" &
  running+=("$!:$1")
}
batch() {
  local failed=()
  for j in "${running[@]}"; do
    wait "${j%%:*}" || failed+=("${j#*:}")
  done
  running=()
  if [ ${#failed[@]} -gt 0 ]; then
    echo "regenerate_results: failed: ${failed[*]}" >&2
    exit 1
  fi
}
fig fig4; fig fig1; fig fig7; fig fig8; fig fig9; batch
fig fig5; fig fig6; fig table1; batch
fig sec3; fig ablations; fig chaos; batch
fig af_conformance; fig qdisc_ablation; fig chaos_ranks; batch
echo "results/ refreshed:"
grep -H "^#" results/*.txt | grep -iE "summary|phases|adequate|penalty|saturate" || true
# Shape gates, one validator per schema: every sampled timeline through
# `qtop --check`, every lifecycle trace through `qtrace --check`.
for t in results/*/timeline.json; do target/release/qtop --check "$t"; done
for t in results/*/trace.json; do target/release/qtrace --check "$t"; done
if command -v python3 >/dev/null; then
  python3 scripts/check_metrics.py results/*/metrics.json
  # Physics gate (full-resolution runs only): against the committed tree,
  # the regenerated one may differ in schedule cost and nothing else. A
  # change that means to move physics fails here and lists what moved.
  if [ -z "$FAST" ] && git rev-parse -q --verify HEAD >/dev/null; then
    committed=$(mktemp -d)
    trap 'rm -rf "$committed"' EXIT
    git archive HEAD results | tar -x -C "$committed"
    python3 scripts/check_metrics.py --physics-equal "$committed/results" results
  fi
fi
