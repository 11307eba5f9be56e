#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/.
# Full-resolution runs; pass --fast through for reduced sweeps.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p mpichgq-bench
mkdir -p results
BIN=target/release
FAST="${1:-}"
$BIN/garnet_info                > results/fig4.txt
$BIN/fig1_tcp_sawtooth   $FAST  > results/fig1.txt &
$BIN/fig7_seq_traces     $FAST  > results/fig7.txt &
$BIN/fig8_cpu_reservation $FAST > results/fig8.txt &
$BIN/fig9_combined       $FAST  > results/fig9.txt &
wait
$BIN/fig5_pingpong_sweep $FAST  > results/fig5.txt &
$BIN/fig6_viz_sweep      $FAST  > results/fig6.txt &
$BIN/table1_burstiness   $FAST  > results/table1.txt &
wait
$BIN/sec3_finite_difference $FAST > results/sec3.txt &
$BIN/ablations           $FAST  > results/ablations.txt &
$BIN/fig_chaos           $FAST  > results/chaos.txt &
wait
$BIN/fig_af_conformance  $FAST  > results/af_conformance.txt &
$BIN/fig_qdisc_ablation  $FAST  > results/qdisc_ablation.txt &
$BIN/fig_chaos_ranks     $FAST  > results/chaos_ranks.txt &
wait
echo "results/ refreshed:"
grep -H "^#" results/*.txt | grep -iE "summary|phases|adequate|penalty|saturate" || true
if command -v python3 >/dev/null; then
  python3 scripts/check_metrics.py results/*/metrics.json results/*/timeline.json
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
