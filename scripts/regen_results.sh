#!/usr/bin/env bash
# Regenerate the deterministic sections of results/full_run.txt and diff
# each one against the committed text, ignoring blank lines.
#
#   scripts/regen_results.sh          # builds adcomp-bench in release first
#
# Exits non-zero and prints the diff of every section that moved. A change
# to a paper number must show up here and be explained in CHANGES.md.
set -euo pipefail

cd "$(dirname "$0")/.."
expected=results/full_run.txt
bin_dir="${CARGO_TARGET_DIR:-target}/release"

bins=(
  fig1_cpu_accuracy fig2_net_throughput fig3_file_write table2_completion
  fig4_timeseries fig5_timeseries fig6_switching
  ablation_alpha ablation_epoch ablation_backoff startup_table
  baseline_models ext_all_adaptive ext_entropy_guided futurework_file_io
  chaos_soak
)

cargo build --release --quiet -p adcomp-bench

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failed=0
for bin in "${bins[@]}"; do
  awk -v want="### $bin" '
    /^### / { on = ($0 == want); next }
    on && NF
  ' "$expected" > "$tmp/want"
  if [ ! -s "$tmp/want" ]; then
    echo "FAIL $bin: no '### $bin' section in $expected"
    failed=1
    continue
  fi
  "$bin_dir/$bin" | awk 'NF' > "$tmp/got"
  if diff -u "$tmp/want" "$tmp/got" > "$tmp/diff"; then
    echo "ok   $bin"
  else
    echo "FAIL $bin"
    cat "$tmp/diff"
    failed=1
  fi
done

exit "$failed"
