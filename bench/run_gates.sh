#!/usr/bin/env bash
# Matrix driver for the evaluation scenarios and their regression gates.
#
# One manifest line per scenario: `scenario  baseline  output`. Each
# line runs `cargo bench -p twin-bench --bench eval -- <scenario>`,
# which exits non-zero on any failed acceptance check. A `-` baseline
# means the scenario runs ungated; a `-` output means it writes no
# BENCH_*.json. A sweep's output is deleted before it runs, so a sweep
# that stops writing fails its gate instead of being compared from a
# stale file. Adding a scenario to CI is adding a line.
#
# Environment:
#   TWIN_BENCH_PACKETS    forwarded to the scenarios (unset = full budget)
#   TWIN_BENCH_TOLERANCE  gate tolerance (default 0.10)
#   TWIN_BENCH_GATE=0     run the scenarios but skip the baseline gates
#                         (nightly full-budget runs: the committed
#                         baselines are 64-packet numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance="${TWIN_BENCH_TOLERANCE:-0.10}"
gate="${TWIN_BENCH_GATE:-1}"

manifest="
fig5        -                             -
fig6        -                             -
fig7        -                             -
fig8        -                             -
fig9        -                             -
fig10       -                             -
table1      -                             -
effort      -                             -
ablations   -                             -
rewrite     -                             -
batch       -                             -
shard       bench/baseline.json           BENCH_shard.json
upcall      bench/baseline_upcall.json    BENCH_upcall.json
moderation  bench/baseline_itr.json       BENCH_itr.json
autotune    bench/baseline_autotune.json  BENCH_autotune.json
zerocopy    bench/baseline_zerocopy.json  BENCH_zerocopy.json
livelock    bench/baseline_livelock.json  BENCH_livelock.json
fault       bench/baseline_fault.json     BENCH_fault.json
affinity    bench/baseline_affinity.json  BENCH_affinity.json
"

while read -r scenario baseline output; do
  [ -n "$scenario" ] || continue
  echo "==> $scenario"
  if [ "$output" != "-" ]; then
    rm -f "$output"
  fi
  cargo bench -p twin-bench --bench eval -- "$scenario"
  if [ "$baseline" != "-" ] && [ "$gate" != "0" ]; then
    python3 bench/check_regression.py "$baseline" "$output" --tolerance "$tolerance"
  fi
done <<EOF
$manifest
EOF
