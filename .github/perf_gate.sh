#!/usr/bin/env bash
# Hard gate on perfbench's deterministic metrics.
#
# Runs both perfbench workloads for 5 s on seed 1 and fails when
# alloc_words_per_item or db_mb is more than 5 % away from the reference
# below, in either direction.  Both metrics count work rather than time
# it, so they repeat to well under 1 % between runs on one compiler; the
# references hold for OCaml 5.1 only.  A change that moves one of them on
# purpose updates its reference here, with the new figure from this
# script's output.
#
# Usage: bash .github/perf_gate.sh   (about 25 s; exit 1 on any breach)
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance_pct=5

# workload     metric                reference
references='
paper_l6       alloc_words_per_item  114.9
paper_l6       db_mb                 9.8377
served_mix     alloc_words_per_item  1790
served_mix     db_mb                 1.9941
'

# The value of metric $2 in perfbench's result line $1.
metric() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\": {\"value\": \([-0-9.eE+]*\).*/\1/p"
}

status=0
for workload in paper_l6 served_mix; do
  line=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 5 \
           --trace 0 | tail -n 1)
  while read -r w name ref; do
    [ "$w" = "$workload" ] || continue
    value=$(metric "$line" "$name")
    if [ -z "$value" ]; then
      echo "FAIL $workload $name: missing from: $line"
      status=1
      continue
    fi
    if awk -v v="$value" -v r="$ref" -v t="$tolerance_pct" \
         'BEGIN { d = (v - r) / r * 100; if (d < 0) d = -d; exit !(d <= t) }'
    then verdict=ok
    else verdict=FAIL; status=1
    fi
    awk -v v="$value" -v r="$ref" -v s="$verdict" -v w="$workload" -v n="$name" \
      'BEGIN { printf "%-4s %-10s %-20s %12.4f  reference %10.4f  (%+.2f %%)\n",
               s, w, n, v, r, (v - r) / r * 100 }'
  done <<< "$references"
done
exit "$status"
