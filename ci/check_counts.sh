#!/usr/bin/env bash
# Exact-count gate. Runs one traced seed-7 perfbench pass per workload and
# the trace_decomposition example, keeps their deterministic solver counts,
# and diffs them against the committed baseline ci/counts.json. Every value
# must match exactly; a few counts also sit under fixed ceilings that a
# regenerated baseline cannot raise.
#
#   ci/check_counts.sh           check a fresh run against ci/counts.json
#   ci/check_counts.sh --update  rewrite ci/counts.json from a fresh run
#
# A change that moves a count on purpose regenerates the baseline and says
# why in CHANGES.md. Needs cargo and jq; takes about a minute after the
# release builds.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
baseline=$root/ci/counts.json
case "${1:-}" in
  "") update=false ;;
  --update) update=true ;;
  *) echo "usage: $0 [--update]" >&2; exit 2 ;;
esac

workloads=(design_master design_restart design_wide failover)

# Traced perfbench metrics that are exact functions of the inputs and seed.
metrics='[
  "setup.scenarios",
  "decomp.iterations", "decomp.solved", "decomp.pruned", "decomp.sub_lp_iters",
  "decomp.warm_hits", "decomp.dual_restarts",
  "master.node_lps", "wave.warm_hit_ratio",
  "lp.solves", "lp.pivots.phase1", "lp.pivots.phase2", "lp.pivots.dual",
  "lp.refactorizations", "lp.bland_activations", "lp.rung_failures",
  "online.lp_solves_per_reaction", "online.solver_iters_per_reaction",
  "online.planned_share", "online.recovered"
]'

# trace_decomposition counters, including the presolve, crash, devex,
# pricing and cut counts perfbench does not print. Missing reads as 0.
counters='[
  "lp.pivots.phase1", "lp.pivots.phase2", "lp.pivots.dual",
  "lp.bland_activations", "lp.refactorizations",
  "lp.dual_restarts", "lp.restart_abandoned",
  "lp.pricing_candidates", "lp.pricing_rescans",
  "lp.presolve_removed_cols", "lp.presolve_removed_rows",
  "lp.crash_basis_pivots_saved", "lp.devex_updates", "lp.dual_bound_flips",
  "flexile.cuts_added", "flexile.scenarios_retried",
  "flexile.scenario_warm_hit", "flexile.dual_restart"
]'

# [workload, metric, ceiling]: the count must stay strictly below.
ceilings='[
  ["design_master", "lp.pivots.dual", 25000],
  ["design_master", "lp.pivots.phase1", 800],
  ["design_master", "lp.refactorizations", 6500],
  ["design_master", "master.node_lps", 11782],
  ["design_restart", "lp.pivots.dual", 20000],
  ["design_restart", "lp.pivots.phase1", 1500],
  ["design_restart", "lp.pivots.phase2", 8000],
  ["design_wide", "lp.bland_activations", 100],
  ["design_wide", "lp.pivots.phase1", 2500],
  ["design_wide", "lp.pivots.phase2", 20000]
]'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$root"

for w in "${workloads[@]}"; do
  echo "perfbench --workload $w --seed 7 --seconds 1 --trace 1" >&2
  if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed 7 --seconds 1 --trace 1 > "$work/$w.txt"; then
    tail -n 20 "$work/$w.txt" >&2
    echo "error: perfbench $w failed" >&2
    exit 1
  fi
  tail -n 1 "$work/$w.txt" | jq --arg w "$w" --argjson names "$metrics" '
    .metrics as $m
    | {perfbench: {($w): {correct, attempted, failed, metrics: (
        [$names[] | {key: ., value: ($m[.] // error("perfbench \($w): no metric \(.)")).value}]
        | from_entries)}}}' > "$work/$w.json"
done

echo "trace_decomposition" >&2
cargo run --release --offline --quiet --example trace_decomposition -- "$work/trace" \
  > /dev/null 2> "$work/trace.log" || { cat "$work/trace.log" >&2; exit 1; }
jq -s --argjson names "$counters" '
  (map(select(.type == "counter") | {key: .name, value}) | from_entries) as $c
  | {trace_decomposition: ([$names[] | {key: ., value: ($c[.] // 0)}] | from_entries)}' \
  "$work/trace/events.jsonl" > "$work/trace.json"

jq -s 'reduce .[] as $x ({}; . * $x)' "$work"/*.json > "$work/counts"

over=$(jq -r --argjson ceilings "$ceilings" '
  . as $r | $ceilings[] | . as [$w, $name, $max]
  | $r.perfbench[$w].metrics[$name] as $v
  | select($v >= $max)
  | "\($w) \($name): \($v) is not below the ceiling \($max)"' "$work/counts")
if [ -n "$over" ]; then
  echo "$over" >&2
  exit 1
fi

if $update; then
  cp "$work/counts" "$baseline"
  echo "wrote $baseline" >&2
  exit 0
fi

diff=$(jq -rn --slurpfile base "$baseline" --slurpfile now "$work/counts" '
  $base[0] as $b | $now[0] as $n
  | def leaves: [paths(type != "object" and type != "array")];
  ($b | leaves) + ($n | leaves) | unique[]
  | . as $p | ($b | getpath($p)) as $x | ($n | getpath($p)) as $y
  | select($x != $y)
  | "\($p | map(tostring) | join(" ")): baseline \($x), now \($y)"')
if [ -n "$diff" ]; then
  echo "$diff" >&2
  echo "error: counts differ from ci/counts.json; if the change is intended," \
    "regenerate it with ci/check_counts.sh --update and say why in CHANGES.md" >&2
  exit 1
fi
echo "counts match ci/counts.json" >&2
