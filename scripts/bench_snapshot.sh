#!/usr/bin/env bash
# Scheduling-performance snapshot: runs the placement-bound microbench
# (bench_sched), the ingress tail-latency bench (bench_streaming_latency,
# whose submit->launch SLO percentiles and sustained rate are gated), plus
# the two end-to-end campaign benches the paper's headline figures ride on
# (bench_throughput, bench_impeccable) and writes BENCH_sched.json so the
# perf trajectory is tracked across PRs.
#
#   scripts/bench_snapshot.sh [build-dir] [output-json]
#
# Runs in quick mode (FLOTILLA_BENCH_QUICK) by default so CI smoke runs
# stay in seconds; set FLOTILLA_BENCH_FULL=1 for a full-scale snapshot.
set -euo pipefail

build_dir=${1:-build}
out=${2:-BENCH_sched.json}

cd "$(dirname "$0")/.."

for bench in bench_sched bench_streaming_latency bench_throughput \
             bench_impeccable; do
  if [ ! -x "$build_dir/bench/$bench" ]; then
    echo "bench_snapshot: $build_dir/bench/$bench missing" \
         "(cmake --build $build_dir --target $bench first)" >&2
    exit 2
  fi
done

if [ -n "${FLOTILLA_BENCH_FULL:-}" ]; then
  unset FLOTILLA_BENCH_QUICK
  quick=false
else
  export FLOTILLA_BENCH_QUICK=1
  quick=true
fi

# bench_sched prints machine-readable "KV key=value" lines.
sched_out=$("$build_dir/bench/bench_sched")
printf '%s\n' "$sched_out"

kv() {
  printf '%s\n' "$sched_out" | sed -n "s/^KV $1=//p" | tail -1
}

# The campaign benches are regression canaries: the snapshot records how
# long each takes wall-clock, which tracks simulator hot-path cost. They
# write their figure CSVs into the cwd, so run them from a scratch dir —
# a quick-mode run must not clobber the committed full-scale figures.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
bench_bin=$(cd "$build_dir/bench" && pwd)

# bench_streaming_latency prints the gated ingress SLO percentiles as
# "KV key=value" lines; it also writes its figure CSV into the cwd, so it
# runs from the scratch dir like the campaign benches.
streaming_out=$(cd "$scratch" && "$bench_bin/bench_streaming_latency")
printf '%s\n' "$streaming_out"

skv() {
  printf '%s\n' "$streaming_out" | sed -n "s/^KV $1=//p" | tail -1
}

wall() {
  local start end
  start=$(date +%s%N)
  # shellcheck disable=SC2086
  (cd "$scratch" && "$bench_bin/$1" ${2:-} > /dev/null)
  end=$(date +%s%N)
  awk -v s="$start" -v e="$end" 'BEGIN { printf "%.2f", (e - s) / 1e9 }'
}

throughput_wall=$(wall bench_throughput "--backend flux")
impeccable_wall=$(wall bench_impeccable)

cat > "$out" <<EOF
{
  "quick": $quick,
  "placement_attempts_per_sec_linear": $(kv place_attempts_per_sec_linear),
  "placement_attempts_per_sec_indexed": $(kv place_attempts_per_sec_indexed),
  "placement_speedup": $(kv placement_speedup),
  "makespan_s": $(kv makespan_s),
  "events_per_sec": $(kv events_per_sec),
  "events_per_sec_storm_serial": $(kv events_per_sec_storm_serial),
  "events_per_sec_sharded": $(kv events_per_sec_sharded),
  "storm_speedup": $(kv storm_speedup),
  "submit_launch_p50_ms": $(skv submit_launch_p50_ms),
  "submit_launch_p99_ms": $(skv submit_launch_p99_ms),
  "submit_launch_p999_ms": $(skv submit_launch_p999_ms),
  "ingress_sustained_rate_per_s": $(skv ingress_sustained_rate_per_s),
  "bench_throughput_wall_s": $throughput_wall,
  "bench_impeccable_wall_s": $impeccable_wall
}
EOF

echo "bench_snapshot: wrote $out"
cat "$out"
