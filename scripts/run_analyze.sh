#!/usr/bin/env bash
# flotilla-analyze over the project's own sources (src/ and tools/),
# against the committed layer DAG (analyze/layers.conf). Usage:
#
#   scripts/run_analyze.sh [build-dir] [sarif-output]
#
# Builds the tool if needed, writes the SARIF report (default
# flotilla-analyze.sarif, what CI uploads), and exits non-zero on any
# finding not waived in source — which is how CI gates on it. A finding
# is either fixed or waived on its line with
# // FLOTILLA_LINT_ALLOW(<rule>): <reason> (docs/correctness.md,
# "Static analysis").
set -euo pipefail

build_dir=${1:-build}
sarif_out=${2:-flotilla-analyze.sarif}

cd "$(dirname "$0")/.."

if [ ! -d "$build_dir" ]; then
  echo "run_analyze: no build dir '$build_dir'" \
       "(configure with cmake -B '$build_dir' first)" >&2
  exit 2
fi
cmake --build "$build_dir" --target flotilla-analyze -- -j "$(nproc 2>/dev/null || echo 2)"

analyze="$build_dir/tools/flotilla-analyze"

# SARIF for the artifact upload (exit code deferred to the gating run,
# which reports the same findings).
"$analyze" --sarif --output "$sarif_out" || true

# Human-readable gate: prints findings and fails on them. Timed so CI
# logs show analyzer cost as the tree grows.
start_ms=$(date +%s%3N)
status=0
"$analyze" || status=$?
end_ms=$(date +%s%3N)
echo "run_analyze: gate finished in $((end_ms - start_ms)) ms" >&2
exit "$status"
