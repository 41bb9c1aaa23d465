#!/usr/bin/env bash
# Regression test for scripts/perf_pair.py error handling: a bad argument,
# a base checkout without a usable BENCHMARK.json or perfbench/run.py, or
# a run that fails or prints no JSON result must exit 2 with a
# "perf_pair:" message on stderr, never a Python traceback. No case
# reaches a real benchmark run: the base runs first and fails. Takes the
# repo root as $1; registered in tests/CMakeLists.txt as
# perf_pair_errors_test.
set -u

ROOT="${1:?usage: test_perf_pair_errors.sh <repo-root>}"
PAIR="$ROOT/scripts/perf_pair.py"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

check_error() {
  local desc="$1"; shift
  local stderr_file="$TMP/stderr"
  python3 "$PAIR" "$@" >/dev/null 2>"$stderr_file"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$desc: expected exit 2, got $rc"
  grep -q "perf_pair:" "$stderr_file" \
    || fail "$desc: no perf_pair: message on stderr"
  grep -q "Traceback" "$stderr_file" \
    && fail "$desc: traceback leaked to stderr"
  return 0
}

# A fake base checkout whose perfbench/run.py prints $1 and exits $2.
fake_base() {
  local dir="$TMP/$3"
  mkdir -p "$dir/perfbench"
  printf 'print(%s)\nraise SystemExit(%s)\n' "$1" "$2" \
    > "$dir/perfbench/run.py"
  echo "$dir"
}

check_error "no argument"
check_error "an option" --help
check_error "two arguments" "$TMP" "$TMP"
check_error "missing checkout" "$TMP/nope"

base="$(fake_base '"{}"' 0 no_spec)"
check_error "no BENCHMARK.json" "$base"

base="$(fake_base '"{}"' 0 bad_spec)"
printf '{"workloads": ' > "$base/BENCHMARK.json"
check_error "malformed BENCHMARK.json" "$base"

base="$(fake_base '"{}"' 0 no_workloads)"
printf '{"end_to_end": []}' > "$base/BENCHMARK.json"
check_error "BENCHMARK.json without workloads" "$base"

base="$(fake_base '"building"' 0 no_result)"
cp "$ROOT/BENCHMARK.json" "$base/"
check_error "run prints no JSON result" "$base"

base="$(fake_base '"{}"' 3 run_fails)"
cp "$ROOT/BENCHMARK.json" "$base/"
check_error "run exits non-zero" "$base"

echo "perf_pair error handling: ok"
