#!/usr/bin/env python3
"""Same-runner host-cost check of this checkout against a base checkout.

    scripts/perf_pair.py <base-checkout>

For every workload that both checkouts declare in BENCHMARK.json, runs
three pairs of `perfbench/run.py --workload W --seconds 5 --trace 0`, one
run in each checkout, alternating which goes first. Every run must report
"correct": true. An end-to-end metric fails only when the head's median is
worse than the base's by more than the metric's `bound` in this checkout's
BENCHMARK.json, and every head run is worse than every base run: host
timings on a shared machine drift by more than a bound between runs, so a
shift counts only when it is both large and consistent.

Exit 0: no regression; 1: a regression or an incorrect run; 2: usage or a
run that printed no result.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
PAIRS = 3
SECONDS = 5


def fail(message, code):
    print(f"perf_pair: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def declared(root):
    """The checkout's BENCHMARK.json and the names of its workloads."""
    path = root / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        names = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"{path} is not a benchmark spec: {error!r}", 2)
    return spec, names


def run(root, workload):
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seconds", str(SECONDS),
               "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stderr[-4000:], file=sys.stderr)
        fail(f"{' '.join(command)} (in {root}) exited {done.returncode}", 2)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{' '.join(command)} (in {root}) printed no JSON result", 2)


def worse(a, b, better):
    """True when value a is worse than value b."""
    return a > b if better == "lower" else a < b


def judge(metric, base, head):
    """(relative change of the head median, failed?) for one metric."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    change = (head_median - base_median) / base_median if base_median else 0.0
    if metric["better"] == "higher":
        change = -change
    consistent = all(worse(h, b, metric["better"])
                     for h in head for b in base)
    return change, change > metric["bound"] and consistent


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        fail("usage: scripts/perf_pair.py <base-checkout>", 2)
    base_root = Path(sys.argv[1]).resolve()
    if not (base_root / "perfbench" / "run.py").is_file():
        fail(f"{base_root} holds no perfbench/run.py", 2)

    spec, workloads = declared(HEAD)
    base_workloads = set(declared(base_root)[1])
    metrics = spec["end_to_end"]
    failures = []
    print("| workload | metric | base median | head median | worse by | "
          "bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        if workload not in base_workloads:
            print(f"| {workload} | (not in the base) | | | | | skipped |")
            continue
        samples = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            for side in order:
                root = base_root if side == "base" else HEAD
                result = run(root, workload)
                if result.get("correct") is not True:
                    failures.append(f"{workload}: a {side} run is not "
                                    "correct")
                samples[side].append(result["metrics"])
        for metric in metrics:
            name = metric["name"]
            base = [m[name]["value"] for m in samples["base"]]
            head = [m[name]["value"] for m in samples["head"]]
            change, failed = judge(metric, base, head)
            if failed:
                failures.append(f"{workload}: {name} worse by "
                                f"{change:+.1%}, every head run worse than "
                                "every base run")
            print(f"| {workload} | {name} | {statistics.median(base):.4g} | "
                  f"{statistics.median(head):.4g} | {change:+.1%} | "
                  f"{metric['bound']:.0%} | "
                  f"{'FAIL' if failed else 'ok'} |", flush=True)
    for failure in failures:
        print(f"perf_pair: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
