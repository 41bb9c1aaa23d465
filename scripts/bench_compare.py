#!/usr/bin/env python3
"""Perf-regression gate: compare a bench snapshot against the baseline.

    scripts/bench_compare.py BENCH_baseline.json BENCH_sched.json \
        [--tolerance 0.25] [--summary $GITHUB_STEP_SUMMARY]

Gated metrics (from scripts/bench_snapshot.sh) carry a direction: a
throughput metric regresses when it *drops* more than the tolerance below
the baseline, a cost metric when it *rises* more than the tolerance above
it. Improvements never fail the gate. Wall-clock canaries
(bench_*_wall_s) are reported but not gated — they track the runner, not
the code, and runner classes differ too much for a checked-in baseline.

Prints a delta table (markdown when --summary is given, aligned text
otherwise) and exits 1 on any regression. Re-baseline by running
scripts/bench_snapshot.sh on the CI runner class and committing the
output as BENCH_baseline.json (docs/observability.md).

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys

# metric -> direction; "higher" = throughput-like, "lower" = cost-like,
# None = informational only (never gated).
METRICS = {
    "placement_attempts_per_sec_linear": "higher",
    "placement_attempts_per_sec_indexed": "higher",
    "placement_speedup": "higher",
    "events_per_sec": "higher",
    "makespan_s": "lower",
    # Ingress tail-latency SLO (bench_streaming_latency): submit->launch
    # percentiles at the fixed below-knee offered rate regress when they
    # rise; the peak served rate over the sweep regresses when it drops.
    "submit_launch_p50_ms": "lower",
    "submit_launch_p99_ms": "lower",
    "submit_launch_p999_ms": "lower",
    "ingress_sustained_rate_per_s": "higher",
    "bench_throughput_wall_s": None,
    "bench_impeccable_wall_s": None,
}


def load(path, role):
    """Loads a snapshot json, exiting 2 with a clear message (no traceback)
    when the file is missing, unreadable, malformed, or not an object —
    the usual cause is a bench step that silently failed to produce
    BENCH_sched.json."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        print(
            f"bench_compare: cannot read {role} snapshot {path!r}: "
            f"{err.strerror or err}; did the bench step produce it?",
            file=sys.stderr,
        )
        sys.exit(2)
    except json.JSONDecodeError as err:
        print(
            f"bench_compare: {role} snapshot {path!r} is not valid JSON "
            f"(line {err.lineno}: {err.msg}); re-run the bench step",
            file=sys.stderr,
        )
        sys.exit(2)
    if not isinstance(data, dict):
        print(
            f"bench_compare: {role} snapshot {path!r} must be a JSON "
            f"object of metrics, got {type(data).__name__}",
            file=sys.stderr,
        )
        sys.exit(2)
    return data


def metric_value(snapshot, metric, role):
    """Coerces a metric to float, exiting 2 with a labeled message (no
    traceback) when a snapshot carries a non-numeric value — e.g. a bench
    whose KV line went missing leaves an empty string in the JSON field,
    or a histogram key that printed 'nan'/garbage."""
    try:
        value = float(snapshot[metric])
    except (TypeError, ValueError):
        print(
            f"bench_compare: {role} snapshot metric {metric!r} is not "
            f"numeric (got {snapshot[metric]!r}); re-run the bench step",
            file=sys.stderr,
        )
        sys.exit(2)
    if value != value:  # NaN: a histogram percentile over zero samples
        print(
            f"bench_compare: {role} snapshot metric {metric!r} is NaN "
            "(empty histogram?); re-run the bench step",
            file=sys.stderr,
        )
        sys.exit(2)
    return value


def evaluate(baseline, current, tolerance):
    """Returns (rows, regressions). Each row is a dict for the table."""
    rows = []
    regressions = []
    for metric, direction in METRICS.items():
        if metric not in baseline:
            continue
        if metric not in current:
            # A gated metric the baseline has but this snapshot lost is a
            # red flag (a bench that silently stopped running would
            # otherwise pass forever) — surface it as a labeled warning
            # row rather than skipping it.
            rows.append(
                {
                    "metric": metric,
                    "baseline": metric_value(baseline, metric, "baseline"),
                    "current": None,
                    "delta": None,
                    "status": "MISSING",
                }
            )
            continue
        base = metric_value(baseline, metric, "baseline")
        cur = metric_value(current, metric, "current")
        delta = (cur - base) / base if base != 0 else 0.0
        if direction == "higher":
            regressed = cur < base * (1.0 - tolerance)
        elif direction == "lower":
            regressed = cur > base * (1.0 + tolerance)
        else:
            regressed = False
        if direction is None:
            status = "info"
        elif regressed:
            status = "REGRESSED"
        else:
            status = "ok"
        rows.append(
            {
                "metric": metric,
                "baseline": base,
                "current": cur,
                "delta": delta,
                "status": status,
            }
        )
        if regressed:
            regressions.append(metric)
    return rows, regressions


def fmt_value(value):
    if value is None:
        return "n/a"
    return f"{value:.3f}" if abs(value) < 1000 else f"{value:.0f}"


def fmt_delta(value):
    return "n/a" if value is None else f"{value:+.1%}"


def render(rows, tolerance, markdown):
    lines = []
    if markdown:
        lines.append("### Bench gate (tolerance ±{:.0%})".format(tolerance))
        lines.append("")
        lines.append("| metric | baseline | current | delta | status |")
        lines.append("|---|---:|---:|---:|---|")
        for r in rows:
            lines.append(
                "| {metric} | {base} | {cur} | {delta} | {status} |".format(
                    metric=r["metric"],
                    base=fmt_value(r["baseline"]),
                    cur=fmt_value(r["current"]),
                    delta=fmt_delta(r["delta"]),
                    status=r["status"],
                )
            )
    else:
        width = max(len(r["metric"]) for r in rows) if rows else 10
        lines.append(
            f"bench gate (tolerance +/-{tolerance:.0%}); wall-clock rows informational"
        )
        for r in rows:
            lines.append(
                "  {metric:<{width}}  base={base:>12}  cur={cur:>12}  "
                "{delta:>7}  {status}".format(
                    metric=r["metric"],
                    width=width,
                    base=fmt_value(r["baseline"]),
                    cur=fmt_value(r["current"]),
                    delta=fmt_delta(r["delta"]),
                    status=r["status"],
                )
            )
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument("current", help="freshly measured snapshot json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative tolerance band (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--summary",
        default="",
        help="append a markdown delta table to this file "
        "(e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline, "baseline")
    current = load(args.current, "current")
    if baseline.get("quick") != current.get("quick"):
        print(
            "bench_compare: baseline and current ran in different modes "
            f"(quick={baseline.get('quick')} vs {current.get('quick')}); "
            "re-baseline with the same mode",
            file=sys.stderr,
        )
        return 2

    rows, regressions = evaluate(baseline, current, args.tolerance)
    if not rows:
        print("bench_compare: no shared metrics to compare", file=sys.stderr)
        return 2

    print(render(rows, args.tolerance, markdown=False), end="")
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(render(rows, args.tolerance, markdown=True))

    if regressions:
        print(
            "bench_compare: REGRESSION in: " + ", ".join(regressions),
            file=sys.stderr,
        )
        return 1
    print("bench_compare: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
