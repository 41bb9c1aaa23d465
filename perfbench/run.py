#!/usr/bin/env python3
"""Flotilla host-cost benchmark.

    python3 perfbench/run.py --workload flux_null_100k --seed 42 \
        --seconds 25 --trace 0

Builds the Flotilla libraries and the benchmark driver from this checkout
(Release, into .bench_build/), runs one workload, checks its outputs, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (host cost, set-up time, peak
memory, recovery time); --trace 1 runs the traced, per-layer split instead.
See perfbench/README.md for what each metric means and why each workload
exists.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench-driver"
FLOTILLA_RUN = BUILD / "flotilla-run"

WORKLOADS = ["flux_null_100k", "hybrid_mixed_100k", "impeccable_9408",
             "service_journal"]

# flotilla-run flags for the same configuration, so the traced run can
# check the virtual results against the repository's own CLI. The service
# workload offers function tasks, which flotilla-run's ingress cannot.
FLOTILLA_RUN_ARGS = {
    "flux_null_100k": ["--backend", "flux", "--nodes", "64", "--workload",
                       "null", "--tasks", "100000"],
    "hybrid_mixed_100k": ["--backend", "hybrid", "--nodes", "64",
                          "--partitions", "16", "--workload", "mixed",
                          "--tasks", "100000", "--duration", "0"],
    "impeccable_9408": ["--backend", "flux", "--nodes", "9408",
                        "--workload", "impeccable"],
}

END_TO_END = {
    "host_us_per_task": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recover_s": "s",
}

ALL = set(WORKLOADS)
FLUX = {"flux_null_100k", "hybrid_mixed_100k", "impeccable_9408"}
DRAGON = {"hybrid_mixed_100k", "service_journal"}
SERVICE = {"service_journal"}

# name -> (unit, workloads it applies to, what it should move). Outside its
# workloads a metric reads 0 and the table marks it n/a.
PER_LAYER = {
    "sim.events_per_task": ("events/task", ALL,
        "host_us_per_task on the null workloads; flat on impeccable_9408"),
    "sim.calendar_ns_per_event": ("ns", ALL,
        "host_us_per_task on the null workloads; flat on impeccable_9408"),
    "sim.pending_peak": ("events", ALL,
        "host_us_per_task on the null workloads; flat on impeccable_9408"),
    "core.tmgr.submit_us_per_task": ("us", ALL,
        "host_us_per_task and peak_rss_mb on flux_null_100k"),
    "core.agent.handler_us_per_task": ("us", ALL,
        "host_us_per_task on the null workloads"),
    "core.agent.retries_per_task": ("retries/task", ALL,
        "host_us_per_task on the null workloads"),
    "core.agent.routed_share.flux": ("share", ALL,
        "host_us_per_task on hybrid_mixed_100k only"),
    "core.agent.routed_share.dragon": ("share", ALL,
        "host_us_per_task on hybrid_mixed_100k only"),
    "core.self_us_per_task": ("us", ALL,
        "host_us_per_task everywhere, least on impeccable_9408"),
    "flux.submit_us_per_task": ("us", FLUX,
        "host_us_per_task on flux_null_100k"),
    "flux.self_us_per_task": ("us", FLUX,
        "host_us_per_task on flux_null_100k and impeccable_9408"),
    "flux.queue_depth_peak": ("jobs", FLUX,
        "host_us_per_task on flux_null_100k and impeccable_9408"),
    "dragon.submit_us_per_task": ("us", DRAGON,
        "host_us_per_task on hybrid_mixed_100k and service_journal"),
    "dragon.self_us_per_task": ("us", DRAGON,
        "host_us_per_task on hybrid_mixed_100k and service_journal"),
    "sched.attempts_per_task": ("attempts/task", ALL,
        "host_us_per_task on impeccable_9408; flat on flux_null_100k"),
    "sched.placed_share": ("share", ALL,
        "host_us_per_task on impeccable_9408; flat on flux_null_100k"),
    "sched.place_ns": ("ns", ALL,
        "host_us_per_task on impeccable_9408; flat on flux_null_100k"),
    "platform.node_changes_per_task": ("changes/task", ALL,
        "host_us_per_task on impeccable_9408"),
    "ingress.tasks_per_batch": ("tasks/batch", SERVICE,
        "host_us_per_task on service_journal"),
    "ingress.defer_share": ("share", SERVICE,
        "host_us_per_task on service_journal"),
    "ingress.submit_launch_p99_ms": ("ms", SERVICE,
        "nothing: virtual time, must not move"),
    "journal.records_per_task": ("records/task", SERVICE,
        "peak_rss_mb and host_us_per_task on service_journal"),
    "journal.bytes_per_task": ("B/task", SERVICE,
        "peak_rss_mb and host_us_per_task on service_journal"),
    "journal.us_per_task": ("us", SERVICE,
        "host_us_per_task on service_journal"),
    "journal.parse_s": ("s", ALL, "recover_s"),
    "journal.replayed_records": ("records", ALL, "recover_s"),
    "obs.us_per_task": ("us", ALL,
        "nothing while tracing is off (it is, in every timed run)"),
    "obs.records_per_task": ("records/task", ALL,
        "nothing while tracing is off"),
    "obs.dropped": ("records", ALL, "nothing while tracing is off"),
    "bench.trace_overhead_share": ("share", ALL,
        "nothing: cost of the traced run"),
    "bench.layer_sum_share": ("share", ALL,
        "nothing: closure of the split, (core + backends) / end to end"),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"perfbench: {message}")
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Flotilla sources next to {HERE.name}/ (expected "
             f"{ROOT / 'src'})", code=2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                              timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:], done.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def run_json(command, timeout):
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        fail(f"{' '.join(map(str, command))} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(map(str, command))} printed nothing")
    return json.loads(lines[-1])


def driver(mode, workload, seed, budget):
    journal = BUILD / f"journal-{workload}-{seed}.jrn"
    command = [str(DRIVER), mode, "--workload", workload, "--seed",
               str(seed), "--budget", f"{budget:.3f}", "--journal-file",
               str(journal)]
    return run_json(command, timeout=170)


def flotilla_run_mismatches(workload, seed, fp):
    """Virtual results flotilla-run prints that the driver did not get."""
    args = FLOTILLA_RUN_ARGS.get(workload)
    if args is None:
        return []
    done = subprocess.run([str(FLOTILLA_RUN), *args, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    printed = {}
    for line in done.stdout.splitlines():
        key, _, value = line.strip().partition(":")
        printed[key] = value.strip()
    # flotilla-run formats doubles with the iostream default (%g).
    expected = {
        "tasks done/failed": f"{fp['done']:.0f}/{fp['failed']:.0f}",
        "throughput avg/peak": f"{fp['avg_tput']:g} / {fp['peak_tput']:g} "
                               "tasks/s",
        "utilization CPU/GPU": f"{100 * fp['core_util']:g}% / "
                               f"{100 * fp['gpu_util']:g}%",
        "makespan": f"{fp['makespan']:g} s",
    }
    return [f"flotilla-run {key}: {printed.get(key)!r} != {value!r}"
            for key, value in expected.items() if printed.get(key) != value]


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seed, seconds):
    timed = driver("timed", workload, seed, 0.9 * seconds)
    errors = timed["errors"]
    ops = timed["operations"]
    samples = {
        "host_us_per_task": [t / ops * 1e6 for t in timed["host_s"]],
        "setup_s": timed["setup_s"],
        "peak_rss_mb": [timed["peak_rss_kb"] / 1024.0],
        "recover_s": timed["recover_s"],
    }
    if not all(samples.values()):
        errors = errors + ["the run ended before every metric had a sample"]
    values = {name: statistics.median(v) if v else 0.0
              for name, v in samples.items()}
    print(f"{workload} seed={seed}: {ops:.0f} operations per campaign, "
          f"crash point at journal record {timed['crash_record']:.0f}")
    for name, unit in END_TO_END.items():
        v = samples[name]
        if v:
            print(f"  {name:<18} {values[name]:>12.6g} {unit:<3} median of "
                  f"{len(v)}, range {min(v):.4g}..{max(v):.4g}")
    print("  fingerprint:", json.dumps(timed["fingerprint"]))
    for error in errors:
        print("  ERROR:", error)
    attempted = int(timed["attempted"])
    failed = attempted if errors else int(timed["failed"])
    metrics = {name: metric(values[name], unit)
               for name, unit in END_TO_END.items()}
    return not errors, max(attempted, 1), failed, metrics


def traced_run(workload, seed, seconds):
    start = time.monotonic()
    trace = driver("trace", workload, seed, seconds)
    errors = trace["errors"]
    errors += flotilla_run_mismatches(workload, seed, trace["fingerprint"])
    values = trace["metrics"]
    print(f"{workload} seed={seed}: traced split, "
          f"{trace['operations']:.0f} operations, timed repetition "
          f"{trace['host_us_per_task']:.4g} us/task")
    print(f"  {'metric':<32} {'value':>12} {'unit':<13} should move")
    for name, (unit, applies, moves) in PER_LAYER.items():
        shown = (f"{values[name]:>12.5g}" if workload in applies
                 else f"{'n/a':>12}")
        print(f"  {name:<32} {shown} {unit:<13} {moves}")
    closure = values["bench.layer_sum_share"]
    if abs(closure - 1.0) > 0.10:
        print(f"  layer sum is {closure:.3f} of end to end: outside the "
              "+-10% closure")
    print(f"  traced process {trace['trace_process_s']:.1f} s, whole traced "
          f"run {time.monotonic() - start:.1f} s")
    print("  fingerprint:", json.dumps(trace["fingerprint"]))
    for error in errors:
        print("  ERROR:", error)
    ops = int(trace["operations"])
    metrics = {name: metric(values[name], unit)
               for name, (unit, _, _) in PER_LAYER.items()}
    return not errors, max(ops, 1), (ops if errors else 0), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        fail("--seconds must be positive", code=2)

    build()
    run = traced_run if args.trace else timed_run
    correct, attempted, failed, metrics = run(args.workload, args.seed,
                                              args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
