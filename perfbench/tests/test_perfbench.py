"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

They build the driver (like perfbench/run.py does) and run every workload
briefly, so they take a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(0), name)

    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})


class Workloads(unittest.TestCase):
    def check(self, workload, trace, expected):
        done = bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], expected[name])
            self.assertIsInstance(entry["value"], (int, float))
        return "\n".join(lines[:-1])

    def test_every_workload_reports_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, run.END_TO_END)

    def test_traced_runs_keep_the_fingerprint_and_mark_na(self):
        # The traced run fails its correctness check if the backend
        # decorator, the replay stub, a backend replay, tracing or the
        # journal changes a virtual result, or if flotilla-run prints other
        # virtual results for the same configuration.
        expected = {k: v[0] for k, v in run.PER_LAYER.items()}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                table = self.check(workload, 1, expected)
                for name, (_, applies, _) in run.PER_LAYER.items():
                    row = next(line for line in table.splitlines()
                               if line.split()[:1] == [name])
                    self.assertEqual("n/a" in row.split(),
                                     workload not in applies, row)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-test"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = bench(run.WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
