#!/usr/bin/env python3
"""Smoke test of the benchmark at minimal run length (about a minute).

    python3 bench/smoke_test.py

Runs every workload untraced and traced for one second and checks the
printed metric names and units against BENCHMARK.json; checks that a
perturbed golden value is counted as a failed call; and checks that the
benchmark refuses to run in a directory without the package sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "smoke"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "5", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def check_metrics(self, workload, trace, kind):
        code, lines = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertIn(f"{workload} {name} = ", "\n".join(lines))
            if kind == "end_to_end":
                self.assertGreater(m["value"], 0, name)
        self.assertTrue(any(line.startswith(f"{workload} failed_frac = 0 ") for line in lines))
        return result

    def test_every_workload_untraced(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(workloads.all_workloads()))
        for name in names:
            with self.subTest(workload=name):
                self.check_metrics(name, 0, "end_to_end")

    def test_every_workload_traced(self):
        for name in workloads.all_workloads():
            with self.subTest(workload=name):
                metrics = self.check_metrics(name, 1, "per_layer")["metrics"]
                self.assertGreater(metrics["cli.main.calls"]["value"], 0)
                self.assertEqual(metrics["cli.outputs_byte_identical"]["value"],
                                 metrics["cli.main.calls"]["value"])

    def perturbed_run(self, workload, perturb):
        golden_dir = SCRATCH / f"golden-{workload}"
        shutil.copytree(workloads.GOLDEN_DIR, golden_dir)
        path = golden_dir / f"{workload}.json"
        golden = json.loads(path.read_text())
        for entry in golden["calls"].values():
            perturb(entry)
        path.write_text(json.dumps(golden))
        code, lines = bench("--workload", workload, "--trace", "0", "--golden-dir", str(golden_dir))
        self.assertEqual(code, 1, lines[-5:])
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_perturbed_estimate_fails(self):
        def perturb(entry):
            entry["values"][0] *= 1 + 1e-7

        self.perturbed_run("clip-large", perturb)

    def test_perturbed_histogram_count_fails(self):
        def perturb(entry):
            key = next(iter(entry["counts"]))
            entry["counts"][key] += 1

        self.perturbed_run("cdm-sample-ref", perturb)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "clip-large", "--trace", "0",
                            cwd=bare, script=bare / HERE.name / "run.py")
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
