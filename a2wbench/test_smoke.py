"""Smoke test of the benchmark at a tiny size with a fixed seed.

Run from the root of a source checkout:

    python3 -m unittest a2wbench/test_smoke.py

It runs every workload with --tiny, untraced and traced, and checks that
every metric BENCHMARK.json names is printed with its unit, that no op of
the timed mix fails or breaks an oracle, and that the known defects of the
program are reported apart from the mix.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORT_ONLY = {"batch_s": "s", "op_s.p50": "s", "op_s.tail": "s",
               "ops_failed_frac": "fraction", "oracle_violations": "count"}
# What the known-defect ops of each workload print while the defect shows.
KNOWN_DEFECTS = {"interval-quadrature": "identity estimate", "cube": "NonPositiveInputError"}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines: list[str], name: str, unit: str) -> float | None:
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}$")
    for line in lines:
        m = pattern.match(line)
        if m:
            return float(m.group(1))
    return None


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                lines, result = _run(workload, trace=0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                units.update(REPORT_ONLY)
                for name, unit in units.items():
                    self.assertIsNotNone(_printed(lines, name, unit), f"{name} [{unit}]")
                self.assertEqual(_printed(lines, "oracle_violations", "count"), 0)
                self.assertEqual(_printed(lines, "ops_failed_frac", "fraction"), 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                defects = [line for line in lines if line.startswith("  known defect")]
                if workload in KNOWN_DEFECTS:
                    self.assertTrue(defects)
                    for line in defects:
                        self.assertIn(KNOWN_DEFECTS[workload], line)
                else:
                    self.assertEqual(defects, [])

                lines, result = _run(workload, trace=1)
                units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                for name, unit in units.items():
                    self.assertIsNotNone(_printed(lines, name, unit), f"{name} [{unit}]")


if __name__ == "__main__":
    unittest.main()
