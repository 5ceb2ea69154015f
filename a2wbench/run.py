#!/usr/bin/env python3
"""Benchmark for the a2w command line: closed-loop workloads, checked outputs.

Run from the root of a source checkout:

    python3 a2wbench/run.py --workload interval-symbolic --seed 1 --seconds 25 --trace 0

One client drives ``a2w.cli.main(argv)`` in-process: each op is sent only
after the previous one returns. The op list is built from --seed (see
workloads.py) and replayed in passes until --seconds have been measured;
every output is checked against references the benchmark computes itself
(see oracles.py). Ops that reproduce a known defect of the program run
once before the timed passes and are reported apart from the mix.
--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with every a2w layer wrapped (see tracing.py), and
prints the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload, each in a fresh process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 5     # fresh-process set-ups before and again after the passes
PASSES_MIN = 3        # every run completes at least this many passes
# op_s.tail is this percentile of the per-op medians. Over the per-op medians
# the percentile sits at a position fixed by the op list; over the pooled
# samples of a mixed op list it would fall between two ops of different cost
# and move with the number of passes a run fits.
TAIL_LEVEL = 90
REF_EVERY = 0.1       # seconds between reference probes during the passes

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                    "batch_rel": "ratio", "op_rel.p50": "ratio", "op_rel.tail": "ratio",
                    "ops_failed_frac": "fraction", "oracle_violations": "count",
                    "peak_rss_mb": "MB"}
# The metrics gated by BENCHMARK.json; failures and violations are reported
# in the JSON line's "failed" and "correct" fields instead.
GATED = ("setup_s", "batch_rel", "op_rel.p50", "op_rel.tail", "peak_rss_mb")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few ops per workload and one pass minimum (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ set-up

def _import_cli():
    """Import a2w.cli from the checkout and build its parser once."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import a2w.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            a2w.cli.main(["--version"])  # builds the parser, then exits
        except SystemExit:
            pass
    return a2w.cli


def _setup_probe(args) -> int:
    """Fresh-process set-up: import, parser build, spec generation and writing."""
    OUT.mkdir(parents=True, exist_ok=True)
    spec_dir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        t0 = perf_counter()
        _import_cli()
        workloads.build(args.workload, args.seed, spec_dir, tiny=args.tiny)
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_samples(args, warmup: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for k in range(warmup + SETUP_SAMPLES):  # a warm-up fills the bytecode cache
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if k >= warmup:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ------------------------------------------------------------ machine record

def _steal_ticks() -> int | None:
    """Cumulative steal time of all CPUs, in clock ticks (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class Reference:
    """A fixed computation timed before an op once REF_EVERY seconds have passed since the last.

    It mixes what a2w spends its time on, Fraction arithmetic and small
    eigensolves, so a shared machine's slow and fast spells slow it as they
    slow a2w. Each op time is divided by the mean of the probes just before
    and just after the op. Over 30 s windows on a 2-core machine, the median
    time of one op spread by 0.14 (IQR over median), and the median of its
    ratios to the probes around it by 0.02.
    """

    def __init__(self):
        import numpy as np
        m = np.arange(16.0).reshape(4, 4)
        self._eigh = np.linalg.eigh
        self._matrix = m @ m.T + np.eye(4)
        self._last = -math.inf
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        acc = Fraction(0)
        for k in range(1, 400):
            acc += Fraction(1, k * k + 1)
        for _ in range(400):
            self._eigh(self._matrix)
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def due(self) -> int:
        """Probe if REF_EVERY has passed; the index of the latest probe."""
        if perf_counter() - self._last >= REF_EVERY:
            self.probe()
        return len(self.samples) - 1

    def relative(self, times: list[float], anchors: list[int]) -> list[float]:
        """Each time over the mean of its anchor probe and the next one."""
        self.probe()  # the probe after the last op
        s = self.samples
        return [t / ((s[a] + s[a + 1]) / 2.0) for t, a in zip(times, anchors)]


def _machine(threads: str, ref_s: float, steal0) -> dict:
    import numpy as np
    steal1 = _steal_ticks()
    tick = os.sysconf("SC_CLK_TCK")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "A2W_THREADS": threads, "python": platform.python_version(),
            "numpy": np.__version__, "ref_s": ref_s,
            "steal_s": (steal1 - steal0) / tick if steal0 is not None and steal1 is not None
            else None}


# ------------------------------------------------------------------ the loop

class Runner:
    """Replays the op list in passes and keeps outcomes, outputs and timings.

    Each pass runs the ops in an order shuffled from the seed and the pass
    number. A shared machine's speed drifts by a fifth over seconds; in a
    fixed order, ops of one kind sit side by side and share one slow or
    fast spell, while shuffled, each op's samples fall at different times.
    """

    def __init__(self, ops, main, check, seed=0, reference=None):
        self.ops = ops
        self.main = main
        self.check = check
        self.seed = seed
        self.reference = reference
        self.rel_passes: list[list[float]] = []  # op times over the probes around them
        self.passes = 0
        self.first_output: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str], int] = {}
        self.violations: dict[tuple[str, str], int] = {}

    def _call(self, argv, tracer, k):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = self.main(argv)
                else:
                    rc = tracer.run_op(k, self.main, argv)
                error = None
            except SystemExit as exc:
                rc, error = exc.code, None
            except Exception as exc:  # noqa: BLE001 - the op boundary records every failure
                rc, error = None, type(exc).__name__
        return rc, error, out.getvalue()

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One closed-loop pass; returns its wall time and the per-op times."""
        order = list(range(len(self.ops)))
        random.Random(f"{self.seed}:{self.passes}").shuffle(order)
        self.passes += 1
        results, times = [None] * len(order), [0.0] * len(order)
        anchors = [0] * len(order)
        t_pass = perf_counter()
        for k in order:
            if self.reference is not None:
                anchors[k] = self.reference.due()
            t0 = perf_counter()
            results[k] = self._call(self.ops[k].argv, tracer, k)
            times[k] = perf_counter() - t0
        wall = perf_counter() - t_pass
        if self.reference is not None:
            self.rel_passes.append(self.reference.relative(times, anchors))
        for k, (rc, error, out) in enumerate(results):
            self._account(k, rc, error, out)
        return wall, times

    def _account(self, k, rc, error, out) -> None:
        op = self.ops[k]
        self.attempted += 1
        if error is not None or rc != 0:  # every op's spec implies exit 0
            self.failed += 1
            key = (op.label, error or f"exit {rc}")
            self.failures[key] = self.failures.get(key, 0) + 1
            return
        if self.first_output[k] is None:
            self.first_output[k] = out
            try:
                found = self.check(op.oracle, json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable --json output: {type(exc).__name__}: {exc}"]
        else:
            found = [] if out == self.first_output[k] else ["--json output differs across passes"]
        for v in found:
            key = (op.label, v)
            self.violations[key] = self.violations.get(key, 0) + 1


def _op_medians(passes: list[list[float]]) -> list[float]:
    """Each op's median time across the passes, in op-list order."""
    return [statistics.median(column) for column in zip(*passes)]


def _run_passes(runner, deadline: float, minimum: int, tracer=None):
    """Passes until the next one would end past the deadline; per-pass op times."""
    walls, passes = [], []
    while True:
        wall, per_op = runner.run_pass(tracer)
        walls.append(wall)
        passes.append(per_op)
        if len(walls) >= minimum and perf_counter() + statistics.median(walls) > deadline:
            return walls, passes


def _tail(medians: list[float]) -> float:
    return statistics.quantiles(medians, n=100, method="inclusive")[TAIL_LEVEL - 1]


def _batch(passes: list[list[float]]) -> float:
    """Time for one pass over the op list: the sum of each op's median across passes.

    A machine slow phase that straddles two passes inflates both pass walls,
    but only one sample of each op, so this is steadier than the median wall.
    """
    return sum(_op_medians(passes))


def _known_defects(probes, main, check) -> list[str]:
    """Run each known-defect op once; one report line per op saying whether it still shows."""
    runner = Runner(probes, main, check)
    if probes:
        runner.run_pass()
    shown = {label: what for (label, what) in runner.failures}
    shown.update({label: what for (label, what) in runner.violations})
    return [f"  known defect ({op.known_defect}): {op.label}: "
            f"{shown.get(op.label, 'no longer shows')}" for op in probes]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    # One a2w thread: its pools split pure-Python work under the GIL, and at
    # two threads on two cores interval-symbolic ran 1.5 to 1.7 times slower
    # than at one, with a wider spread from run to run.
    threads = "1"
    os.environ["A2W_THREADS"] = threads
    steal0 = _steal_ticks()
    OUT.mkdir(parents=True, exist_ok=True)
    setup = _setup_samples(args, warmup=1)
    spec_dir = tempfile.mkdtemp(prefix=f"specs-{args.workload}-", dir=OUT)
    try:
        t0 = perf_counter()
        cli = _import_cli()
        built = workloads.build(args.workload, args.seed, spec_dir, tiny=args.tiny)
        setup_here = perf_counter() - t0
        import oracles  # numpy-backed; imported after set-up is timed
        ops = [op for op in built if not op.known_defect]
        defects = _known_defects([op for op in built if op.known_defect],
                                 cli.main, oracles.check)
        reference = Reference()
        runner = Runner(ops, cli.main, oracles.check, args.seed, reference)
        minimum = 1 if args.tiny else PASSES_MIN
        start = perf_counter()
        tracer = None
        if args.trace:
            from tracing import Tracer
            walls, passes = _run_passes(runner, start + args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            traced_walls, traced_passes = _run_passes(runner, start + args.seconds, 1, tracer)
        else:
            walls, passes = _run_passes(runner, start + args.seconds, minimum)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    setup += _setup_samples(args, warmup=0)

    medians = _op_medians(passes)
    rel = _op_medians(runner.rel_passes[:len(passes)])  # the untraced passes come first
    violations = sum(runner.violations.values())
    e2e = {"setup_s": statistics.median(setup),
           "batch_s": sum(medians),
           "op_s.p50": statistics.median(medians),
           "op_s.tail": _tail(medians),
           "batch_rel": sum(rel),
           "op_rel.p50": statistics.median(rel),
           "op_rel.tail": _tail(rel),
           "ops_failed_frac": runner.failed / runner.attempted,
           "oracle_violations": violations,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    machine = _machine(threads, statistics.median(reference.samples), steal0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(ops)} ops per pass")
    print(f"  untraced pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  untraced passes {len(walls)}, op samples {len(walls) * len(ops)}; "
          f"op_s.p50 and op_s.tail are p50 and p{TAIL_LEVEL} of the {len(ops)} per-op "
          f"medians; *_rel the same over op times divided by the {len(reference.samples)} "
          f"reference probes around them; set-up samples {len(setup)} (in-process set-up {setup_here:.4f} s)")
    for name, value in e2e.items():
        print(f"  {name:<20} {_fmt(value):>14} {END_TO_END_UNITS[name]}")
    print("  machine " + json.dumps(machine, sort_keys=True))
    for (label, error), count in sorted(runner.failures.items()):
        print(f"  failed op: {label}: {error} (x{count})")
    for (label, what), count in sorted(runner.violations.items()):
        print(f"  oracle violation: {label}: {what} (x{count})")
    for line in defects:
        print(line)

    if tracer is not None:
        layer = tracer.layer_metrics(len(traced_walls))
        layer["trace.overhead_s"] = (_batch(traced_passes) - e2e["batch_s"], "s")
        print(f"  traced passes {len(traced_walls)}; per-layer metrics per pass:")
        for name, (value, unit) in layer.items():
            print(f"  {name:<36} {_fmt(value):>14} {unit}")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {"workload": args.workload, "seed": args.seed,
                                "ops": [op.label for op in ops], "machine": machine})
        print(f"  spans written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in GATED}

    print(json.dumps({"correct": violations == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, reports relayed in order."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "a2w" / "cli.py").is_file():
        print(f"a2w sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
