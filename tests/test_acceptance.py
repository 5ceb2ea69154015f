"""Acceptance gate: one test per shipping criterion.

Each test pins the tolerances it states; the conftest reporter prints one
PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import a2w.estimator as estimator
from a2w.cli import main
from a2w.estimator import (a2_functional_norm, a2_functional_trace,
                           average_numeric, average_symbolic, estimate_a2)
from a2w.linalg import elim_inverse, lu_det
from a2w.multivar import Cube, average_type1b, build_type1a, build_type1b
from a2w.search import Interval, coarse_interval_config
from a2w.type1 import (SymbolicPowerMatrix, a2_upper_bound, build_type1,
                       build_type1_raw, check_a2, evaluate, symbolic_det,
                       symbolic_inverse)
from a2w.type2 import (Type2Weight, as_pointwise, evaluate_type2,
                       inverse_weight, logspaced_ints, rotation2d,
                       rotation3d_euler)
from a2w.verify import random_interval, random_point, random_type1_weight

HALF = Fraction(1, 2)

TWO_BY_TWO = {"kind": "type1", "coeff": [[5, 3], [3, 2]],
              "diag_exponents": ["1/2", "-2/3"]}
THREE_BY_THREE = {"kind": "type1",
                  "coeff": [[4, 1, 2], [1, 2, -1], [2, -1, 3]],
                  "diag_exponents": ["3/4", "-3/4", "1/2"]}


def _write_spec(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_criterion_01_builtin_examples_exact_and_fast(tmp_path, capsys):
    cases = (
        (TWO_BY_TWO, {(0, 1): "-1/12"}),
        (THREE_BY_THREE, {(0, 1): "0", (0, 2): "5/8", (1, 2): "-1/8"}),
    )
    for k, (doc, offdiag) in enumerate(cases):
        spec = _write_spec(tmp_path, doc, f"c1_{k}.json")
        t0 = time.perf_counter()
        code = main(["check", spec, "--json"])
        elapsed = time.perf_counter() - t0
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["report"]["verdict"] == "a2"
        exps = payload["spec"]["exponents"]
        for (i, j), want in offdiag.items():
            assert exps[i][j] == want
            assert exps[j][i] == want
        assert elapsed < 0.1


def test_criterion_02_sharpness_of_the_exponent_rules():
    # off-diagonal exponent moved off the midpoint by 1/10
    bumped = Fraction(-1, 12) + Fraction(1, 10)
    assert bumped == Fraction(1, 60)
    raw = build_type1_raw([[5.0, 3.0], [3.0, 2.0]],
                          ((HALF, bumped), (bumped, -Fraction(2, 3))))
    report = check_a2(raw)
    assert report.verdict == "not_positive_definite_ae"
    assert report.witness is not None
    wx = evaluate(raw, report.witness)
    lam_min = float(np.linalg.eigvalsh(wx).min())
    assert lam_min < -1e-12 * float(np.linalg.norm(wx, 2))

    # diagonal exponent pushed to the closed endpoint of the range
    shifted = build_type1([[5.0, 3.0], [3.0, 2.0]], (Fraction(1), -Fraction(2, 3)))
    report2 = check_a2(shifted)
    assert report2.verdict == "not_a2"
    assert any(f.kind == "diagonal-exponent-range" for f in report2.findings)


def test_criterion_03_symbolic_routes_match_numeric_oracles():
    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    for k in range(100):
        w = random_type1_weight(rng, 2 + k % 3)
        det_coeff, det_exp = symbolic_det(w)
        inv = symbolic_inverse(w)
        for _ in range(40):
            x = random_point(rng)
            m = evaluate(w, x)
            ref_det = lu_det(m)
            got_det = det_coeff * abs(x) ** float(det_exp)
            assert abs(got_det - ref_det) <= 1e-9 * abs(ref_det)
            ref_inv = elim_inverse(m)
            got_inv = evaluate(inv, x)
            scale = float(np.max(np.abs(ref_inv)))
            assert float(np.max(np.abs(got_inv - ref_inv))) <= 1e-8 * scale
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_scalar_constant_reaches_the_closed_form():
    result = estimate_a2(SymbolicPowerMatrix(np.array([[1.0]]), (((HALF,),),)),
                         "trace")
    top = 4.0 / 3.0
    # searched values are lower bounds; 1e-9 relative slack absorbs
    # floating-point evaluation of the closed form at the argmax
    assert result.estimate >= 0.99 * top
    assert result.estimate <= top * (1.0 + 1e-9)
    iv = result.argmax
    halflength = 0.5 * (iv.b - iv.a)
    assert min(abs(iv.a), abs(iv.b)) <= 1e-3 * halflength


def test_criterion_05_no_interval_beats_the_certified_trace_bound(monkeypatch):
    rng = np.random.default_rng(5005)
    cfg = coarse_interval_config()
    for k in range(50):
        w = random_type1_weight(rng, 2 + k % 3)
        bound = a2_upper_bound(w)
        seen: list[float] = []

        def recording_trace(avg_w, avg_winv, _out=seen):
            # the search passes stacks of averages: one value per interval
            val = a2_functional_trace(avg_w, avg_winv)
            _out.extend(np.atleast_1d(val).tolist())
            return val

        monkeypatch.setitem(estimator._FUNCTIONALS, "trace", recording_trace)
        estimate_a2(w, "trace", cfg)
        assert seen
        assert max(seen) <= bound * (1.0 + 1e-9)


def test_criterion_06_divergence_sweep_and_bounded_control(capsys):
    t0 = time.perf_counter()
    code = main(["divergence", "--gamma1", "0", "--gamma2", "1/2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    ns = [r["n"] for r in payload["rows"]]
    assert ns[0] == 100 and ns[-1] == 100000 and len(ns) == 13
    assert payload["fitted_slope"] >= 0.24
    products = [r["product"] for r in payload["rows"]]
    assert all(q > p for p, q in zip(products, products[1:]))

    # equal-exponent control: same windows, trace stays at the 2x2 ceiling
    control = Type2Weight((1.0, 1.0), (HALF, HALF), "rotation2d")
    fwd, bwd = as_pointwise(control), as_pointwise(inverse_weight(control))
    for n in logspaced_ints(100, 100000, 13):
        a = 2.0 * math.pi * n
        iv = Interval(a, a + math.pi)
        trace = a2_functional_trace(average_numeric(fwd, iv, 1e-8),
                                    average_numeric(bwd, iv, 1e-8))
        assert trace <= 8.0 / 3.0 + 1e-6
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_structural_identities_of_rotation_weights():
    rng = np.random.default_rng(7007)
    weights = (
        Type2Weight((1.3, 0.7), (HALF, -Fraction(1, 4)), "rotation2d"),
        Type2Weight((2.0, 1.0, 0.5), (Fraction(3, 4), -Fraction(3, 4), HALF),
                    "rotation3d_euler"),
    )
    for w in weights:
        xs = rng.choice([-1.0, 1.0], size=100) * 10.0 ** rng.uniform(
            -3.0, 2.0, size=100)
        for x in xs:
            m = evaluate_type2(w, float(x))
            expect = sum(a * abs(x) ** float(g)
                         for a, g in zip(w.alphas, w.gammas))
            assert abs(float(np.trace(m)) - expect) <= 1e-10
            got = np.sort(np.linalg.eigvalsh(m))
            want = np.sort([a * abs(x) ** float(g)
                            for a, g in zip(w.alphas, w.gammas)])
            assert np.allclose(got, want, rtol=1e-9, atol=1e-13)

    xs = rng.uniform(-40.0, 40.0, size=100)
    for x in xs:
        for u, n in ((rotation2d(float(x)), 2), (rotation3d_euler(float(x)), 3)):
            assert float(np.max(np.abs(u @ u.conj().T - np.eye(n)))) <= 1e-12


def test_criterion_08_sandwich_and_floor_bounds():
    rng = np.random.default_rng(8008)
    for k in range(500):
        n = 2 + k % 3
        w = random_type1_weight(rng, n)
        iv = random_interval(rng)
        avg_w = average_symbolic(w, iv)
        avg_winv = average_symbolic(symbolic_inverse(w), iv)
        trace = a2_functional_trace(avg_w, avg_winv)
        norm = a2_functional_norm(avg_w, avg_winv)
        assert norm <= trace * (1.0 + 1e-9)
        assert trace <= n * norm * (1.0 + 1e-9)
        assert norm >= 1.0 - 1e-9
        assert trace >= n * (1.0 - 1e-9)


def _graded_axis_rule(lo, hi, levels, order=30):
    """Panelized Gauss rule on [lo, hi], graded geometrically toward 0."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    if lo <= 0.0 <= hi:
        pts = {lo, hi, 0.0}
        for side in (lo, hi):
            width = abs(side)
            if width > 0.0:
                for k in range(1, levels):
                    pts.add(math.copysign(width * 2.0 ** -k, side))
        cuts = sorted(pts)
    else:
        cuts = list(np.linspace(lo, hi, 9))
    xs, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * nodes)
        ws.append(half * wts)
    return np.concatenate(xs), np.concatenate(ws)


def _brute_cube_average(coeff, ex, ey, cube):
    """2D tensor-grid quadrature of coeff |x|^ex |y|^ey over the cube."""
    xn, xw = _graded_axis_rule(cube.lower[0], cube.upper[0], levels=75)
    yn, yw = _graded_axis_rule(cube.lower[1], cube.upper[1], levels=40)
    ycol = np.abs(yn) ** ey * yw
    total = 0.0
    for start in range(0, xn.size, 512):
        xs = xn[start:start + 512]
        block = np.abs(xs)[:, None] ** ex * ycol[None, :]
        total += float(np.sum(block * xw[start:start + 512, None]))
    return coeff * total / cube.volume


def test_criterion_09_cube_averages_and_radial_range_rule():
    from a2w.scalar_power import average_abs_pow

    w = build_type1a([[5.0, 3.0], [3.0, 2.0]],
                     [(HALF, -Fraction(2, 3)), (Fraction(1, 3), Fraction(0))])
    for cube in (Cube((-0.4, 0.25), 1.3), Cube((0.0, 0.0), 2.0)):
        avg = average_symbolic(w, cube)
        for i in range(2):
            for j in range(2):
                closed = float(w.coeff[i, j].real)
                for c in range(2):
                    closed *= average_abs_pow(
                        w.exponents[c][i][j], cube.interval(c))
                assert abs(avg[i, j] - closed) <= 1e-12 * abs(closed)
                brute = _brute_cube_average(
                    float(w.coeff[i, j].real),
                    float(w.exponents[0][i][j]),
                    float(w.exponents[1][i][j]), cube)
                assert abs(avg[i, j] - brute) <= 1e-7 * abs(brute)

    radial = build_type1b([[1.0]], (Fraction(1),), 2)
    avg_r = average_type1b(radial, Cube((0.0, 0.0), 1.0), tol=1e-8)
    exact = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 3.0
    assert abs(float(avg_r[0, 0]) - exact) <= 1e-6

    assert check_a2(
        build_type1b([[1.0]], (Fraction(3, 2),), 2)).verdict == "a2"
    assert check_a2(
        build_type1b([[1.0]], (Fraction(2),), 2)).verdict == "not_a2"


def test_criterion_10_byte_identical_repeat_runs(tmp_path):
    exe = shutil.which("a2w")
    base = [exe] if exe else [
        sys.executable, "-c",
        "import sys; from a2w.cli import main; sys.exit(main())"]
    spec = _write_spec(tmp_path, TWO_BY_TWO, "c10.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    const_argv = base + ["constant", spec, "--json", "--grid", "coarse"]
    first = subprocess.run(const_argv, capture_output=True, check=True, env=env)
    second = subprocess.run(const_argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    json.loads(first.stdout.decode("utf-8"))

    div_argv = base + ["divergence", "--gamma1", "0", "--gamma2", "1/2",
                       "--n-min", "10", "--n-max", "1000", "--points", "5",
                       "--json"]
    csv1, csv2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    d1 = subprocess.run(div_argv + ["--out", csv1], capture_output=True,
                        check=True, env=env)
    d2 = subprocess.run(div_argv + ["--out", csv2], capture_output=True,
                        check=True, env=env)
    assert d1.stdout == d2.stdout
    with open(csv1, "rb") as f1, open(csv2, "rb") as f2:
        assert f1.read() == f2.read()
