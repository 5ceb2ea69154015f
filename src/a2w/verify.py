"""Randomized self-check suites: every closed form against an independent
numeric oracle.

Each property draws seeded random cases and compares two routes to the
same quantity (symbolic formulas vs pointwise numerics, assembled
matrices vs eigenvalue data). The CLI's verify command runs these and
reports one pass/fail line per property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import estimator, linalg, multivar, type1, type2
from .quadrature import adaptive_quad
from .regions import Cube, Interval

__all__ = [
    "PropertyResult",
    "VERIFY_MODULES",
    "random_type1_weight",
    "random_interval",
    "random_cube",
    "run_module",
    "run_suites",
]

VERIFY_MODULES = ("linalg", "type1", "type2", "multivar")


@dataclass(frozen=True)
class PropertyResult:
    module: str
    name: str
    trials: int
    passed: bool
    detail: str = ""


def _rel_err(a, b) -> float:
    num = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    den = max(float(np.max(np.abs(np.asarray(a)))),
              float(np.max(np.abs(np.asarray(b)))), 1e-300)
    return num / den


def random_type1_weight(rng: np.random.Generator, n: int) -> type1.SymbolicPowerMatrix:
    """Valid midpoint-completed weight with a well-conditioned PD coefficient
    matrix and diagonal exponents in (-1, 1) with denominator 10."""
    if rng.random() < 0.3:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        g = rng.normal(size=(n, n)).astype(complex)
    a = g @ g.conj().T + n * np.eye(n)
    diag = tuple(Fraction(int(rng.integers(-9, 10)), 10) for _ in range(n))
    return type1.build_type1(a, diag)


def random_point(rng: np.random.Generator) -> float:
    """Nonzero evaluation point spread over eight decades."""
    return float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-4.0, 4.0)


def random_interval(rng: np.random.Generator) -> Interval:
    """Interval from the search family: symmetric, anchored, or origin-free."""
    h = 10.0 ** rng.uniform(-3.0, 3.0)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Interval(-h, h)
    if kind == 1:
        return Interval(0.0, 2.0 * h) if rng.random() < 0.5 else Interval(-2.0 * h, 0.0)
    c = float(rng.choice([-1.0, 1.0])) * h * (1.0 + 10.0 ** rng.uniform(-2.0, 2.0))
    return Interval(c - h, c + h)


def random_cube(rng: np.random.Generator, d: int) -> Cube:
    """A cube in dimension d of random side from 1e-2 to 1e2: cornered at
    the origin, centered on it, or shifted one or two sides out along the
    diagonal, one kind in three."""
    s = 10.0 ** rng.uniform(-2.0, 2.0)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Cube((0.0,) * d, s)
    if kind == 1:
        return Cube((-0.5 * s,) * d, s)
    k = int(rng.integers(1, 3))
    return Cube((k * s,) * d, s)


# ---------------------------------------------------------------- linalg


def _prop_adjugate_inverse(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n))
        m = g + n * np.eye(n)
        err = _rel_err(linalg.adjugate_inverse(m) @ m, np.eye(n))
        if err > 1e-8:
            return False, f"trial {t}: inv(M) M deviates from I by {err:.3e}"
    return True, ""


def _prop_pd_dual_route(rng, trials):
    # the exact route against the eigenvalue route: a PD matrix passes, and
    # fails once its bottom eigenvalue is flipped
    for t in range(trials):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n))
        pd = g @ g.T + n * np.eye(n)
        if linalg.is_positive_definite(pd).verdict != "positive":
            return False, f"trial {t}: PD matrix not recognized"
        vals, vecs = linalg.sym_eigen(pd)
        vals = vals.copy()
        vals[0] = -abs(vals[-1])  # flip the bottom eigenvalue
        indef = vecs @ np.diag(vals) @ vecs.conj().T
        if linalg.is_positive_definite(indef).verdict != "not_positive":
            return False, f"trial {t}: indefinite matrix not rejected"
    return True, ""


def _prop_sqrt_squares(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = g @ g.conj().T
        r = linalg.sqrt_psd(h)
        err = _rel_err(r @ r, h)
        if err > 1e-9:
            return False, f"trial {t}: sqrt(H)^2 deviates by {err:.3e}"
    return True, ""


def _prop_opnorm_unitary_invariance(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        s1 = rng.normal(size=(n, n))
        s2 = rng.normal(size=(n, n))
        _, u = linalg.sym_eigen(s1 + s1.T)
        _, v = linalg.sym_eigen(s2 + s2.T)
        base = linalg.operator_norm(m)
        rotated = linalg.operator_norm(u @ m @ v)
        if abs(base - rotated) > 1e-9 * max(base, 1e-300):
            return False, f"trial {t}: norm {base} changed to {rotated}"
    return True, ""


# ----------------------------------------------------------------- type1


def _prop_symbolic_det(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 5))
        w = random_type1_weight(rng, n)
        coeff_det, exp_sum = type1.symbolic_det(w)
        x = random_point(rng)
        lhs = coeff_det * abs(x) ** float(exp_sum)
        rhs = linalg.lu_det(type1.evaluate(w, x))
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-300):
            return False, f"trial {t}: dets {lhs} vs {rhs} at x={x}"
    return True, ""


def _prop_symbolic_inverse(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 5))
        w = random_type1_weight(rng, n)
        winv = type1.symbolic_inverse(w)
        x = random_point(rng)
        err = _rel_err(type1.evaluate(winv, x),
                       linalg.elim_inverse(type1.evaluate(w, x)))
        if err > 1e-8:
            return False, f"trial {t}: inverse deviates by {err:.3e} at x={x}"
    return True, ""


def _prop_double_inverse(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 5))
        w = random_type1_weight(rng, n)
        back = type1.symbolic_inverse(type1.symbolic_inverse(w))
        if back.exponents != w.exponents:
            return False, f"trial {t}: exponents changed on double inverse"
        err = _rel_err(back.coeff, w.coeff)
        if err > 1e-9:
            return False, f"trial {t}: coefficients deviate by {err:.3e}"
    return True, ""


def _prop_type1_scaling_invariance(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 5))
        w = random_type1_weight(rng, n)
        iv = random_interval(rng)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        base = estimator.a2_functional_trace(
            estimator.average_symbolic(w, iv),
            estimator.average_symbolic(type1.symbolic_inverse(w), iv))
        ws = w.scaled(c)
        scaled = estimator.a2_functional_trace(
            estimator.average_symbolic(ws, iv),
            estimator.average_symbolic(type1.symbolic_inverse(ws), iv))
        if abs(base - scaled) > 1e-10 * max(base, scaled):
            return False, f"trial {t}: {base} vs {scaled} under scale {c}"
    return True, ""


def _prop_type1_sandwich(rng, trials):
    for t in range(trials):
        n = int(rng.integers(2, 5))
        w = random_type1_weight(rng, n)
        iv = random_interval(rng)
        avg_w = estimator.average_symbolic(w, iv)
        avg_winv = estimator.average_symbolic(type1.symbolic_inverse(w), iv)
        tr = estimator.a2_functional_trace(avg_w, avg_winv)
        nm = estimator.a2_functional_norm(avg_w, avg_winv)
        tol = 1e-9 * max(tr, nm)
        if not (nm <= tr + tol and tr <= n * nm + n * tol):
            return False, f"trial {t}: sandwich broken: norm2={nm} trace={tr}"
        if nm < 1.0 - 1e-9 or tr < n - 1e-9:
            return False, f"trial {t}: lower bounds broken: {nm}, {tr}"
    return True, ""


# ----------------------------------------------------------------- type2


def _random_type2(rng, rotations_only=False) -> type2.Type2Weight:
    families = (("rotation2d", "rotation3d_euler") if rotations_only
                else ("identity", "rotation2d", "rotation3d_euler"))
    family = str(rng.choice(families))
    n = {"identity": int(rng.integers(1, 5)), "rotation2d": 2,
         "rotation3d_euler": 3}[family]
    alphas = tuple(float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(n))
    gammas = tuple(Fraction(int(rng.integers(-9, 10)), 10) for _ in range(n))
    return type2.Type2Weight(alphas, gammas, family)


def _prop_trace_identity(rng, trials):
    for t in range(trials):
        w = _random_type2(rng)
        x = random_point(rng)
        lhs = float(np.trace(type2.as_pointwise(w).values(x)[:, :, 0]).real)
        rhs = sum(a * abs(x) ** float(g) for a, g in zip(w.alphas, w.gammas))
        if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), 1e-300):
            return False, f"trial {t}: trace {lhs} vs eigen sum {rhs}"
    return True, ""


def _prop_unitarity(rng, trials):
    for t in range(trials):
        family = "rotation2d" if rng.random() < 0.5 else "rotation3d_euler"
        n = 2 if family == "rotation2d" else 3
        x = random_point(rng)
        u = type2.unitary_stack(family, n, np.array([x]))[:, :, 0]
        err = _rel_err(u @ u.conj().T, np.eye(n))
        if err > 1e-12:
            return False, f"trial {t}: {family} U U* off by {err:.3e} at x={x}"
    return True, ""


def _prop_eigen_multiset(rng, trials):
    for t in range(trials):
        w = _random_type2(rng)
        x = random_point(rng)
        vals, _ = linalg.sym_eigen(type2.as_pointwise(w).values(x)[:, :, 0])
        want = np.sort([a * abs(x) ** float(g)
                        for a, g in zip(w.alphas, w.gammas)])
        err = _rel_err(vals, want)
        if err > 1e-9:
            return False, f"trial {t}: eigenvalues off by {err:.3e}"
    return True, ""


def _prop_entry_bound(rng, trials):
    for t in range(trials):
        w = _random_type2(rng)
        x = random_point(rng)
        cap = sum(a * abs(x) ** float(g) for a, g in zip(w.alphas, w.gammas))
        mat = type2.as_pointwise(w).values(x)[:, :, 0]
        worst = float(np.max(np.abs(mat)))
        if worst > cap * (1.0 + 1e-12):
            return False, f"trial {t}: entry {worst} exceeds bound {cap}"
    return True, ""


def _prop_equal_exponent_collapse(rng, trials):
    for t in range(max(3, trials // 10)):
        g = Fraction(int(rng.integers(-9, 10)), 10)
        w = type2.Type2Weight((1.0, 1.0), (g, g), "rotation2d")
        n_idx = int(rng.integers(1, 50))
        a, b = 2.0 * math.pi * n_idx, 2.0 * math.pi * n_idx + math.pi
        iv = Interval(a, b)
        tr = estimator.a2_functional_trace(
            *estimator.average_numeric(type2.pair_pointwise(w), iv, 1e-9))
        gf = float(g)
        scalar = (adaptive_quad(lambda x: x ** gf, a, b, 1e-10).real
                  * adaptive_quad(lambda x: x ** (-gf), a, b, 1e-10).real
                  / (b - a) ** 2)
        if abs(tr - 2.0 * scalar) > 1e-8 * max(tr, 1.0):
            return False, f"trial {t}: trace {tr} vs 2x scalar {2 * scalar}"
        if tr > 2.0 / (1.0 - gf * gf) + 1e-8:
            return False, f"trial {t}: trace {tr} above closed-form cap"
    return True, ""


# --------------------------------------------------------------- multivar


def _random_type1a(rng, n: int, d: int) -> type1.SymbolicPowerMatrix:
    g = rng.normal(size=(n, n))
    a = g @ g.T + n * np.eye(n)
    diags = [tuple(Fraction(int(rng.integers(-9, 10)), 10) for _ in range(n))
             for _ in range(d)]
    return multivar.build_type1a(a, diags)


def _prop_separable_fubini(rng, trials):
    for t in range(max(3, trials // 20)):
        n = int(rng.integers(1, 3))
        w = _random_type1a(rng, n, 2)
        cube = random_cube(rng, 2)
        exact = multivar.average_type1a(w, cube)
        iv0, iv1 = cube.interval(0), cube.interval(1)
        brute = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                e0 = float(w.exponents[0][i][j])
                e1 = float(w.exponents[1][i][j])
                f0 = adaptive_quad(lambda x, p=e0: np.abs(x) ** p,
                                   iv0.a, iv0.b, 1e-10,
                                   singular_exponent=e0) / iv0.length
                f1 = adaptive_quad(lambda x, p=e1: np.abs(x) ** p,
                                   iv1.a, iv1.b, 1e-10,
                                   singular_exponent=e1) / iv1.length
                brute[i, j] = w.coeff[i, j] * f0 * f1
        err = _rel_err(exact, 0.5 * (brute + brute.conj().T))
        if err > 1e-7:
            return False, f"trial {t}: Fubini mismatch {err:.3e} on {cube}"
    return True, ""


def _prop_radial_dilation(rng, trials):
    for t in range(max(3, trials // 10)):
        gamma = float(rng.uniform(0.0, 1.8))
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        unit = Cube((-1.0, -1.0), 2.0)
        scaled = Cube((-h, -h), 2.0 * h)
        v1 = multivar.cube_integral_radial(gamma, unit.lower, unit.upper,
                                           1e-8) / unit.volume
        vh = multivar.cube_integral_radial(gamma, scaled.lower, scaled.upper,
                                           1e-8) / scaled.volume
        if abs(vh - h ** gamma * v1) > 1e-6 * max(vh, h ** gamma * v1):
            return False, f"trial {t}: dilation law off at h={h}, g={gamma}"
    return True, ""


def _prop_radial_permutation(rng, trials):
    for t in range(max(3, trials // 10)):
        gamma = float(rng.uniform(-1.5, 1.8))
        d = int(rng.integers(2, 4))
        lo = tuple(float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(d))
        side = 10.0 ** rng.uniform(-1.0, 1.0)
        hi = tuple(v + side for v in lo)
        perm = rng.permutation(d)
        base = multivar.cube_integral_radial(gamma, lo, hi, 1e-8)
        swapped = multivar.cube_integral_radial(
            gamma, tuple(lo[p] for p in perm), tuple(hi[p] for p in perm), 1e-8)
        if abs(base - swapped) > 1e-7 * max(abs(base), abs(swapped)):
            return False, f"trial {t}: permutation changed the integral"
    return True, ""


_PER_FACTOR = ("midpoint-violated", "diagonal-exponent-range")


def _prop_decision_reduction(rng, trials):
    for t in range(trials):
        n = int(rng.integers(1, 4))
        g = rng.normal(size=(n, n))
        a = g @ g.T + (n * np.eye(n) if rng.random() < 0.7 else -n * np.eye(n))
        diag = tuple(Fraction(int(rng.integers(-15, 16)), 10)
                     for _ in range(n))
        one_d = type1.check_a2(type1.build_type1(a, diag))
        two_d = type1.check_a2(
            multivar.build_type1a(a, [diag, (Fraction(0),) * n]))
        if one_d.verdict != two_d.verdict:
            return False, (f"trial {t}: 1D verdict {one_d.verdict} vs "
                           f"separable {two_d.verdict}")
        # exponent findings of the embedding sit in coordinate 0
        want = [(f.kind, (0,) + f.where if f.kind in _PER_FACTOR else f.where)
                for f in one_d.findings]
        got = [(f.kind, f.where) for f in two_d.findings]
        if want != got:
            return False, f"trial {t}: 1D findings {want} vs separable {got}"
    return True, ""


def _prop_cube_sandwich(rng, trials):
    for t in range(max(4, trials // 5)):
        n = int(rng.integers(2, 4))
        w = _random_type1a(rng, n, 2)
        cube = random_cube(rng, 2)
        avg_w = multivar.average_type1a(w, cube)
        avg_winv = multivar.average_type1a(type1.symbolic_inverse(w), cube)
        tr = estimator.a2_functional_trace(avg_w, avg_winv)
        nm = estimator.a2_functional_norm(avg_w, avg_winv)
        tol = 1e-9 * max(tr, nm)
        if not (nm <= tr + tol and tr <= n * nm + n * tol):
            return False, f"trial {t}: cube sandwich broken on {cube}"
    return True, ""


_SUITES = {
    "linalg": (
        ("adjugate-inverse-identity", _prop_adjugate_inverse),
        ("positive-definite-dual-route", _prop_pd_dual_route),
        ("sqrt-squares-to-input", _prop_sqrt_squares),
        ("operator-norm-unitary-invariance", _prop_opnorm_unitary_invariance),
    ),
    "type1": (
        ("symbolic-vs-lu-determinant", _prop_symbolic_det),
        ("symbolic-vs-elimination-inverse", _prop_symbolic_inverse),
        ("double-inverse-roundtrip", _prop_double_inverse),
        ("scaling-invariance", _prop_type1_scaling_invariance),
        ("interval-sandwich", _prop_type1_sandwich),
    ),
    "type2": (
        ("trace-identity", _prop_trace_identity),
        ("rotation-unitarity", _prop_unitarity),
        ("eigenvalue-multiset", _prop_eigen_multiset),
        ("entry-bound", _prop_entry_bound),
        ("equal-exponent-collapse", _prop_equal_exponent_collapse),
    ),
    "multivar": (
        ("separable-fubini-consistency", _prop_separable_fubini),
        ("radial-dilation-law", _prop_radial_dilation),
        ("radial-permutation-symmetry", _prop_radial_permutation),
        ("separable-decision-reduction", _prop_decision_reduction),
        ("cube-sandwich", _prop_cube_sandwich),
    ),
}


def run_module(module: str, trials: int = 60,
               seed: int = 1234) -> list[PropertyResult]:
    """Run one module's properties with per-property derived RNG streams."""
    if module not in _SUITES:
        raise ValueError(f"unknown verify module {module!r}")
    results = []
    for k, (name, prop) in enumerate(_SUITES[module]):
        rng = np.random.default_rng([seed, k, len(name)])
        passed, detail = prop(rng, trials)
        results.append(PropertyResult(module=module, name=name, trials=trials,
                                      passed=passed, detail=detail))
    return results


def run_suites(module: str = "all", trials: int = 60,
               seed: int = 1234) -> list[PropertyResult]:
    modules = VERIFY_MODULES if module == "all" else (module,)
    out: list[PropertyResult] = []
    for m in modules:
        out.extend(run_module(m, trials=trials, seed=seed))
    return out
