"""Adaptive 1D quadrature for power-times-smooth integrands.

Panels are Gauss-Legendre order 10; refinement is worst-first bisection
driven by a split-comparison error estimate. Intervals straddling 0 are
split there first. A panel touching 0 with a certified negative power
behavior is handled by a power-law model: for f ~ C x^s the Gauss value
underestimates the panel mass by a computable factor, which gives both a
correction-free error bound and a geometric tail argument, so grading
toward 0 terminates without ever sampling the singularity.

adaptive_quad integrates one scalar function. matrix_quad integrates a
Hermitian matrix function with one panel tree for all its entries: each
panel evaluates the upper triangle in one call and keeps one error per
entry, and refinement runs until every entry meets its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import heapq
import math

import numpy as np

__all__ = [
    "QuadratureBudgetError",
    "PointwiseMatrixFunction",
    "adaptive_quad",
    "matrix_quad",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
_NODES01 = (_NODES + 1.0) / 2.0
_WEIGHTS01 = _WEIGHTS / 2.0


class QuadratureBudgetError(ArithmeticError):
    """Panel budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class PointwiseMatrixFunction:
    """Hermitian matrix-valued function given pointwise, for numeric averaging.

    values(xs) returns the matrix at every point of the 1-D array xs,
    shaped (n, n, len(xs)). The singular_exponent is a certified lower
    bound s with |entries(x)| = O(|x|^s) as x -> 0; None means entries
    extend continuously through 0.
    """

    n: int
    values: Callable[[np.ndarray], np.ndarray]
    singular_exponent: Fraction | None = None

    def entry(self, i: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized x -> entry (i, j), read off values."""
        def fn(xs):
            return self.values(np.atleast_1d(np.asarray(xs, dtype=float)))[i, j]
        return fn


def _gl_panel(f, lo: float, hi: float) -> complex:
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    vals = np.asarray(f(mid + half * _NODES), dtype=complex)
    return complex(half * np.dot(_WEIGHTS, vals))


def _gauss_power_deficit(s: float) -> float:
    """True-over-Gauss ratio for x^s on a panel [0, L]; 1 iff the rule is exact."""
    gauss = float(np.dot(_WEIGHTS01, _NODES01**s))
    return (1.0 / (s + 1.0)) / gauss


def _graded_cuts(lo: float, hi: float, levels: int) -> list[float]:
    """Panel boundaries geometrically graded toward both endpoints."""
    width = hi - lo
    cuts = {lo, hi}
    for k in range(1, levels + 1):
        cuts.add(lo + width * 2.0**-k)
        cuts.add(hi - width * 2.0**-k)
    ordered = sorted(c for c in cuts if lo <= c <= hi)
    out = [ordered[0]]
    for c in ordered[1:]:
        if c > out[-1]:
            out.append(c)
    return out


def _refine_positive_side(f, lo: float, hi: float, tol_abs: float,
                          s: float | None, budget: int,
                          grading: int = 0) -> tuple[complex, int]:
    """Adaptive integral over [lo, hi] with 0 <= lo; singular model exponent s.

    The panel whose left edge is 0 gets a certified error from the power
    model: for a pure power the Gauss value is off by exactly the deficit
    ratio, and that holds for any exponent > -1 (fractional positive
    powers are continuous but still non-smooth at 0). Other panels learn
    their error from one split-and-compare round; panels with pending
    comparisons count as unknown so the loop cannot declare convergence
    while any remain (inf minus inf is NaN, which would end the loop).
    """
    singular = lo == 0.0 and s is not None
    deficit_gap = abs(_gauss_power_deficit(s) - 1.0) if singular else 0.0

    def panel_state(a: float, b: float):
        val = _gl_panel(f, a, b)
        if a == 0.0 and singular:
            err = abs(val) * deficit_gap * 2.0 + 1e-300
        else:
            err = math.inf  # unknown until first split comparison
        return val, err

    cuts = _graded_cuts(lo, hi, grading) if grading > 0 else [lo, hi]
    heap = []
    counter = 0
    used = 0
    finite_err = 0.0
    unknown = 0
    for a, b in zip(cuts, cuts[1:]):
        val, err = panel_state(a, b)
        used += 1
        heap.append((-err, counter, a, b, val))
        counter += 1
        if err == math.inf:
            unknown += 1
        else:
            finite_err += err
    heapq.heapify(heap)

    while unknown > 0 or finite_err > tol_abs:
        if used >= budget:
            raise QuadratureBudgetError("panel budget exhausted")
        neg_err, _, a, b, old_val = heapq.heappop(heap)
        if -neg_err == math.inf:
            unknown -= 1
        else:
            finite_err -= -neg_err
        mid = (a + b) / 2.0
        used += 2
        lv, lerr = panel_state(a, mid)
        rv, rerr = panel_state(mid, b)
        if lerr == math.inf:
            lerr = abs((lv + rv) - old_val) / 2.0 + 1e-300
        if rerr == math.inf:
            rerr = abs((lv + rv) - old_val) / 2.0 + 1e-300
        counter += 1
        heapq.heappush(heap, (-lerr, counter, a, mid, lv))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, b, rv))
        finite_err += lerr + rerr
    return sum(item[4] for item in heap), used


def adaptive_quad(f, a: float, b: float, tol: float,
                  singular_exponent=None, panel_budget: int = 20000,
                  endpoint_grading: int = 0, scale: float | None = None) -> complex:
    """Integral of f over [a, b] with absolute error about tol * (scale + |result|).

    f must accept ndarray input. singular_exponent certifies the power
    behavior of f at 0; it is required (and only used) when the closed
    interval touches 0 and the behavior is non-smooth there.

    endpoint_grading > 0 seeds that many geometrically shrinking panels
    toward each endpoint before refinement. Split-compare cannot detect
    mass hiding between the outermost Gauss node and the boundary, so
    callers whose integrands concentrate at interval endpoints (sharp
    reciprocal peaks of oscillating weights) should grade explicitly.
    The graded panels also supply the mass estimate that tol is relative
    to; a single coarse panel would miss endpoint peaks entirely and
    turn a relative request into one far tighter than intended.

    scale sets the magnitude against which tol is relative; it defaults
    to 1, which turns tol into an absolute floor for integrals much
    smaller than 1. Callers averaging tiny-mass entries (matrix averages
    over short intervals) should pass their natural scale, e.g. the
    largest diagonal mass, to keep the error relative to it. scale = 0
    requests purely relative control and is only safe for integrands
    without cancellation.
    """
    if not a < b:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    s = float(singular_exponent) if singular_exponent is not None else None
    if s is not None and s <= -1.0 and a <= 0.0 <= b:
        raise ValueError("integrand is certified non-integrable at 0")

    pieces: list[tuple[float, float]] = []
    if a < 0.0 < b:
        pieces = [(a, 0.0), (0.0, b)]
    else:
        pieces = [(a, b)]

    mass = 0.0
    for lo, hi in pieces:
        seeds = _graded_cuts(lo, hi, endpoint_grading) if endpoint_grading > 0 else [lo, hi]
        for u, v in zip(seeds, seeds[1:]):
            mass += abs(_gl_panel(f, u, v))
    floor = 1.0 if scale is None else abs(scale)
    tol_abs = tol * (floor + mass)
    if tol_abs == 0.0:
        tol_abs = 1e-290  # zero integrand: converge once split-compare agrees

    total = 0j
    budget = panel_budget
    for lo, hi in pieces:
        if budget < 1:
            raise QuadratureBudgetError("panel budget exhausted")
        share = tol_abs * (hi - lo) / (b - a)
        if hi <= 0.0:
            # reflect to the positive axis so 0 is always a left endpoint
            def g(u, _f=f):
                return _f(-u)
            val, used = _refine_positive_side(g, -hi, -lo, share, s, budget,
                                              grading=endpoint_grading)
        else:
            val, used = _refine_positive_side(f, lo, hi, share, s, budget,
                                              grading=endpoint_grading)
        total += val
        budget -= used
    return total


def _gl_panels(f, cuts) -> np.ndarray:
    """Gauss values of f on the panels between consecutive cuts, one call of f.

    f maps the concatenated nodes to an (m, nodes) array; the result is
    shaped (m, len(cuts) - 1).
    """
    cuts = np.asarray(cuts, dtype=float)
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    halves = (cuts[1:] - cuts[:-1]) / 2.0
    vals = f((mids[:, None] + halves[:, None] * _NODES).ravel())
    return (vals.reshape(vals.shape[0], mids.size, _NODES.size) @ _WEIGHTS) * halves


def matrix_quad(pmf: PointwiseMatrixFunction, a: float, b: float, tol: float,
                panel_budget: int = 20000) -> np.ndarray:
    """Integral over [a, b] of a Hermitian matrix function, one panel tree.

    Only the upper triangle is integrated; the lower one is its
    conjugate and the diagonal is real. Every entry has its own absolute
    tolerance, scaled by the masses of the seed panels (the sum of
    their |Gauss values|): a diagonal entry is a positive mass and gets
    tol times its own mass, an off-diagonal entry can cancel and gets tol
    times the largest diagonal mass plus its own. Each panel keeps one
    error per entry; the panel split next is the one with the largest
    ratio of entry error to entry tolerance, and refinement stops only
    when every entry's summed error is within its tolerance. A split
    evaluates both children in one call. Panels with an endpoint at 0
    take their error from the power model at pmf.singular_exponent, as
    in adaptive_quad.
    """
    if not a < b:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    s = float(pmf.singular_exponent) if pmf.singular_exponent is not None else None
    if s is not None and s <= -1.0 and a <= 0.0 <= b:
        raise ValueError("integrand is certified non-integrable at 0")
    rows, cols = np.triu_indices(pmf.n)
    diagonal = rows == cols

    def f(xs):
        return pmf.values(xs)[rows, cols]

    deficit_gap = abs(_gauss_power_deficit(s) - 1.0) if s is not None else 0.0

    def model_err(lo, hi, val):
        """Power-model error of a panel touching 0, or None if it does not."""
        if s is None or (lo != 0.0 and hi != 0.0):
            return None
        return np.abs(val) * deficit_gap * 2.0 + 1e-300

    cuts = [a, 0.0, b] if a < 0.0 < b else [a, b]
    seed_vals = _gl_panels(f, cuts)
    mass = np.sum(np.abs(seed_vals), axis=1)
    tols = tol * np.where(diagonal, mass, np.max(mass[diagonal]) + mass)
    tols[tols == 0.0] = 1e-290  # zero entry: converge once split-compare agrees

    heap = []
    counter = 0
    used = len(cuts) - 1
    err_sum = np.zeros(mass.shape)
    unknown = 0  # panels not yet error-estimated count as infinitely wrong

    def push(lo, hi, val, err):
        nonlocal counter, unknown, err_sum
        if err is None:
            unknown += 1
            key = math.inf
        else:
            err_sum = err_sum + err
            key = float((err / tols).max())
        heapq.heappush(heap, (-key, counter, lo, hi, val, err))
        counter += 1

    for lo, hi, val in zip(cuts, cuts[1:], seed_vals.T):
        push(lo, hi, val, model_err(lo, hi, val))

    while unknown > 0 or (err_sum > tols).any():
        if used >= panel_budget:
            worst = int(np.argmax(err_sum / tols))
            pending = f"; {unknown} panel(s) not yet estimated" if unknown else ""
            raise QuadratureBudgetError(
                f"panel budget {panel_budget} exhausted: entry "
                f"({rows[worst]}, {cols[worst]}) error sum {err_sum[worst]:.3g} "
                f"exceeds its tolerance {tols[worst]:.3g}{pending}")
        _, _, lo, hi, val, err = heapq.heappop(heap)
        if err is None:
            unknown -= 1
        else:
            err_sum = err_sum - err
        mid = (lo + hi) / 2.0
        used += 2
        pair = _gl_panels(f, (lo, mid, hi))
        lv, rv = pair[:, 0], pair[:, 1]
        split_err = np.abs((lv + rv) - val) / 2.0 + 1e-300
        for clo, chi, cval in ((lo, mid, lv), (mid, hi, rv)):
            cerr = model_err(clo, chi, cval)
            push(clo, chi, cval, split_err if cerr is None else cerr)

    total = np.sum([item[4] for item in heap], axis=0).astype(complex)
    total[diagonal] = total[diagonal].real
    out = np.zeros((pmf.n, pmf.n), dtype=complex)
    out[rows, cols] = total
    out[cols, rows] = total.conj()
    return out
