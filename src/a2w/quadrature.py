"""Adaptive 1D quadrature for power-times-smooth integrands.

Panels are Gauss-Legendre order 10; refinement bisects in rounds, driven
by a split-comparison error estimate: each round takes the worst panels,
as many as the error sums say must be split, and evaluates all their
children together. Intervals straddling 0 are split there first. A panel
touching 0 with a certified power behavior is handled by a power-law
model: for f ~ C x^s the Gauss value misses the panel mass by a
computable factor, and for a sum of such terms by at most the worst
factor over their exponents. That gives both a correction-free error
bound and a geometric tail argument, so grading toward 0 terminates
without ever sampling the singularity. Non-negative integer exponents
give no model: such terms are smooth on each side of 0.

One refinement loop serves scalar and matrix integrands: a panel tree over
m rows, where each panel evaluates every row in one call and keeps one
error, one tolerance and one power-model factor per row, and refinement
runs until every row meets its own tolerance. The zero split and any
endpoint grading are its seed cuts. _panel_tree runs one tree and
evaluates the integrand itself, one round of panels at a time. A round's
split-compare (child sums, finite check, split errors, keys and error
sums) runs on Python floats when the round is small, and on the round's
numpy block of rows x pairs from _BLOCK_ROW_PAIRS on, where numpy's cost
per call is repaid; both give the same bits.
adaptive_quad is the front end for an integrand of one row or of many
(the divergence windows of a sweep and their reciprocals share one tree,
each row under its own tolerance); matrix_quad
integrates the upper triangles of a stack of Hermitian matrix functions
evaluated together (a weight and its inverse share one tree), one row
per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import cmath
import heapq
import itertools
import math
from operator import add, gt, sub, truediv

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
_PANEL_CAP = 512  # panels per call of the integrand, however many a round asks
_PANEL_BUDGET = 20000  # panels per tree of adaptive_quad and matrix_quad
# rows x pairs from which a round's split-compare runs on a numpy block. On
# one-round trees the block began to win at 24 row-pairs for 1 row, 64 for
# 4 rows and 104 for 26 rows; at 64 no choice costs a round over 20 us.
_BLOCK_ROW_PAIRS = 64


class QuadratureBudgetError(ArithmeticError):
    """Panel budget exhausted, or Gauss values overflowed, before reaching
    the requested tolerance."""


@dataclass(frozen=True)
class PointwiseMatrixFunction:
    """Hermitian matrix-valued function given pointwise, for numeric
    averaging, or a stack of m such functions evaluated together.

    values(xs) returns the matrix at every point of the 1-D array xs,
    shaped (n, n, len(xs)), or (m, n, n, len(xs)) for a stack of m > 1.
    exponents is the power model at 0: one tuple per matrix, listing
    every power e of its terms |x|^e times a smooth factor near 0, so its
    length is m. None means one matrix whose entries extend smoothly
    through 0.
    """

    n: int
    values: Callable[[np.ndarray], np.ndarray]
    exponents: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def m(self) -> int:
        """The number of matrices values returns: len(exponents), else 1."""
        return len(self.exponents) if self.exponents else 1


def _power_gap(s) -> float:
    """Relative Gauss error for x^s on a panel [0, L]: |true / Gauss - 1|,
    0 iff the rule is exact."""
    s = float(s)
    gauss = float(np.dot(_WEIGHTS01, _NODES01**s))
    return abs((1.0 / (s + 1.0)) / gauss - 1.0)


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


def _seed_cuts(a: float, b: float, grading: int) -> list[float]:
    """Seed panel boundaries: the zero split, then each piece graded."""
    ends = [a, 0.0, b] if a < 0.0 < b else [a, b]
    cuts = [a]
    for lo, hi in zip(ends, ends[1:]):
        cuts += _graded_cuts(lo, hi, grading)[1:]
    return cuts


def _gl_panels(f, panels) -> np.ndarray:
    """Gauss values of f on panels, a list of (mid, half-width) pairs,
    shaped (m, len(panels)).

    f maps the concatenated nodes to m rows of values, shaped (m, nodes),
    or (nodes,) for one row. It is called on at most _PANEL_CAP panels at
    a time, so memory stays bounded however many panels a round asks for.
    """
    panels = np.array(panels, dtype=float).reshape(-1, 2)
    out = []
    for i in range(0, len(panels), _PANEL_CAP):
        chunk = panels[i:i + _PANEL_CAP]
        halves = chunk[:, 1]
        vals = np.asarray(f((chunk[:, 1:] * _NODES + chunk[:, :1]).ravel()))
        # vecdot, not matmul: BLAS rounds a panel's sum by its position in
        # the call, while vecdot sums each panel's nodes on their own, so a
        # panel's value does not depend on which panels share the call.
        # The weights go first: vecdot conjugates its first argument.
        out.append(np.vecdot(_WEIGHTS, vals.reshape(-1, halves.size, _NODES.size))
                   * halves)
    return out[0] if len(out) == 1 else np.concatenate(out, axis=1)


def _gaps(a: float, b: float, exponents) -> list[float] | None:
    """The power-model gap at 0 of each matrix of a power model (one tuple
    of exponents per matrix): the largest _power_gap over its exponents.

    None when [a, b] misses 0 or there is no model. None too when every
    exponent is a non-negative integer: each term is then smooth on each
    side of 0, its gap is 0 up to rounding and would mark a panel at 0
    converged whatever the smooth factor does, so panels there go through
    split-compare like any other.
    """
    if not a < b:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if exponents is None or not a <= 0.0 <= b:
        return None
    if float(min(map(min, exponents))) <= -1.0:
        raise ValueError("integrand is certified non-integrable at 0")
    if all(e >= 0 and float(e).is_integer() for es in exponents for e in es):
        return None
    return [max(map(_power_gap, es)) for es in exponents]


def _require_finite(sums, lo: float, hi: float, where) -> None:
    """Raise if the row sums of the Gauss values on [lo, hi] are not finite."""
    if not cmath.isfinite(sum(sums)):
        k = next((k for k, v in enumerate(sums) if not cmath.isfinite(v)), 0)
        raise QuadratureBudgetError(
            f"{where(k)}Gauss values on [{lo!r}, {hi!r}] are not finite")


def _compare_block(vals, popped, where) -> np.ndarray:
    """The split errors, shaped (m, len(popped)), of a round's popped
    panels against their children's Gauss values vals, shaped
    (m, 2 len(popped)), computed as the list path of _panel_tree computes
    them and raising as it does for the first non-finite panel.
    """
    sums = vals[:, ::2] + vals[:, 1::2]
    # cumsum sums each pair's rows in order, as Python's sum does
    if not np.isfinite(np.cumsum(sums, axis=0)[-1]).all():
        for (lo, _, hi, _), pair in zip(popped, sums.T.tolist()):
            _require_finite(pair, lo, hi, where)
    diff = sums - np.array([val for *_, val in popped]).T
    # hypot, not abs: numpy's complex abs rounds differently from Python's
    return np.hypot(diff.real, diff.imag) / 2.0 + 1e-300


# An integrand that overflows (|x|^g at subnormal x) gives non-finite Gauss
# values, which _require_finite turns into QuadratureBudgetError; numpy's
# overflow warning would only add a second report on stderr.
@np.errstate(over="ignore")
def _panel_tree(f, cuts, tolerance, gaps, budget: int, where) -> np.ndarray:
    """The row sums, shaped (m,), of one adaptive panel tree over the m
    rows of the integrand f (see _gl_panels); a QuadratureBudgetError
    propagates.

    The seed panels lie between cuts, and tolerance maps their row masses
    (sums of |Gauss values|) and row sums to one absolute tolerance per
    row.
    Each panel keeps one error per row and is keyed by its largest ratio
    of row error to row tolerance; refinement stops only when every row's
    summed error is within its tolerance. It splits in rounds: a round
    pops, worst first, every panel not yet estimated, then known panels
    for as long as some row's summed error, less the errors already
    popped, still exceeds its tolerance, and evaluates every child of the
    bisected panels at once. Each child pair gets its split-compare
    error. When gaps is not None, a panel with an endpoint at 0 takes
    row k's error from the power model instead: gaps[k] bounds the
    relative Gauss error of that row's terms there (for a pure power
    |x|^s the Gauss value is off by exactly the deficit ratio, for any
    s > -1; fractional positive powers are continuous but still
    non-smooth at 0). Other panels count as unknown until their first
    comparison, so the loop cannot declare convergence while any remain.
    Every split counts two panels against budget, so the count never
    passes budget + 1. where(k) names row k in a budget error, and in the
    error for Gauss values that overflow, which names the first such
    panel in pop order.

    A round of fewer than _BLOCK_ROW_PAIRS rows x pairs does its
    split-compare pair by pair on Python lists; a larger one does it once
    on the round's (rows, pairs) numpy block (_compare_block) and adds the
    children's errors to the error sums by one cumsum. The heap, its pop
    rule and the final summation are the same either way, and so is every
    bit of the result.
    """
    seed_vals = _gl_panels(f, [((lo + hi) / 2.0, (hi - lo) / 2.0)
                               for lo, hi in zip(cuts, cuts[1:])])
    seed_sums = np.add.reduce(seed_vals, axis=1)
    _require_finite(seed_sums.tolist(), cuts[0], cuts[-1], where)
    tols = tolerance(np.add.reduce(np.abs(seed_vals), axis=1), seed_sums)
    tols[tols == 0.0] = 1e-290  # zero row: converge once split-compare agrees
    tols_col, tols = tols[:, None], tols.tolist()

    # Below _BLOCK_ROW_PAIRS, numpy's fixed cost (15 to 20 us a round)
    # exceeds the list arithmetic; _compare_block keeps the list
    # arithmetic's operations and order. A panel's Gauss values are a
    # numpy row if a block round made it, else a list; its errors are a
    # list either way, for the pop loop.
    heap = []
    order = itertools.count()
    used = len(cuts) - 1
    err_sum = [0.0] * len(tols)
    unknown = 0

    def model(val):
        """The power model's errors and key for a panel with an end at 0."""
        err = [abs(v) * gap * 2.0 + 1e-300 for v, gap in zip(val, gaps)]
        return err, max(map(truediv, err, tols))

    for lo, hi, val in zip(cuts, cuts[1:], seed_vals.T.tolist()):
        err, key = None, math.inf
        if gaps is not None and (lo == 0.0 or hi == 0.0):
            err, key = model(val)
        if err is None:
            unknown += 1
        else:
            err_sum = list(map(add, err_sum, err))
        heapq.heappush(heap, (-key, next(order), lo, hi, val, err))

    while unknown > 0 or any(map(gt, err_sum, tols)):
        if used >= budget:
            worst = max(range(len(tols)), key=lambda k: err_sum[k] / tols[k])
            pending = f"; {unknown} panel(s) not yet estimated" if unknown else ""
            raise QuadratureBudgetError(
                f"panel budget {budget} exhausted: {where(worst)}error sum "
                f"{err_sum[worst]:.3g} exceeds its tolerance {tols[worst]:.3g}{pending}")
        popped = []
        while heap and used < budget:
            err = heap[0][5]
            if err is None:
                unknown -= 1
            elif popped and not any(map(gt, err_sum, tols)):
                break  # the worst panel always goes: the loop test says work remains
            else:
                err_sum = list(map(sub, err_sum, err))
            _, _, lo, hi, val, _ = heapq.heappop(heap)
            popped.append((lo, (lo + hi) / 2.0, hi, val))
            used += 2
        children = [panel for lo, mid, hi, _ in popped
                    for panel in (((lo + mid) / 2.0, (mid - lo) / 2.0),
                                  ((mid + hi) / 2.0, (hi - mid) / 2.0))]
        vals = _gl_panels(f, children)
        if len(popped) * len(tols) < _BLOCK_ROW_PAIRS:
            vals = vals.T.tolist()
            for (lo, mid, hi, val), lv, rv in zip(popped, vals[::2], vals[1::2]):
                if not isinstance(val, list):
                    val = val.tolist()
                sums = list(map(add, lv, rv))
                _require_finite(sums, lo, hi, where)
                split_err = [abs(t - v) / 2.0 + 1e-300 for t, v in zip(sums, val)]
                key = max(map(truediv, split_err, tols))
                lerr = rerr = split_err
                lkey = rkey = key
                if gaps is not None:
                    if lo == 0.0 or mid == 0.0:
                        lerr, lkey = model(lv)
                    if mid == 0.0 or hi == 0.0:
                        rerr, rkey = model(rv)
                err_sum = list(map(add, map(add, err_sum, lerr), rerr))
                heapq.heappush(heap, (-lkey, next(order), lo, mid, lv, lerr))
                heapq.heappush(heap, (-rkey, next(order), mid, hi, rv, rerr))
            continue
        split = _compare_block(vals, popped, where)
        keys = np.max(split / tols_col, axis=0).tolist()
        errs = np.repeat(split.T, 2, axis=0)  # one row per child, in push order
        rows = list(vals.T)
        for j, ((lo, mid, hi, _), err, key) in enumerate(zip(popped, split.T.tolist(), keys)):
            for i, a, b in ((2 * j, lo, mid), (2 * j + 1, mid, hi)):
                e, k = err, key
                if gaps is not None and (a == 0.0 or b == 0.0):
                    e, k = model(rows[i].tolist())
                    errs[i] = e
                heapq.heappush(heap, (-k, next(order), a, b, rows[i], e))
        # cumsum adds the children's errors to err_sum one at a time, in
        # push order, as the list path does; a reduce may add them pairwise
        errs[0] += err_sum
        err_sum = np.cumsum(errs, axis=0)[-1].tolist()
    return np.add.reduce(np.array([item[4] for item in heap]), axis=0)


def adaptive_quad(f, a: float, b: float, tol: float,
                  singular_exponent=None, endpoint_grading: int = 0):
    """Integral of f over [a, b], complex; for an f of m > 1 rows, the m
    row integrals from one shared panel tree, shaped (m,).

    f must accept ndarray input and return one value per point, or m rows
    of them shaped (m, points); values may be complex. The absolute
    tolerance of each row is tol times its seed mass, the sum of |Gauss
    values| over the seed panels, so its error is relative to its own
    magnitude, and refinement runs until every row meets its tolerance.
    singular_exponent certifies the power behavior of f at 0; it is
    required (and only used) when the closed interval touches 0 and the
    behavior is non-smooth there.

    endpoint_grading > 0 seeds that many geometrically shrinking panels
    toward each endpoint (and toward 0 on both sides of a zero split)
    before refinement. Split-compare cannot detect mass hiding between
    the outermost Gauss node and the boundary, so callers whose
    integrands concentrate at interval endpoints (sharp reciprocal peaks
    of oscillating weights) should grade explicitly. The graded panels
    also supply the mass estimate that tol is relative to; a single
    coarse panel would miss endpoint peaks entirely and turn a relative
    request into one far tighter than intended.
    """
    gaps = _gaps(a, b, None if singular_exponent is None else ((singular_exponent,),))
    total = _panel_tree(f, _seed_cuts(a, b, endpoint_grading),
                        lambda mass, _: tol * mass,
                        None if gaps is None else itertools.repeat(gaps[0]),
                        _PANEL_BUDGET, lambda k: "")
    return complex(total[0]) if total.size == 1 else total.astype(complex)


def matrix_quad(pmf: PointwiseMatrixFunction, a: float, b: float,
                tol: float) -> np.ndarray:
    """Integral over [a, b] of a Hermitian matrix function, or of a stack
    of them, on one panel tree; shaped (n, n), or (m, n, n) for a stack.

    Only the upper triangles are integrated, one row of the tree per
    entry; the lower triangles are their conjugates and the diagonals are
    real. A diagonal entry is a positive mass and gets tol times its own
    seed mass; an off-diagonal entry can cancel and gets tol times the
    largest diagonal seed mass of its own matrix plus its own. On panels
    at 0, each matrix's rows take the largest power-model gap over that
    matrix's exponents in pmf.exponents.
    """
    m, n = pmf.m, pmf.n
    rows, cols = np.triu_indices(n)
    diagonal = rows == cols

    def values(xs):
        return pmf.values(xs).reshape(m, n, n, -1)[:, rows, cols].reshape(m * rows.size, -1)

    def tolerance(mass, _):
        mass = mass.reshape(m, -1)
        scale = np.max(mass[:, diagonal], axis=1, keepdims=True)
        return (tol * np.where(diagonal, mass, scale + mass)).ravel()

    def where(k):
        q, k = divmod(k, rows.size)
        return f"{f'matrix {q} ' if m > 1 else ''}entry ({rows[k]}, {cols[k]}) "

    gaps = _gaps(a, b, pmf.exponents)
    if gaps is not None:
        gaps = np.repeat(gaps, rows.size).tolist()
    total = _panel_tree(values, _seed_cuts(a, b, 0), tolerance, gaps,
                        _PANEL_BUDGET, where)
    total = total.astype(complex).reshape(m, -1)
    total[:, diagonal] = total[:, diagonal].real
    out = np.zeros((m, n, n), dtype=complex)
    out[:, rows, cols] = total
    out[:, cols, rows] = total.conj()
    return out[0] if m == 1 else out
