"""Interval averages and A2 functionals, plus the supremum estimator.

Two averaging routes exist on purpose: closed forms for power matrices,
identity Type 2 weights among them (type2.as_type1), and adaptive
quadrature for the Type 2 rotations, whose search integrates each
segment of the line between neighbouring grid endpoints (and 0) once and
sums segments per interval. The two functionals are the trace form
Tr(<W> <W^-1>) and the norm form ||<W>^(1/2) <W^-1>^(1/2)||^2; the norm
form is the A2 characteristic proper, the trace form sandwiches it
within a factor of the dimension.
"""

from __future__ import annotations

import bisect
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import linalg, type1, type2
from .quadrature import (PointwiseMatrixFunction, QuadratureBudgetError,
                         matrix_quad, matrix_quads)
from .report import VERDICT_A2
from .scalar_power import NotA2Error, NotIntegrableError, average_abs_pow
from .search import (Interval, SearchError, SupSearchConfig, SupSearchResult,
                     coarse_interval_config, default_interval_config,
                     interval_grid, run_interval_search)
from .type1 import SymbolicPowerMatrix
from .type2 import Type2Weight

__all__ = [
    "Interval",
    "SupSearchConfig",
    "SupSearchResult",
    "SearchError",
    "NonPositiveInputError",
    "default_interval_config",
    "coarse_interval_config",
    "search_config",
    "average_symbolic",
    "average_numeric",
    "a2_functional_trace",
    "a2_functional_norm",
    "estimate_a2",
]


class NonPositiveInputError(ArithmeticError):
    """A functional received an average that is not positive definite."""


def average_symbolic(w: SymbolicPowerMatrix, region) -> np.ndarray:
    """<W> over an interval, or over a multivar.Cube for a separable weight,
    entrywise as products of the closed-form 1D power averages."""
    if isinstance(region, Interval):
        ivs = (region,)
    else:
        ivs = tuple(region.interval(c) for c in range(region.d))
    if len(ivs) != w.d or not w.separable:
        raise ValueError("region dimension does not match the weight")
    out = np.zeros((w.n, w.n), dtype=complex)
    try:
        for i, j, a, exps in w.terms:
            factor = 1.0
            for c, e in enumerate(exps):
                factor *= average_abs_pow(e, ivs[c])
            out[i, j] = a * factor
    except NotIntegrableError as exc:
        raise NotIntegrableError(
            f"entry ({i}, {j}), coordinate {c}: {exc}") from exc
    return out


def average_numeric(pmf: PointwiseMatrixFunction, iv: Interval,
                    tol: float = 1e-8, panel_budget: int = 20000) -> np.ndarray:
    """<W>_I from one matrix-valued panel tree, shaped (n, n); for a stack
    of m matrices (such as type2.pair_pointwise's W and W^-1) the m
    averages from one shared tree, shaped (m, n, n).

    Diagonal entries are positive masses, so they run under purely
    relative control; off-diagonal entries can cancel, so their tolerance
    is anchored to the largest diagonal mass of their own matrix (the
    natural matrix scale) plus their own, instead of an absolute floor.
    panel_budget bounds the whole tree.
    """
    return matrix_quad(pmf, iv.a, iv.b, tol, panel_budget) / iv.length


def _check_average_pair(avg_w: np.ndarray, avg_winv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = linalg.as_hermitian(avg_w, tol=1e-8)
    b = linalg.as_hermitian(avg_winv, tol=1e-8)
    if a.shape != b.shape:
        raise ValueError("average matrices must share a shape")
    if np.any(a.diagonal().real <= 0) or np.any(b.diagonal().real <= 0):
        raise NonPositiveInputError("averages must be positive definite")
    return a, b


def a2_functional_trace(avg_w, avg_winv) -> float:
    """Tr(<W> <W^-1>); bounded below by the dimension for true averages."""
    a, b = _check_average_pair(avg_w, avg_winv)
    n = a.shape[0]
    val = float(np.trace(a @ b).real)
    if val < n * (1.0 - 1e-9):
        raise NonPositiveInputError(
            f"trace functional {val} below its floor {n}; inputs are not "
            "averages of a weight and its inverse")
    return val


def a2_functional_norm(avg_w, avg_winv) -> float:
    """||<W>^(1/2) <W^-1>^(1/2)||^2, the matrix A2 product for one interval."""
    a, b = _check_average_pair(avg_w, avg_winv)
    try:
        ra = linalg.sqrt_psd(a)
        rb = linalg.sqrt_psd(b)
    except linalg.NegativeEigenvalueError as exc:
        raise NonPositiveInputError(str(exc)) from exc
    op = linalg.operator_norm(ra @ rb)
    val = op * op
    if val < 1.0 - 1e-9:
        raise NonPositiveInputError(
            f"norm functional {val} below its floor 1")
    return val


_FUNCTIONALS = {
    "trace": a2_functional_trace,
    "norm": a2_functional_norm,
}


def _symbolic_eval_fn(w: SymbolicPowerMatrix, functional: str):
    if w.d != 1:
        raise ValueError("interval estimates need a weight on the line; "
                         "use multivar.estimate_a2_cubes for d >= 2")
    flat = [e for row in type1.normalized_exponents(w)[0] for e in row]
    bad = [e for e in flat if not (Fraction(-1) < e < Fraction(1))]
    if bad:
        raise NotIntegrableError(
            "symbolic estimation needs every exponent in (-1, 1); "
            f"got {sorted(set(bad))}")
    winv = type1.symbolic_inverse(w)
    func = _FUNCTIONALS[functional]

    def evaluate(iv: Interval) -> float:
        return func(average_symbolic(w, iv), average_symbolic(winv, iv))

    return evaluate


def _type2_eval_fn(w: Type2Weight, functional: str, config: SupSearchConfig):
    """The functional of (<W>, <W^-1>) per interval, for a rotation.

    The grid's endpoints and 0 cut the line into elementary segments. The
    first call, the first interval of the grid scan, integrates every
    segment once, as one forest of panel trees (quadrature.matrix_quads),
    so that work counts as scan time. An interval's integrals are the
    left-to-right sum of the segments it covers, plus fresh trees,
    evaluated together, on the end pieces it covers only in part (a grid
    interval has none; an interval with no cut inside is one fresh
    piece). Each tree meets tol against its own masses, and masses add: a
    summed diagonal entry stays within tol of its mass, a summed
    off-diagonal entry within tol times its matrix's trace mass plus its
    own absolute mass. A segment's budget error names the segment, and an
    interval that covers failed segments raises the leftmost one's error,
    so the scan raises it at the first grid interval that covers it.
    """
    pair = type2.pair_pointwise(w)
    func = _FUNCTIONALS[functional]
    tol = config.quadrature_tol
    cuts: list[float] = []
    failed: dict[int, QuadratureBudgetError] = {}  # segment k = [cuts[k], cuts[k + 1]]
    segments = np.zeros(0)

    def evaluate(iv: Interval) -> float:
        nonlocal segments
        if not cuts:
            cuts.extend(sorted({0.0, *(x for v in interval_grid(config)
                                       for x in (v.a, v.b))}))
            spans = list(zip(cuts, cuts[1:]))
            totals = matrix_quads(pair, spans, tol)
            for k, ((p, q), total) in enumerate(zip(spans, totals)):
                if isinstance(total, QuadratureBudgetError):
                    failed[k] = QuadratureBudgetError(f"grid segment [{p!r}, {q!r}]: {total}")
                    totals[k] = np.zeros((pair.m, pair.n, pair.n))
            segments = np.array(totals)
        i = bisect.bisect_left(cuts, iv.a)
        j = bisect.bisect_right(cuts, iv.b) - 1  # cuts[i:j + 1] lie in [a, b]
        covered = [k for k in failed if i <= k < j]
        if covered:
            raise failed[min(covered)]
        ends = ([(iv.a, iv.b)] if i > j else
                [(a, b) for a, b in ((iv.a, cuts[i]), (cuts[j], iv.b)) if a < b])
        total = np.add.reduce(segments[i:j])
        for piece in matrix_quads(pair, ends, tol) if ends else ():
            if isinstance(piece, QuadratureBudgetError):
                raise piece
            total = total + piece
        return func(*(total / iv.length))

    return evaluate


def _one_size(config: SupSearchConfig) -> SupSearchConfig:
    """config's grid on its smallest half-length h0 alone.

    Every interval shape the grid holds (symmetric, or a signed ratio
    |c|/h >= 1, rounded past floating-point noise) moves to h0, in order
    of first occurrence. An anchored shape keeps its endpoint at exactly 0,
    and a center already on the h0 row is kept exactly. A grid of one
    half-length is returned as it is.
    """
    if len(config.halflengths) == 1:
        return config
    h0 = min(config.halflengths)
    h = np.array(config.halflengths)
    c = np.array(config.centers)[:, None]
    ratio = np.abs(c) / h
    member = (c == 0.0) | (ratio >= 1.0)  # the family's rule (search._candidate)
    shape = np.sign(c) * (1.0 + np.round(np.log10(np.maximum(ratio, 1.0)), 9))
    _, first = np.unique(shape[member], return_index=True)
    mag = np.where(ratio == 1.0, h0, np.maximum(np.abs(c) * (h0 / h), h0))
    centers = np.where(c == 0.0, 0.0, np.copysign(mag, c))[member][np.sort(first)]
    return replace(config, centers=tuple(centers.tolist()), halflengths=(h0,))


def _estimated(weight):
    """The weight the estimator runs: an identity Type 2 weight as its
    diagonal power matrix (type2.as_type1), any other weight as it is."""
    if isinstance(weight, Type2Weight) and not weight.is_rotation:
        return type2.as_type1(weight)
    return weight


def search_config(weight, config: SupSearchConfig | None = None) -> SupSearchConfig:
    """The interval grid that runs for weight: config, or else the full
    grid for closed-form averages and the coarse one for rotations.

    Power matrices, identity Type 2 weights among them, are homogeneous,
    W(tx) = T W(x) T with T = diag(|t|^(g_i/2)), so their functionals see
    an interval's shape |c|/h and not its size: they run every shape of
    the grid at its smallest half-length alone (the row the tie-break
    picks). On the built-in grids (one log lattice for |c| and h) that
    row already holds every shape.
    """
    if isinstance(_estimated(weight), Type2Weight):
        return config or coarse_interval_config()
    return _one_size(config or default_interval_config())


def estimate_a2(weight, functional: str = "trace",
                config: SupSearchConfig | None = None) -> SupSearchResult:
    """Searched lower bound of the chosen A2 functional's supremum.

    Accepts a symbolic power matrix on the line (a scalar weight is the
    1x1 case) or a Type 2 weight that decide_a2 calls A2, on the grid
    search_config picks; only rotations run quadrature.
    """
    if functional not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if isinstance(weight, Type2Weight):
        decision = type2.decide_a2(weight)
        if decision.verdict != VERDICT_A2:
            raise NotA2Error(
                f"type 2 estimation precondition failed: {decision.verdict}")
    weight = _estimated(weight)
    cfg = search_config(weight, config)
    if isinstance(weight, SymbolicPowerMatrix):
        fn = _symbolic_eval_fn(weight, functional)
    elif isinstance(weight, Type2Weight):
        fn = _type2_eval_fn(weight, functional, cfg)
    else:
        raise TypeError(f"cannot estimate for {type(weight).__name__}")
    return run_interval_search(fn, cfg, functional=functional)
