"""Interval averages and A2 functionals, plus the supremum estimator.

Power matrices, identity Type 2 weights among them (type2.as_type1),
average in closed form. A Type 2 rotation that decide_a2 admits is
|x|^g times a trigonometric polynomial in x, so its averages are closed
form too: sums of Fourier-power moments, with one Gauss-Legendre rule on
short intervals far from 0. Adaptive quadrature (average_numeric) stays
as the independent oracle the tests and verify check them against. The
two functionals are the trace form Tr(<W> <W^-1>) and the norm form
||<W>^(1/2) <W^-1>^(1/2)||^2; the norm form is the A2 characteristic
proper, the trace form sandwiches it within a factor of the dimension.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import linalg, type1, type2
from .quadrature import PointwiseMatrixFunction, matrix_quad
from .report import VERDICT_A2
from .scalar_power import (NotA2Error, NotIntegrableError, average_abs_pow,
                           integral_abs_pow)
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


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(20)


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

    decide_a2 admits a rotation only with one exponent g, so W = |x|^g U D U*
    and W^-1 = |x|^-g U D^-1 U*, where U D U* = sum over |m| <= K of
    C_m e^(imx) (type2.fourier_coefficients). Over [a, b], W integrates to
    C_0 times the closed-form integral of |x|^g plus, for m = 1..K,
    C_m (Phi_m(b) - Phi_m(a)) and its adjoint, with the Fourier-power
    moments Phi_m of type2.fourier_power_moments; W^-1 likewise with -g.
    The first call, the first interval of the grid scan, evaluates Phi_m at
    every endpoint of the grid at once, so that work counts as scan time;
    a refinement interval's endpoints are evaluated as they come.

    On a short interval far from 0 (K |I| <= 1 and dist(I, 0) >= 2 |I|)
    a difference of Phi_m loses the phase of e^(imx) to the rounding of
    x, so (W, W^-1) is integrated there by one 20-point Gauss-Legendre
    rule instead; the integrand is analytic on I.
    """
    g = float(w.gammas[0])
    pair = type2.pair_pointwise(w)
    coeffs = type2.fourier_coefficients(w)
    degree = coeffs.shape[1] - 1
    func = _FUNCTIONALS[functional]
    pending = [x for v in interval_grid(config) for x in (v.a, v.b)]
    moments: dict[float, np.ndarray] = {}  # x -> Phi_m(x) for (g, -g), m = 1..K

    def integrals(iv: Interval) -> np.ndarray:
        if degree * iv.length <= 1.0 and iv.near_endpoint_distance() >= 2.0 * iv.length:
            nodes = (iv.a + iv.b) / 2.0 + iv.halflength * _GAUSS_NODES
            return pair.values(nodes) @ _GAUSS_WEIGHTS * iv.halflength
        missing = sorted({x for x in (*pending, iv.a, iv.b) if x not in moments})
        pending.clear()
        if missing:
            phi = type2.fourier_power_moments((g, -g), degree, missing)
            moments.update(zip(missing, np.moveaxis(phi, -1, 0)))
        osc = np.einsum("pmij,pm->pij", coeffs[:, 1:], moments[iv.b] - moments[iv.a])
        mass = np.array([integral_abs_pow(g, iv), integral_abs_pow(-g, iv)])
        return coeffs[:, 0] * mass[:, None, None] + osc + osc.conj().swapaxes(1, 2)

    def evaluate(iv: Interval) -> float:
        return func(*(integrals(iv) / iv.length))

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
    search_config picks. Every route averages in closed form, up to
    rounding; a rotation's short intervals far from 0 take a Gauss rule.
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
