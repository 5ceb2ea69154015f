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

Averages and functionals run on stacks shaped (k, n, n). A search's
evaluate function scores its whole grid as one stack on its first call
and looks grid intervals up after that; any other interval, and
average_symbolic, run the same code as a stack of one, so a value never
depends on its batch (_grid_scan).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import linalg, type1, type2
from .quadrature import PointwiseMatrixFunction, matrix_quad
from .report import VERDICT_A2
from .scalar_power import (NotA2Error, NotIntegrableError, integral_abs_pow,
                           integral_abs_pow_stack)
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


def _term_table(weights) -> tuple:
    """The terms of power matrices of one order and dimension as one
    table (which, rows, cols, coeffs, exponents, factor, index), laid out
    as SymbolicPowerMatrix.terms: which[t] is the weight of term t (0 for
    a single weight)."""
    if len(weights) == 1:
        return (0, *weights[0].terms)
    parts = [w.terms for w in weights]
    which = np.concatenate([np.full(p[0].size, m) for m, p in enumerate(parts)])
    offsets = np.cumsum([0] + [p[3].size for p in parts[:-1]])
    index = np.concatenate([p[5] + off for p, off in zip(parts, offsets)], axis=1)
    return (which, *(np.concatenate([p[k] for p in parts]) for k in range(5)), index)


def _averages(table, count: int, n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """<W> for each of the count weights of a _term_table over k boxes
    with lower corners lo and upper corners hi, both shaped (d, k);
    shaped (count, k, n, n).

    One integral_abs_pow_stack call averages every exponent of the table
    over its coordinate's side of each box; an entry is its coefficient
    times the product of its coordinates' averages, in coordinate order.
    An average that does not exist raises NotIntegrableError for the
    first entry (in table order) and coordinate that has one.
    """
    which, rows, cols, coeffs, exponents, factor, index = table
    side = integral_abs_pow_stack(exponents[:, None], lo[factor], hi[factor]) / (hi - lo)[factor]
    product = side[index[0]]
    for idx in index[1:]:
        product = product * side[idx]
    if np.isnan(product).any():
        _raise_not_integrable(table, lo, hi)
    out = np.zeros((count, lo.shape[1], n, n), dtype=complex)
    out[which, :, rows, cols] = coeffs[:, None] * product
    return out


def _raise_not_integrable(table, lo: np.ndarray, hi: np.ndarray):
    """Raise integral_abs_pow's NotIntegrableError for the first box and
    term, in table order, and coordinate at which an average does not
    exist."""
    _, rows, cols, _, exponents, _, index = table
    for box in range(lo.shape[1]):
        for t, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            for c, idx in enumerate(index):
                try:
                    integral_abs_pow(exponents[idx[t]], Interval(lo[c, box], hi[c, box]))
                except NotIntegrableError as exc:
                    raise NotIntegrableError(
                        f"entry ({i}, {j}), coordinate {c}: {exc}") from exc


def average_symbolic(w: SymbolicPowerMatrix, region) -> np.ndarray:
    """<W> over an interval, or over a multivar.Cube for a separable weight,
    entrywise as products of the closed-form 1D power averages: the
    search's stacked route on one box."""
    if isinstance(region, Interval):
        ivs = (region,)
    else:
        ivs = tuple(region.interval(c) for c in range(region.d))
    if len(ivs) != w.d or not w.separable:
        raise ValueError("region dimension does not match the weight")
    lo = np.array([[iv.a] for iv in ivs])
    hi = np.array([[iv.b] for iv in ivs])
    return _averages(_term_table((w,)), 1, w.n, lo, hi)[0, 0]


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


def _checked_pair(avg_w, avg_winv) -> tuple[np.ndarray, np.ndarray]:
    """Both averages, each a matrix or a stack of them, exactly
    symmetrized after every matrix passed the checks both functionals
    share: finite, self-adjoint within 1e-8, one shape, positive diagonals.
    The two are checked as one stack; if that fails, they are checked one
    after the other, so the failure raised is the one a pair raises alone."""
    try:
        a, b = linalg.as_hermitian_stack(np.array([avg_w, avg_winv]), tol=1e-8)
    except ValueError:
        linalg.as_hermitian_stack(avg_w, tol=1e-8)
        linalg.as_hermitian_stack(avg_winv, tol=1e-8)
        raise ValueError("average matrices must share a shape") from None
    if (a.diagonal(0, -2, -1).real <= 0).any() or (b.diagonal(0, -2, -1).real <= 0).any():
        raise NonPositiveInputError("averages must be positive definite")
    return a, b


def _values(val: np.ndarray):
    """A functional's values: a float for one pair of matrices, an array
    for a stack of pairs."""
    return float(val) if val.ndim == 0 else val


def a2_functional_trace(avg_w, avg_winv):
    """Tr(<W> <W^-1>); bounded below by the dimension for true averages.

    Takes one pair of (n, n) averages, or stacks of them shaped (..., n, n)
    with one value per pair; a value does not depend on the rest of its
    stack. Any pair that fails a check raises, as if it came alone.
    """
    a, b = _checked_pair(avg_w, avg_winv)
    n = a.shape[-1]
    # sum over i, j of conj(a_ij) b_ij, which is Tr(a b) for self-adjoint a
    val = np.vecdot(a.reshape(*a.shape[:-2], n * n), b.reshape(*b.shape[:-2], n * n)).real
    low = val < n * (1.0 - 1e-9)
    if low.any():
        raise NonPositiveInputError(
            f"trace functional {val[low][0]} below its floor {n}; "
            "inputs are not averages of a weight and its inverse")
    return _values(val)


def a2_functional_norm(avg_w, avg_winv):
    """||<W>^(1/2) <W^-1>^(1/2)||^2, the matrix A2 product for one interval.

    Stacks as a2_functional_trace. With <W> = U_a D_a U_a* and
    <W^-1> = U_b D_b U_b* from LAPACK (linalg.eigh_stack), eigenvalues in
    [-1e-12 * spectral radius, 0) clamp to 0 as in linalg.sqrt_psd and
    lower ones raise; the value is the top eigenvalue of C C* with
    C = D_a^(1/2) U_a* U_b D_b^(1/2), the squared top singular value of
    the product of the two square roots.
    """
    a, b = _checked_pair(avg_w, avg_winv)
    roots = []
    for m in (a, b):
        vals, vecs = linalg.eigh_stack(m)
        floor = -1e-12 * np.abs(vals).max(axis=-1)
        low = vals[..., 0] < floor
        if low.any():
            raise NonPositiveInputError(
                f"eigenvalue {vals[low][0, 0]:.6e} below PSD clamp {floor[low][0]:.6e}")
        roots.append((vecs, np.sqrt(np.clip(vals, 0.0, None))))
    (ua, ra), (ub, rb) = roots
    c = ra[..., :, None] * (ua.conj().swapaxes(-1, -2) @ ub) * rb[..., None, :]
    val = linalg.eigh_stack(c @ c.conj().swapaxes(-1, -2))[0][..., -1]
    low = val < 1.0 - 1e-9
    if low.any():
        raise NonPositiveInputError(
            f"norm functional {val[low][0]} below its floor 1")
    return _values(val)


_FUNCTIONALS = {
    "trace": a2_functional_trace,
    "norm": a2_functional_norm,
}


def _grid_scan(score, grid: list):
    """evaluate(region) for a search from score(regions), which returns
    one functional value per interval or cube of its list.

    The first call scores the whole grid in one stack, and a grid region
    then reads its value; any other region is scored as a stack of one,
    by the same code, so a value never depends on its batch. If the grid
    stack fails a check, every region is scored alone instead, so the
    failure is raised on its own region when the scan reaches it.
    """
    table = None

    def evaluate(region) -> float:
        nonlocal table
        if table is None:
            try:
                table = dict(zip(grid, score(grid).tolist()))
            except (ArithmeticError, ValueError):
                table = {}
        value = table.get(region)
        return float(score([region])[0]) if value is None else value

    return evaluate


def _endpoints(ivs: list[Interval]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([iv.a for iv in ivs]), np.array([iv.b for iv in ivs])


def _symbolic_eval_fn(w: SymbolicPowerMatrix, functional: str, config: SupSearchConfig):
    if w.d != 1:
        raise ValueError("interval estimates need a weight on the line; "
                         "use multivar.estimate_a2_cubes for d >= 2")
    flat = [e for row in type1.normalized_exponents(w)[0] for e in row]
    bad = [e for e in flat if not (Fraction(-1) < e < Fraction(1))]
    if bad:
        raise NotIntegrableError(
            "symbolic estimation needs every exponent in (-1, 1); "
            f"got {sorted(set(bad))}")
    table = _term_table((w, type1.symbolic_inverse(w)))
    func = _FUNCTIONALS[functional]

    def score(ivs: list[Interval]) -> np.ndarray:
        a, b = _endpoints(ivs)
        return func(*_averages(table, 2, w.n, a[None], b[None]))

    return _grid_scan(score, interval_grid(config))


def _type2_eval_fn(w: Type2Weight, functional: str, config: SupSearchConfig):
    """The functional of (<W>, <W^-1>) per interval, for a rotation.

    decide_a2 admits a rotation only with one exponent g, so W = |x|^g U D U*
    and W^-1 = |x|^-g U D^-1 U*, where U D U* = sum over |m| <= K of
    C_m e^(imx) (type2.fourier_coefficients). Over [a, b], W integrates to
    C_0 times the closed-form integral of |x|^g plus, for m = 1..K,
    C_m (Phi_m(b) - Phi_m(a)) and its adjoint, with the Fourier-power
    moments Phi_m of type2.fourier_power_moments; W^-1 likewise with -g.
    A stack of intervals evaluates Phi_m once at each of its distinct
    endpoints; the grid is one stack (see _grid_scan).

    On a short interval far from 0 (K |I| <= 1 and dist(I, 0) >= 2 |I|)
    a difference of Phi_m loses the phase of e^(imx) to the rounding of
    x, so (W, W^-1) is integrated there by one 20-point Gauss-Legendre
    rule instead; the integrand is analytic on I. The stack's Gauss
    intervals share one pair.values call.
    """
    g = float(w.gammas[0])
    pair = type2.pair_pointwise(w)
    coeffs = type2.fourier_coefficients(w)  # (2, K + 1, n, n)
    degree = coeffs.shape[1] - 1
    conj_osc = np.moveaxis(coeffs[:, 1:], 1, -1).conj()  # (2, n, n, K), for vecdot
    func = _FUNCTIONALS[functional]

    def integrals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(integral of W, of W^-1) over each [a_i, b_i], shaped (k, 2, n, n)."""
        out = np.empty((a.size, 2, w.n, w.n), dtype=complex)
        length = b - a
        half = length / 2.0
        gauss = (degree * length <= 1.0) & (np.minimum(np.abs(a), np.abs(b)) >= 2.0 * length)
        if gauss.any():
            nodes = ((a + b)[gauss] / 2.0)[:, None] + half[gauss][:, None] * _GAUSS_NODES
            values = pair.values(nodes.ravel()).reshape(2, w.n, w.n, *nodes.shape)
            # vecdot, like the Gauss sums of quadrature._gl_panels, sums
            # each interval's nodes on their own
            out[gauss] = np.moveaxis(np.vecdot(_GAUSS_WEIGHTS, values) * half[gauss], -1, 0)
        moment = ~gauss
        if moment.any():
            ends, where = np.unique(np.concatenate([a[moment], b[moment]]), return_inverse=True)
            at_a, at_b = where.reshape(2, -1)
            phi = type2.fourier_power_moments((g, -g), degree, ends)  # (2, K, ends)
            diff = np.moveaxis(phi[..., at_b] - phi[..., at_a], -1, 0)
            osc = np.vecdot(conj_osc, diff[:, :, None, None, :])
            mass = integral_abs_pow_stack([[g], [-g]], a[moment], b[moment]).T
            out[moment] = coeffs[:, 0] * mass[:, :, None, None] + osc + osc.conj().swapaxes(-1, -2)
        return out

    def score(ivs: list[Interval]) -> np.ndarray:
        a, b = _endpoints(ivs)
        avg = integrals(a, b) / (b - a)[:, None, None, None]
        return func(avg[:, 0], avg[:, 1])

    return _grid_scan(score, interval_grid(config))


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
        fn = _symbolic_eval_fn(weight, functional, cfg)
    elif isinstance(weight, Type2Weight):
        fn = _type2_eval_fn(weight, functional, cfg)
    else:
        raise TypeError(f"cannot estimate for {type(weight).__name__}")
    return run_interval_search(fn, cfg, functional=functional)
