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

Averages and functionals run on stacks shaped (k, n, n). A rotation's
warm function scores each batch the search hands it, its whole grid
first and then each lookahead tree of its golden-refinement intervals,
as one stack, and its evaluate function looks those up; any other
interval, and average_symbolic, run the same code as a stack of one, so
a value never depends on its batch.
estimate_a2 scores a power matrix once, at [0, 1] on the line and at
[0, 1]^d on cubes, equilibrated, with its symbolic inverse, after a
float rule on its exponents (_closed_form_pair): one average_symbolic
call averages the pair, or one multivar.average_type1b call for a
radial weight. Every route returns a regions.Estimate, whose scope names
the families of regions (Interval, Cube) its value stands for.
"""

from __future__ import annotations

import numpy as np

from . import linalg, type1, type2
from .quadrature import PointwiseMatrixFunction, matrix_quad
from .regions import CUBE_FAMILIES, FAMILIES, Cube, Estimate, Interval
from .scalar_power import (NotIntegrableError, format_rational, integral_abs_pow,
                           integral_abs_pow_stack)
from .search import (SearchError, SupSearchConfig, _scored, coarse_interval_config,
                     run_interval_search)
from .type1 import SymbolicPowerMatrix
from .type2 import Type2Weight

__all__ = [
    "NonPositiveInputError",
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
    first entry (in table order) and coordinate that has one, and one
    past the float range raises OverflowError for the first such entry.
    """
    which, rows, cols, coeffs, exponents, factor, index = table
    side = integral_abs_pow_stack(exponents[:, None], lo[factor], hi[factor]) / (hi - lo)[factor]
    product = side[index[0]]
    for idx in index[1:]:
        product = product * side[idx]
    if np.isnan(product).any():
        _raise_not_integrable(table, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = coeffs[:, None] * product
    over = ~np.isfinite(entries).all(axis=1)
    if over.any():
        t = over.argmax()
        raise OverflowError(f"average of entry ({rows[t]}, {cols[t]}) "
                            "overflows the float range")
    out = np.zeros((count, lo.shape[1], n, n), dtype=complex)
    out[which, :, rows, cols] = entries
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


def average_symbolic(w, region) -> np.ndarray:
    """<W> over an interval, or over a cube for a separable weight,
    entrywise as products of the closed-form 1D power averages: the
    search's stacked route on one box.

    Given a tuple of weights of one order instead, their averages as one
    array shaped (m, n, n), from one _term_table, so the estimate averages
    W and W^-1 with one integral_abs_pow_stack call."""
    single = isinstance(w, SymbolicPowerMatrix)
    weights = (w,) if single else tuple(w)
    if isinstance(region, Interval):
        ivs = (region,)
    else:
        ivs = tuple(region.interval(c) for c in range(region.d))
    if any(len(ivs) != v.d or not v.separable for v in weights):
        raise ValueError("region dimension does not match the weight")
    if len({v.n for v in weights}) != 1:
        raise ValueError("weights must share one order")
    lo = np.array([[iv.a] for iv in ivs])
    hi = np.array([[iv.b] for iv in ivs])
    out = _averages(_term_table(weights), len(weights), weights[0].n, lo, hi)[:, 0]
    return out[0] if single else out


def average_numeric(pmf: PointwiseMatrixFunction, iv: Interval,
                    tol: float = 1e-8) -> np.ndarray:
    """<W>_I from one matrix-valued panel tree, shaped (n, n); for a stack
    of m matrices (such as type2.pair_pointwise's W and W^-1) the m
    averages from one shared tree, shaped (m, n, n).

    Diagonal entries are positive masses, so they run under purely
    relative control; off-diagonal entries can cancel, so their tolerance
    is anchored to the largest diagonal mass of their own matrix (the
    natural matrix scale) plus their own, instead of an absolute floor.
    """
    return matrix_quad(pmf, iv.a, iv.b, tol) / iv.length


def _checked_pair(avg_w, avg_winv) -> np.ndarray:
    """Both averages, each a matrix or a stack of them, as one stack
    (2, ..., n, n), exactly symmetrized after every matrix passed the
    checks both functionals share: finite, self-adjoint within 1e-8, one
    shape, positive diagonals. The two are checked as one stack; if that
    fails, they are checked one after the other, so the failure raised is
    the one a pair raises alone."""
    try:
        pair = linalg.as_hermitian(np.array([avg_w, avg_winv]), tol=1e-8)
    except ValueError:
        linalg.as_hermitian(avg_w, tol=1e-8)
        linalg.as_hermitian(avg_winv, tol=1e-8)
        raise ValueError("average matrices must share a shape") from None
    if (pair.diagonal(0, -2, -1).real <= 0).any():
        raise NonPositiveInputError("averages must be positive definite")
    return pair


# A floor gives way by 1e-9 relative plus the inputs' rounding: _ROUNDING times
# sum |<W>_ij <W^-1>_ji| (trace) or ||<W>|| ||<W^-1>|| (norm), large for ill-conditioned A.
_ROUNDING = 32 * np.finfo(float).eps


def _values(val: np.ndarray):
    """A functional's values: a float for one pair of matrices, an array
    for a stack of pairs."""
    return float(val) if val.ndim == 0 else val


# A value past the float range comes back as inf, which the search reports on
# its interval; numpy's overflow warning would only add a second report.
@np.errstate(over="ignore", invalid="ignore")
def a2_functional_trace(avg_w, avg_winv):
    """Tr(<W> <W^-1>); bounded below by the dimension for true averages.

    Takes one pair of (n, n) averages, or stacks of them shaped (..., n, n)
    with one value per pair; a value does not depend on the rest of its
    stack. Any pair that fails a check raises, as if it came alone.
    """
    a, b = _checked_pair(avg_w, avg_winv)
    n = a.shape[-1]
    # sum over i, j of conj(a_ij) b_ij, which is Tr(a b) for self-adjoint a
    a, b = a.reshape(*a.shape[:-2], n * n), b.reshape(*b.shape[:-2], n * n)
    val = np.vecdot(a, b).real
    low = val < n * (1.0 - 1e-9) - _ROUNDING * np.vecdot(np.abs(a), np.abs(b))
    if low.any():
        raise NonPositiveInputError(
            f"trace functional {val[low][0]} below its floor {n}; "
            "inputs are not averages of a weight and its inverse")
    return _values(val)


@np.errstate(over="ignore", invalid="ignore")
def a2_functional_norm(avg_w, avg_winv):
    """||<W>^(1/2) <W^-1>^(1/2)||^2, the matrix A2 product for one interval.

    Stacks as a2_functional_trace. With <W> = U_a D_a U_a* and
    <W^-1> = U_b D_b U_b* from LAPACK under linalg's PSD clamp (as in
    linalg.sqrt_psd, a failure raises NonPositiveInputError), the value
    is the top eigenvalue of C C* with C = D_a^(1/2) U_a* U_b D_b^(1/2),
    the squared top singular value of the product of the two square roots.
    """
    pair = _checked_pair(avg_w, avg_winv)
    try:
        vals, (ua, ub), _ = linalg._psd_eigh(pair)
    except linalg.NegativeEigenvalueError as exc:
        raise NonPositiveInputError(str(exc)) from exc
    ra, rb = np.sqrt(vals)
    c = ra[..., :, None] * (ua.conj().swapaxes(-1, -2) @ ub) * rb[..., None, :]
    val = linalg.eigh_stack(c @ c.conj().swapaxes(-1, -2))[0][..., -1]
    low = val < 1.0 - 1e-9 - _ROUNDING * vals[0, ..., -1] * vals[1, ..., -1]
    if low.any():
        raise NonPositiveInputError(
            f"norm functional {val[low][0]} below its floor 1")
    return _values(val)


_FUNCTIONALS = {
    "trace": a2_functional_trace,
    "norm": a2_functional_norm,
}


def _value_cache(score):
    """(evaluate(iv), warm(ivs)) for a rotation's search from score(ivs),
    which returns one functional value per interval of its list.

    warm scores the intervals it is given that its table lacks as one
    stack and stores their values; if that stack fails a check, it stores
    nothing. evaluate reads an interval's value from the table, and scores
    any other interval as a stack of one, by the same code, so a value
    never depends on its batch. A failure is raised on its own interval,
    alone, when the search reaches it.
    """
    table = {}

    def warm(regions) -> None:
        # the grid comes first, to an empty table, and repeats no region
        new = list(dict.fromkeys(r for r in regions if r not in table)) if table else regions
        if not new:
            return
        try:
            table.update(zip(new, score(new).tolist()))
        except (ArithmeticError, ValueError):
            pass

    def evaluate(region) -> float:
        value = table.get(region)
        return float(score([region])[0]) if value is None else value

    return evaluate, warm


def _require_float_exponents(located, bound: int) -> None:
    """Raise SearchError for the first (where, e) of located whose float
    is not inside (-bound, bound), the A2 range: averages run on floats."""
    for where, e in located:
        if abs(float(e)) >= bound:
            raise SearchError(f"{where} exponent {format_rational(e)} rounds to "
                              f"{float(e):g} in double precision; the averages "
                              f"need it strictly inside ({-bound}, {bound})")


def _closed_form_pair(w: SymbolicPowerMatrix):
    """(W, W^-1) as lines and cubes average them: w equilibrated and its
    symbolic inverse, once no diagonal exponent rounds to its factor's A2
    bound (type1._diagonal_range); the others are midpoints of these."""
    located, bound = type1._diagonal_range(w)
    _require_float_exponents([(f"coordinate {at[0]}, entry ({at[1]}, {at[1]})" if at[1:]
                               else f"entry ({at[0]}, {at[0]})", g) for at, g in located], bound)
    w = w.equilibrated
    return w, type1.symbolic_inverse(w)


def _type2_eval_fn(w: Type2Weight, functional: str):
    """The functional of (<W>, <W^-1>) per interval, for a rotation.

    decide_a2 admits a rotation only with one exponent g, so W = |x|^g U D U*
    and W^-1 = |x|^-g U D^-1 U*, where U D U* = sum over |m| <= K of
    C_m e^(imx) (type2.fourier_coefficients). Over [a, b], W integrates to
    C_0 times the closed-form integral of |x|^g plus, for m = 1..K,
    C_m (Phi_m(b) - Phi_m(a)) and its adjoint, with the Fourier-power
    moments Phi_m of type2.fourier_power_moments; W^-1 likewise with -g.
    A stack of intervals evaluates Phi_m once at each of its distinct
    endpoints; the search warms its grid as one stack (see _value_cache).

    On a short interval far from 0 (K |I| <= 1 and dist(I, 0) >= 2 |I|)
    a difference of Phi_m loses the phase of e^(imx) to the rounding of
    x, so (W, W^-1) is integrated there by one 20-point Gauss-Legendre
    rule instead; the integrand is analytic on I. The stack's Gauss
    intervals share one pair.values call.

    The weight runs equilibrated (Type2Weight.equilibrated); an average
    past the float range raises OverflowError, and an exponent that rounds
    to -1 or 1 SearchError (_require_float_exponents).
    """
    _require_float_exponents([(f"eigenvalue {k}", g) for k, g in enumerate(w.gammas)], 1)
    w = w.equilibrated
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
        a, b = np.array([(iv.a, iv.b) for iv in ivs]).T
        with np.errstate(over="ignore", invalid="ignore"):
            avg = integrals(a, b) / (b - a)[:, None, None, None]
        if not np.isfinite(avg).all():
            _, m, i, j = np.argwhere(~np.isfinite(avg))[0].tolist()
            raise OverflowError(f"average of {('W', 'W^-1')[m]} entry ({i}, {j}) "
                                "overflows the float range")
        return func(avg[:, 0], avg[:, 1])

    return _value_cache(score)


def estimate_a2(weight, functional: str = "trace",
                config: SupSearchConfig | None = None) -> Estimate:
    """Lower bound of the A2 functional's supremum over the result's scope.

    Accepts a symbolic power matrix on R^d, d in {1, 2, 3} (a scalar
    weight is the 1x1 case on the line), or a Type 2 weight. The weight's
    A2 decision (check_a2 or decide_a2) is the one gate: a weight that is
    not A2 raises NotA2Error (A2Report.require_a2) before any average.
    Every route averages in closed form, up to rounding; a radial weight
    runs one panel tree (multivar.average_type1b), and a rotation's short
    intervals far from 0 take a Gauss rule.

    A power matrix, identity Type 2 weights among them (type2.as_type1),
    is even and homogeneous, W(tx) = T W(x) T with T = diag(|t|^(g_i/2)):
    every symmetric and every anchored interval takes the value of [0, 1],
    every cube cornered at or centered on the origin that of [0, 1]^d,
    and no other shape was seen to beat them past the search's tie rule.
    It is scored once, on the equilibrated pair (_closed_form_pair), and
    reported on [0, 2] or [0, 1]^d, scoped to those two families. A
    rotation searches config, the coarse grid by default, over all three
    (run_interval_search), and the result's config is that grid.
    """
    if functional not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if isinstance(weight, Type2Weight):
        type2.decide_a2(weight).require_a2()
        if not weight.is_rotation:  # a diagonal power matrix
            weight = type2.as_type1(weight)
    elif isinstance(weight, SymbolicPowerMatrix):
        type1.check_a2(weight).require_a2()
    else:
        raise TypeError(f"cannot estimate for {type(weight).__name__}")
    if isinstance(weight, SymbolicPowerMatrix):
        pair = _closed_form_pair(weight)
        func = _FUNCTIONALS[functional]
        average, tol = average_symbolic, None
        if weight.d == 1:  # reported on [0, 2], which takes the value of [0, 1]
            region, scored_at, scope = Interval(0.0, 2.0), Interval(0.0, 1.0), FAMILIES[:2]
        else:
            region = scored_at = Cube((0.0,) * weight.d, 1.0)
            scope = CUBE_FAMILIES
            if not weight.separable:
                from . import multivar  # not at the top: multivar imports this module
                average, tol = multivar.average_type1b, multivar.RADIAL_TOL
        value = _scored(lambda _: func(*average(pair, scored_at)), region)
        return Estimate(estimate=value, argmax=region, evaluations=1, functional=functional,
                        scope=scope, quadrature_tol=tol)
    evaluate, warm = _type2_eval_fn(weight, functional)
    return run_interval_search(evaluate, config or coarse_interval_config(),
                               functional=functional, warm=warm)
