"""Cubes in R^d, d in {2, 3}, and the A2 search over them.

The weights are type1.SymbolicPowerMatrix objects with d = 2 or 3. Separable
ones (one exponent matrix per coordinate) average over a cube in closed
form, as a product of 1D averages (estimator.average_symbolic). Radial
ones (entries a_ij ||x||^(e_ij)) need one integral of ||x||^e over the
cube per distinct exponent. The divergence theorem reduces it to the
cube's faces and each face to signed triangles about the foot point of
the origin (Lasserre, Proc. AMS 126, 1998; Chin, Lasserre & Sukumar,
Comput. Mech. 56, 2015), whose radial parts are closed form; the smooth
angular integrals left over run as rows of one quadrature panel tree,
with error relative to the integral. This module also builds both
families from their spec data. Both are homogeneous, so the search
evaluates each cube family once, on its unit cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import search, type1
from .estimator import (_FUNCTIONALS, _averages, _grid_scan, _term_table,
                        a2_functional_norm, a2_functional_trace, average_symbolic)
from .quadrature import QuadratureBudgetError, _panel_tree
from .report import VERDICT_A2
from .scalar_power import NotA2Error, NotIntegrableError
from .search import Interval, SupSearchResult, _maximize
from .type1 import SymbolicPowerMatrix, _completed

__all__ = [
    "Cube",
    "build_type1a",
    "build_type1a_raw",
    "build_type1b",
    "build_type1b_raw",
    "average_type1b",
    "cube_integral_radial",
    "CUBE_FAMILIES",
    "RADIAL_TOL",
    "estimate_a2_cubes",
]

_DIMS = (2, 3)
# Floor of a radial integral's error target, relative to the summed mass
# of its rows: the rounding level of their node values and Gauss sums,
# which is what is left where the face terms cancel. Below 8 eps the
# split-compare noise alone can exhaust the panel budget.
_ROUNDING = 8 * np.finfo(float).eps
_PANEL_BUDGET = 2000  # the smooth angular rows converge in about 100 panels
RADIAL_TOL = 1e-6  # relative error of each radial cube average


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube: lower corner plus a single side length.

    Storing one side length makes the equal-sides requirement structural;
    rectangles cannot be expressed.
    """

    lower: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(c) for c in self.lower))
        object.__setattr__(self, "side", float(self.side))
        if len(self.lower) not in _DIMS:
            raise ValueError("cubes are supported in dimensions 2 and 3")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("cube side must be positive and finite")
        if any(not math.isfinite(c) for c in self.lower):
            raise ValueError("cube corner must be finite")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(c + self.side for c in self.lower)

    @property
    def volume(self) -> float:
        return self.side ** self.d

    def interval(self, c: int) -> Interval:
        return Interval(self.lower[c], self.lower[c] + self.side)

    def contains_origin(self) -> bool:
        return all(lo <= 0.0 <= hi for lo, hi in zip(self.lower, self.upper))

    def nearest_vertex_distance(self) -> float:
        """Distance from the origin to the nearest cube vertex."""
        return math.sqrt(sum(min(lo * lo, hi * hi)
                             for lo, hi in zip(self.lower, self.upper)))


def _cube_dim(d: int, message: str) -> int:
    if d not in _DIMS:
        raise ValueError(message)
    return d


_SEPARABLE_DIMS = "need one exponent matrix per coordinate, d in {2, 3}"
_RADIAL_DIMS = "radial weights are supported in dimensions 2 and 3"


def build_type1a(coeff, diagonals) -> SymbolicPowerMatrix:
    """Midpoint-completed separable weight from one diagonal per coordinate."""
    diags = list(diagonals)
    return _completed(coeff, diags, _cube_dim(len(diags), _SEPARABLE_DIMS))


def build_type1a_raw(coeff, exponents) -> SymbolicPowerMatrix:
    """Store one exponent matrix per coordinate verbatim so checkers can see
    violations."""
    mats = tuple(exponents)
    return SymbolicPowerMatrix(coeff, mats, _cube_dim(len(mats), _SEPARABLE_DIMS))


def build_type1b(coeff, diag_exponents, d: int) -> SymbolicPowerMatrix:
    """Midpoint-completed radial weight from diagonal exponents."""
    return _completed(coeff, (diag_exponents,), _cube_dim(d, _RADIAL_DIMS))


def build_type1b_raw(coeff, exponents, d: int) -> SymbolicPowerMatrix:
    return SymbolicPowerMatrix(coeff, (exponents,), _cube_dim(d, _RADIAL_DIMS))


# The benchmark's tracer (a2wbench/tracing.py) wraps these names, and the
# cube search calls the averages through them so its counters hold.
# golden_max and the two functionals are here for the tracer alone: the
# cube search does not refine, and it looks its functional up in the
# estimator's table, so their wrappers count no cube evaluation.
check_a2_type1a = check_a2_type1b = type1.check_a2
average_type1a = average_symbolic
golden_max = search.golden_max


def _edge_pieces(lo, hi):
    """Signed polar triangles of the rectangle [lo, hi] about its plane's origin.

    One piece per edge whose line misses the origin, as (h, phi0, span): h
    is the distance of the edge's line, negative when the outward normal
    points toward the origin, and the edge is seen at the angles
    [phi0, phi0 + span] from that normal.
    """
    for k in (0, 1):
        a, b = lo[1 - k], hi[1 - k]
        for h in (hi[k], -lo[k]):
            if h != 0.0:
                e = abs(h)
                yield h, math.atan2(a, e), math.atan2((b - a) * e, e * e + a * b)


def cube_integral_radial(gamma: float, lo, hi, tol: float = 1e-6) -> float:
    """Integral of ||x||^gamma over the box [lo, hi], origin allowed inside.

    The divergence theorem, div(x ||x||^gamma) = (d + gamma) ||x||^gamma,
    turns the box into a signed sum over its faces of (x . n) times the
    face integral; faces in a plane through the origin drop out. At
    gamma = -d, on boxes away from the origin, the field is
    x ||x||^(-d) log(||x|| / r) instead, whose divergence is ||x||^(-d) for
    any r. In d = 2 each face is a polar triangle about the origin; in
    d = 3 each face splits into signed triangles about the foot point of
    the origin, whose radial integrals are closed form. What is left is
    one smooth angular integral per triangle, each a row of one panel
    tree over [0, 1].

    The error is relative to the integral itself: the rows share
    tol * |value| / 2 equally (the other half covers the seed panel's
    estimate of |value|), but never go below the rounding level of their
    summed masses. On boxes far from the origin the face terms cancel;
    when their rounding alone exceeds tol * |value|, QuadratureBudgetError
    names the box rather than returning an unverified value.
    """
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    d = len(lo)
    if d not in _DIMS or len(hi) != d:
        raise ValueError("supported box dimensions are 2 and 3")
    if any(b <= a for a, b in zip(lo, hi)):
        raise ValueError("box must have positive extent in every coordinate")
    touches_origin = all(a <= 0.0 <= b for a, b in zip(lo, hi))
    if touches_origin and gamma <= -d:
        raise ValueError(
            f"exponent {gamma} <= {-d} is not integrable at the origin")
    if gamma == 0.0:
        return math.prod(b - a for a, b in zip(lo, hi))

    # Rows (phi0, span, e, weight, c): the triangle of edge distance e on
    # the face at coordinate c contributes weight * span * F(c, s) at the
    # angles phi0 + span * t, where s = e sec(phi) / c.
    log_form = gamma == -d
    kappa = 1.0 if log_form else 1.0 / (d + gamma)
    rows = []
    if d == 2:
        for h, phi0, span in _edge_pieces(lo, hi):
            rows.append((phi0, span, abs(h), math.copysign(1.0, h) * kappa,
                         abs(h)))
    else:
        for k in range(3):
            rest = [j for j in range(3) if j != k]
            for flux in (hi[k], -lo[k]):  # x . n on the face
                if flux == 0.0:
                    continue
                for h, phi0, span in _edge_pieces([lo[j] for j in rest],
                                                  [hi[j] for j in rest]):
                    rows.append((phi0, span, abs(h),
                                 math.copysign(1.0, h) * kappa * flux, abs(flux)))
    phi0, span, e, weight, c = (np.array(col)[:, None] for col in zip(*rows))
    # The log form's radius r: x ||x||^(-d) has no flux out of a box that
    # misses the origin, so any r gives the same integral; the largest
    # coordinate keeps log(c / r) small.
    ref_log = np.log(c / max(map(abs, lo + hi)))
    beta = gamma / 2.0 + 1.0

    def radial(s):
        """F(c, s): the radial integral out to the edge per unit angle,
        without the factor kappa."""
        if d == 2:
            return ref_log + np.log(s) if log_form else (c * s) ** (gamma + 2.0)
        lg = np.log1p(s * s)
        if log_form:
            return -((ref_log + 1.0) * np.expm1(-lg / 2.0)
                     + lg / 2.0 * np.exp(-lg / 2.0)) / c
        if beta == 0.0:  # gamma = -2
            return lg / 2.0
        return c ** (gamma + 2.0) * np.expm1(beta * lg) / (2.0 * beta)

    def values(t):
        return weight * span * radial(e / (c * np.cos(phi0 + span * t)))

    target = 0.0

    def tolerance(mass, total):
        nonlocal target
        target = max(tol * abs(total.sum()), _ROUNDING * mass.sum())
        return np.full(len(rows), target / (2 * len(rows)))

    box = f"box {lo}..{hi}"
    value = float(np.sum(_panel_tree(values, (0.0, 1.0), tolerance, None, _PANEL_BUDGET,
                                     lambda k: f"{box}, angular piece {k}: ")))
    if not target <= 2 * tol * abs(value):
        raise QuadratureBudgetError(
            f"{box}: rounding in the face terms allows "
            f"{target / (2 * abs(value)):.3g} relative error, "
            f"above the tolerance {tol:.3g}")
    return value


def average_type1b(w: SymbolicPowerMatrix, cube: Cube,
                   tol: float = RADIAL_TOL) -> np.ndarray:
    """Entrywise cube average of a radial weight: one cube_integral_radial
    per distinct exponent, each within tol of itself relatively."""
    if w.separable or cube.d != w.d:
        raise ValueError("cube dimension does not match the radial weight")
    lo, hi = cube.lower, cube.upper
    cache: dict[float, float] = {}
    out = np.zeros((w.n, w.n), dtype=complex)
    rows, cols, coeffs, exponents, _, (index,) = w.terms
    for i, j, a, e in zip(rows.tolist(), cols.tolist(), coeffs.tolist(),
                          exponents[index].tolist()):
        if e not in cache:
            try:
                cache[e] = cube_integral_radial(e, lo, hi, tol) / cube.volume
            except ValueError as exc:
                raise NotIntegrableError(
                    f"entry ({i}, {j}): {exc}") from exc
        out[i, j] = a * cache[e]
    out = 0.5 * (out + out.conj().T)
    return out.real if np.all(out.imag == 0) else out


CUBE_FAMILIES = ("cornered", "centered", "shifted")


def estimate_a2_cubes(weight, functional: str = "trace") -> SupSearchResult:
    """Maximum of the A2 functional over the cube families, a lower bound
    of its supremum over all cubes.

    The weight is homogeneous, W(tx) = T W(x) T with T = diag(|t|^(g_i/2)),
    so each family takes one value whatever the side: the unit cubes
    cornered at and centered on the origin, and shifted one and two sides
    out along the diagonal, run once each, as one stack
    (estimator._grid_scan). Values within 1e-12 relative tie; ties go to
    the cube whose nearest vertex is closest to the origin.
    """
    func = _FUNCTIONALS.get(functional)
    if func is None:
        raise ValueError(f"unknown functional {functional!r}")

    if not isinstance(weight, SymbolicPowerMatrix):
        raise TypeError(f"cannot estimate for {type(weight).__name__}")
    report = type1.check_a2(weight)
    if report.verdict != VERDICT_A2:
        raise NotA2Error(
            f"cube estimation precondition failed: {report.verdict}")
    inverse = type1.symbolic_inverse(weight)
    if weight.separable:
        table = _term_table((weight, inverse))

        def averages(stack: list[Cube]):
            lo = np.array([c.lower for c in stack]).T
            hi = np.array([c.upper for c in stack]).T
            return _averages(table, 2, weight.n, lo, hi)
    else:
        def averages(stack: list[Cube]):
            return [np.array([average_type1b(w, c) for c in stack]) for w in (weight, inverse)]

    cubes = [Cube((c,) * weight.d, 1.0) for c in (0.0, -0.5, 1.0, 2.0)]
    evaluate = _grid_scan(lambda stack: func(*averages(stack)), cubes)
    return _maximize(cubes, evaluate, lambda scored, incumbent: None,
                     Cube.nearest_vertex_distance, functional)
