"""Cubes in R^d, d in {2, 3}, and the A2 search over them.

The weights are type1.SymbolicPowerMatrix objects with d = 2 or 3. Separable
ones (one exponent matrix per coordinate) average over a cube in closed
form, as a product of 1D averages (estimator.average_symbolic). Radial
ones (entries a_ij ||x||^(e_ij)) need one integral of ||x||^e over the
cube per distinct exponent. The divergence theorem reduces it to the
cube's faces and each face to signed triangles about the foot point of
the origin (Lasserre, Proc. AMS 126, 1998; Chin, Lasserre & Sukumar,
Comput. Mech. 56, 2015), whose radial parts are closed form; the smooth
angular integrals left over are rows of a quadrature panel tree, with
error relative to the integral. The integrals of every exponent on one
box are groups of rows of one tree (_radial_integrals): the estimate
averages W and W^-1 with one. This module also builds both families from
their spec data. Both are even and homogeneous, so estimator.estimate_a2
scores one cube, the unit cube cornered at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import search, type1
from .estimator import (a2_functional_norm, a2_functional_trace, average_symbolic,
                        estimate_a2)
from .quadrature import QuadratureBudgetError, _panel_tree
from .scalar_power import NotIntegrableError, power_stack
from .search import Interval
from .type1 import SymbolicPowerMatrix, _completed

__all__ = [
    "Cube",
    "build_type1a",
    "build_type1b",
    "average_type1b",
    "cube_integral_radial",
    "CUBE_FAMILIES",
    "RADIAL_TOL",
]

_DIMS = (2, 3)
# Floor of a radial integral's error target, relative to the summed mass
# of its rows: the rounding level of their node values and Gauss sums,
# which is what is left where the face terms cancel. Below 8 eps the
# split-compare noise alone can exhaust the panel budget.
_ROUNDING = 8 * np.finfo(float).eps
# Panels per radial integral; a tree gets this times its number of
# integrals. On the estimate's unit cube a tree converges in 3 panels.
_PANEL_BUDGET = 2000
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


def _cube_dim(d: int, message: str) -> int:
    if d not in _DIMS:
        raise ValueError(message)
    return d


def build_type1a(coeff, diagonals) -> SymbolicPowerMatrix:
    """Midpoint-completed separable weight from one diagonal per coordinate."""
    diags = list(diagonals)
    return _completed(coeff, diags, _cube_dim(
        len(diags), "need one exponent matrix per coordinate, d in {2, 3}"))


def build_type1b(coeff, diag_exponents, d: int) -> SymbolicPowerMatrix:
    """Midpoint-completed radial weight from diagonal exponents."""
    return _completed(coeff, (diag_exponents,), _cube_dim(
        d, "radial weights are supported in dimensions 2 and 3"))


# The benchmark's tracer (a2wbench/tracing.py) wraps these names, with
# average_type1b, which estimator.estimate_a2 calls through this module so
# its counter holds. The names here are for the tracer alone and count
# nothing: the cube estimate decides through type1, averages a separable
# weight through estimator._shape_scores, looks its functional up in the
# estimator's table and does not refine, and the cli calls estimate_a2.
check_a2_type1a = check_a2_type1b = type1.check_a2
average_type1a = average_symbolic
golden_max = search.golden_max
estimate_a2_cubes = estimate_a2


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


def _checked_box(gamma: float, lo, hi) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The box [lo, hi] as float corners, once ||x||^gamma is integrable on it."""
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    d = len(lo)
    if d not in _DIMS or len(hi) != d:
        raise ValueError("supported box dimensions are 2 and 3")
    if any(b <= a for a, b in zip(lo, hi)):
        raise ValueError("box must have positive extent in every coordinate")
    if gamma <= -d and all(a <= 0.0 <= b for a, b in zip(lo, hi)):
        raise ValueError(
            f"exponent {gamma} <= {-d} is not integrable at the origin")
    return lo, hi


def _box_pieces(lo, hi) -> np.ndarray:
    """Columns (phi0, span, e, c, flux, ref_log) of the box's signed
    triangles, one per row of its radial integrals whatever the exponent.

    The triangle of edge distance e on the face at coordinate c (in d = 2
    the edge itself, c = e) contributes flux * span * F(c, s) at the
    angles phi0 + span * t, where s = e sec(phi) / c; flux is x . n on its
    face (1 in d = 2) times the sign of its edge's h (see _edge_pieces).
    ref_log is log(c / r) for the log form's radius r: x ||x||^(-d) has no
    flux out of a box that misses the origin, so any r gives the same
    integral, and the largest coordinate keeps log(c / r) small.
    """
    pieces = []
    if len(lo) == 2:
        for h, phi0, span in _edge_pieces(lo, hi):
            pieces.append((phi0, span, abs(h), abs(h), math.copysign(1.0, h)))
    else:
        for k in range(3):
            rest = [j for j in range(3) if j != k]
            for flux in (hi[k], -lo[k]):  # x . n on the face
                if flux == 0.0:
                    continue
                for h, phi0, span in _edge_pieces([lo[j] for j in rest],
                                                  [hi[j] for j in rest]):
                    pieces.append((phi0, span, abs(h), abs(flux),
                                   math.copysign(1.0, h) * flux))
    phi0, span, e, c, flux = np.array(pieces).T
    return np.array([phi0, span, e, c, flux, np.log(c / max(map(abs, lo + hi)))])


def _radial_integrals(gammas, lo, hi, tol: float) -> list[float]:
    """The integral of ||x||^gamma over the box [lo, hi] for each gamma of
    gammas, corners checked by _checked_box, on one panel tree over [0, 1].

    Each gamma != 0 is a group of rows, the box's triangles (_box_pieces)
    scaled by its kappa; gamma = 0 is the exact volume and has none. A
    group whose rows need more panels refines the others along, so a
    value can move within its tolerance with the groups beside it. Each
    group's error target is tol times its integral, never below the
    rounding level of its summed masses, and its rows share half of it
    equally (the other half covers the seed panel's estimate of the
    integral); the budget is _PANEL_BUDGET per group. After the tree, a
    group whose rounding level alone exceeds tol times its value raises
    QuadratureBudgetError naming the box, as does a budget error, at its
    worst row.
    """
    d = len(lo)
    out = [math.prod(b - a for a, b in zip(lo, hi))] * len(gammas)
    scored = [k for k, gamma in enumerate(gammas) if gamma != 0.0]
    if not scored:
        return out
    pieces = _box_pieces(lo, hi)
    count = pieces.shape[1]
    starts = range(0, count * len(scored), count)  # each group's first row
    phi0, span, e, c, flux, ref_log = np.tile(pieces, len(scored))[:, :, None]
    # (kappa, the power gamma + 2, beta = gamma / 2 + 1, log form) per group
    scalars = [(1.0 if g == -d else 1.0 / (d + g), g + 2.0, g / 2.0 + 1.0, g == -d)
               for g in (gammas[k] for k in scored)]
    kappa, power, beta, log_form = (np.repeat(col, count)[:, None] for col in zip(*scalars))
    weight = kappa * flux
    two_beta = np.where(beta == 0.0, 1.0, 2.0 * beta)  # those rows take lg / 2 or a log
    has_log, has_flat = bool(log_form.any()), d == 3 and bool((beta == 0.0).any())

    def radial(s):
        """F(c, s) of every row: the radial integral out to the edge per
        unit angle, without the factor kappa."""
        if d == 2:
            out = power_stack(c * s, power)
            return np.where(log_form, ref_log + np.log(s), out) if has_log else out
        lg = np.log1p(s * s)
        solid = power_stack(c, power) * np.expm1(beta * lg) / two_beta
        if has_flat:  # gamma = -2 in d = 3
            solid = np.where(beta == 0.0, lg / 2.0, solid)
        if has_log:
            solid = np.where(log_form, -((ref_log + 1.0) * np.expm1(-lg / 2.0)
                                         + lg / 2.0 * np.exp(-lg / 2.0)) / c, solid)
        return solid

    def values(t):
        return weight * span * radial(e / (c * np.cos(phi0 + span * t)))

    targets = []

    def tolerance(mass, total):
        targets[:] = [max(tol * abs(np.add.reduce(total[a:a + count])),
                          _ROUNDING * np.add.reduce(mass[a:a + count])) for a in starts]
        return np.repeat([t / (2 * count) for t in targets], count)

    def where(k):
        return f"box {lo}..{hi}, angular piece {k % count}: "

    total = _panel_tree(values, (0.0, 1.0), tolerance, None,
                        _PANEL_BUDGET * len(scored), where)
    for k, target, a in zip(scored, targets, starts):
        value = float(np.add.reduce(total[a:a + count]))
        if not target <= 2 * tol * abs(value):
            raise QuadratureBudgetError(
                f"box {lo}..{hi}: rounding in the face terms allows "
                f"{target / (2 * abs(value)):.3g} relative error, "
                f"above the tolerance {tol:.3g}")
        out[k] = value
    return out


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
    tree over [0, 1]: a stack of one of _radial_integrals.

    The error is relative to the integral itself, never below the
    rounding level of the rows' summed masses. On boxes far from the
    origin the face terms cancel; when their rounding alone exceeds
    tol * |value|, QuadratureBudgetError names the box rather than
    returning an unverified value.
    """
    return _radial_integrals([gamma], *_checked_box(gamma, lo, hi), tol)[0]


def average_type1b(w, cube: Cube, tol: float = RADIAL_TOL):
    """Entrywise average of a radial weight over a cube, shaped (n, n),
    each entry within tol of itself relatively.

    Given a tuple of weights instead, one such array per weight. Either
    way the integral of each distinct exponent is a group of rows of one
    _radial_integrals tree, so the cube estimate averages W and W^-1 with
    one tree.
    """
    single = isinstance(w, SymbolicPowerMatrix)
    weights = (w,) if single else w
    if any(v.separable or cube.d != v.d for v in weights):
        raise ValueError("cube dimension does not match the radial weight")
    at: dict[float, int] = {}
    entries = []
    for v in weights:
        rows, cols, coeffs, exponents, _, (index,) = v.terms
        terms = list(zip(rows.tolist(), cols.tolist(), coeffs.tolist(),
                         exponents[index].tolist()))
        entries.append(terms)
        for i, j, _, e in terms:
            if e not in at:
                try:
                    _checked_box(e, cube.lower, cube.upper)
                except ValueError as exc:
                    raise NotIntegrableError(f"entry ({i}, {j}): {exc}") from exc
                at[e] = len(at)
    found = _radial_integrals(list(at), cube.lower, cube.upper, tol)
    out = []
    for v, terms in zip(weights, entries):
        avg = np.zeros((v.n, v.n), dtype=complex)
        for i, j, a, e in terms:
            avg[i, j] = a * (found[at[e]] / cube.volume)
        out.append(avg)
    return out[0] if single else out


# the cubes that take the value of the unit cube cornered at the origin,
# the one cube estimator.estimate_a2 scores
CUBE_FAMILIES = ("cornered", "centered")
