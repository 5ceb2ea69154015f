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
error relative to the integral. Every integral of a stack, over all its
exponents and cubes, is a group of rows of one tree (_radial_integrals):
the cube search averages W and W^-1 on its four cubes with one. This
module also builds both families from their spec data. Both are
homogeneous, so the search evaluates each cube family once, on its unit
cube.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import search, type1
from .estimator import (_FUNCTIONALS, _averages, _closed_form_pair, _grid_scan,
                        _term_table, a2_functional_norm, a2_functional_trace, average_symbolic)
from .quadrature import QuadratureBudgetError, _panel_tree
from .scalar_power import NotIntegrableError, power_stack
from .search import Interval, SupSearchResult, _maximize
from .type1 import SymbolicPowerMatrix, _completed

__all__ = [
    "Cube",
    "build_type1a",
    "build_type1b",
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
# Panels per radial integral; a tree gets this times its number of
# integrals. On the cube search's unit cubes a tree converges in 3 panels.
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

    def nearest_vertex_distance(self) -> float:
        """Distance from the origin to the nearest cube vertex."""
        return math.sqrt(sum(min(lo * lo, hi * hi)
                             for lo, hi in zip(self.lower, self.upper)))


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


def _radial_integrals(integrals, tol: float) -> list[float]:
    """The integral of ||x||^gamma over the box [lo, hi] for each
    (gamma, lo, hi) of integrals, corners checked by _checked_box, on one
    panel tree over [0, 1].

    Each (gamma, box) with gamma != 0 is a group of rows, its box's
    triangles (_box_pieces, built once per box) scaled by its kappa;
    gamma = 0 is the exact volume and has none. A group whose rows need
    more panels refines the others along, so a value can move within its
    tolerance with the groups beside it. Each group's error target is
    tol times its integral, never below the rounding level of its summed
    masses, and its rows share half of it equally (the other half covers
    the seed panel's estimate of the integral); the budget is
    _PANEL_BUDGET per group. After the tree, a group whose rounding
    level alone exceeds tol times its value raises QuadratureBudgetError
    naming its box, as does a budget error, at its worst row.
    """
    out = [math.prod(b - a for a, b in zip(lo, hi)) for _, lo, hi in integrals]
    scored = [k for k, (gamma, _, _) in enumerate(integrals) if gamma != 0.0]
    if not scored:
        return out
    groups = [integrals[k] for k in scored]
    boxes: dict = {}
    blocks, scalars = [], []
    for gamma, lo, hi in groups:
        if (lo, hi) not in boxes:
            boxes[lo, hi] = _box_pieces(lo, hi)
        blocks.append(boxes[lo, hi])
        d = len(lo)
        log_form = gamma == -d
        # (kappa, the power gamma + 2, beta = gamma / 2 + 1, d, log form)
        scalars.append((1.0 if log_form else 1.0 / (d + gamma), gamma + 2.0,
                        gamma / 2.0 + 1.0, d, log_form))
    counts = [block.shape[1] for block in blocks]
    starts = np.cumsum([0] + counts).tolist()
    phi0, span, e, c, flux, ref_log = np.concatenate(blocks, axis=1)[:, :, None]
    kappa, power, beta, dim, log_form = (np.repeat(col, counts)[:, None]
                                         for col in zip(*scalars))
    weight = kappa * flux
    planar = dim == 2
    flat = (dim == 3) & (beta == 0.0)  # gamma = -2 in d = 3
    two_beta = np.where(beta == 0.0, 1.0, 2.0 * beta)  # those rows take lg / 2 or a log
    has_planar, has_solid = bool(planar.any()), not planar.all()
    has_log, has_flat = bool(log_form.any()), bool(flat.any())

    def radial(s):
        """F(c, s) of every row: the radial integral out to the edge per
        unit angle, without the factor kappa."""
        if has_planar:
            out = power_stack(c * s, power)
            if has_log:
                out = np.where(log_form, ref_log + np.log(s), out)
            if not has_solid:
                return out
        lg = np.log1p(s * s)
        solid = power_stack(c, power) * np.expm1(beta * lg) / two_beta
        if has_flat:
            solid = np.where(flat, lg / 2.0, solid)
        if has_log:
            solid = np.where(log_form, -((ref_log + 1.0) * np.expm1(-lg / 2.0)
                                         + lg / 2.0 * np.exp(-lg / 2.0)) / c, solid)
        return np.where(planar, out, solid) if has_planar else solid

    def values(t):
        return weight * span * radial(e / (c * np.cos(phi0 + span * t)))

    targets = []

    def tolerance(mass, total):
        targets[:] = [max(tol * abs(np.add.reduce(total[a:b])),
                          _ROUNDING * np.add.reduce(mass[a:b]))
                      for a, b in zip(starts, starts[1:])]
        return np.repeat([t / (2 * n) for t, n in zip(targets, counts)], counts)

    def where(k):
        g = bisect.bisect_right(starts, k) - 1
        _, lo, hi = groups[g]
        return f"box {lo}..{hi}, angular piece {k - starts[g]}: "

    total = _panel_tree(values, (0.0, 1.0), tolerance, None,
                        _PANEL_BUDGET * len(groups), where)
    for k, (_, lo, hi), target, a, b in zip(scored, groups, targets, starts, starts[1:]):
        value = float(np.add.reduce(total[a:b]))
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
    return _radial_integrals([(gamma, *_checked_box(gamma, lo, hi))], tol)[0]


def average_type1b(w, cube, tol: float = RADIAL_TOL):
    """Entrywise average of a radial weight over a cube, shaped (n, n),
    each entry within tol of itself relatively.

    Given a tuple of weights and a list of cubes instead, one array per
    weight, shaped (len(cube), n, n). Either way the integral of each
    distinct exponent and cube is a group of rows of one
    _radial_integrals tree, so the cube search averages W and W^-1 on its
    whole stack with one tree.
    """
    single = isinstance(w, SymbolicPowerMatrix)
    weights, cubes = ((w,), [cube]) if single else (w, cube)
    if any(v.separable or c.d != v.d for v in weights for c in cubes):
        raise ValueError("cube dimension does not match the radial weight")
    at: dict[tuple[float, int], int] = {}
    integrals, entries = [], []
    for v in weights:
        rows, cols, coeffs, exponents, _, (index,) = v.terms
        terms = list(zip(rows.tolist(), cols.tolist(), coeffs.tolist(),
                         exponents[index].tolist()))
        entries.append(terms)
        for q, c in enumerate(cubes):
            for i, j, _, e in terms:
                if (e, q) not in at:
                    try:
                        _checked_box(e, c.lower, c.upper)
                    except ValueError as exc:
                        raise NotIntegrableError(f"entry ({i}, {j}): {exc}") from exc
                    at[e, q] = len(integrals)
                    integrals.append((e, c.lower, c.upper))
    found = _radial_integrals(integrals, tol)
    out = []
    for v, terms in zip(weights, entries):
        avg = np.zeros((len(cubes), v.n, v.n), dtype=complex)
        for q, c in enumerate(cubes):
            volume = c.volume
            for i, j, a, e in terms:
                avg[q, i, j] = a * (found[at[e, q]] / volume)
        out.append(avg)
    return out[0][0] if single else out


CUBE_FAMILIES = ("cornered", "centered", "shifted")


def estimate_a2_cubes(weight, functional: str = "trace") -> SupSearchResult:
    """Maximum of the A2 functional over the cube families, a lower bound
    of its supremum over all cubes.

    The weight is homogeneous, W(tx) = T W(x) T with T = diag(|t|^(g_i/2)),
    so each family takes one value whatever the side: the unit cubes
    cornered at and centered on the origin, and shifted one and two sides
    out along the diagonal, run once each, as one stack
    (estimator._grid_scan), on the equilibrated weight and its inverse
    (estimator._closed_form_pair). A radial weight averages the pair on
    the stack through one average_type1b call, every integral on one
    panel tree, so a cube's value can differ from its value alone within
    RADIAL_TOL where another integral of the stack needs more panels; on
    the unit cubes every integral converges at the tree's first split,
    and none does. Values within 1e-12 relative tie; ties
    go to the cube whose nearest vertex is closest to the origin. A weight
    that is not A2 raises NotA2Error (A2Report.require_a2), and an A2
    exponent that rounds to its factor's bound SearchError.
    """
    func = _FUNCTIONALS.get(functional)
    if func is None:
        raise ValueError(f"unknown functional {functional!r}")
    if not isinstance(weight, SymbolicPowerMatrix):
        raise TypeError(f"cannot estimate for {type(weight).__name__}")
    type1.check_a2(weight).require_a2()
    weight, inverse = _closed_form_pair(weight)
    if weight.separable:
        table = _term_table((weight, inverse))

        def averages(stack: list[Cube]):
            lo = np.array([c.lower for c in stack]).T
            hi = np.array([c.upper for c in stack]).T
            return _averages(table, 2, weight.n, lo, hi)
    else:
        def averages(stack: list[Cube]):
            return average_type1b((weight, inverse), stack)

    cubes = [Cube((c,) * weight.d, 1.0) for c in (0.0, -0.5, 1.0, 2.0)]
    evaluate, _ = _grid_scan(lambda stack: func(*averages(stack)), cubes)
    return _maximize(cubes, evaluate, lambda scored, incumbent: None,
                     Cube.nearest_vertex_distance, functional)
