"""Cubes in R^d, d in {2, 3}, and the A2 search over them.

The weights are type1.SymbolicPowerMatrix objects with d = 2 or 3. Separable
ones (one exponent matrix per coordinate) average over a cube in closed
form, as a product of 1D averages (estimator.average_symbolic). Radial
ones (entries a_ij ||x||^(e_ij)) need cube quadrature, done here by
orthant splitting plus a tensor Gauss rule with geometric grading toward
the origin and an analytic bound on the innermost origin cell. This
module also builds both families from their spec data.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import type1
from .estimator import a2_functional_norm, a2_functional_trace, average_symbolic
from .quadrature import QuadratureBudgetError
from .report import VERDICT_A2
from .scalar_power import NotA2Error, NotIntegrableError
from .search import Interval, SupSearchResult, _maximize, golden_max
from .type1 import SymbolicPowerMatrix, _completed

__all__ = [
    "Cube",
    "build_type1a",
    "build_type1a_raw",
    "build_type1b",
    "build_type1b_raw",
    "average_type1b",
    "cube_integral_radial",
    "CubeSearchConfig",
    "default_cube_config",
    "coarse_cube_config",
    "estimate_a2_cubes",
]

_DIMS = (2, 3)
_SPHERE_MEASURE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
check_a2_type1a = check_a2_type1b = type1.check_a2
average_type1a = average_symbolic


def _tensor_gl(gamma: float, lo, hi) -> float:
    """Tensor product Gauss rule for ||x||^gamma over an origin-free box."""
    d = len(lo)
    r2, wts = 0.0, []
    for k, (a, b) in enumerate(zip(lo, hi)):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = (mid + half * _GL_NODES).reshape((-1,) + (1,) * (d - 1 - k))
        r2 = r2 + x * x  # broadcasts to the (8,) * d tensor grid
        wts.append(half * _GL_WEIGHTS)
    vals = r2 ** (0.5 * gamma)
    w = wts[0]
    for extra in wts[1:]:
        w = np.multiply.outer(w, extra)
    return float(np.sum(vals * w))


def _origin_cell_bound(gamma: float, hi, d: int) -> float:
    """Certified bound on the integral over the box [0, hi] at the origin.

    For gamma < 0 the box sits inside the orthant sector of the ball of
    radius ||hi||, whose integral is (surface / 2^d) R^(gamma+d)/(gamma+d).
    For gamma >= 0 the supremum bound volume * ||hi||^gamma is tighter.
    """
    radius = math.sqrt(sum(u * u for u in hi))
    if gamma < 0:
        return (_SPHERE_MEASURE[d] / 2 ** d) * radius ** (gamma + d) / (gamma + d)
    vol = math.prod(hi)
    return vol * radius ** gamma


def _split_signed(lo, hi):
    """Split a box at the coordinate hyperplanes, reflect into x >= 0."""
    pieces = [((), ())]
    for a, b in zip(lo, hi):
        grown = []
        for plo, phi in pieces:
            if a < 0.0 < b:
                grown.append((plo + (0.0,), phi + (-a,)))
                grown.append((plo + (0.0,), phi + (b,)))
            elif b <= 0.0:
                grown.append((plo + (-b,), phi + (-a,)))
            else:
                grown.append((plo + (a,), phi + (b,)))
        pieces = grown
    return [(plo, phi) for plo, phi in pieces
            if all(u > l for l, u in zip(plo, phi))]


def cube_integral_radial(gamma: float, lo, hi, tol: float = 1e-6,
                         budget: int = 50000,
                         scale: float | None = None) -> float:
    """Integral of ||x||^gamma over the box [lo, hi], origin allowed inside.

    Orthant splitting reduces to boxes in the closed positive orthant; the
    box whose corner is the origin is graded geometrically (split ratio
    1/2) with the analytic cell bound closing the recursion. Everything
    else uses the tensor Gauss rule with worst-first split-and-compare
    refinement. Raises when the cell budget (evaluated Gauss cells) runs
    out before the error target tol * (scale + |coarse value|) is met.
    scale defaults to 1, an absolute floor for tiny integrals; passing 0
    requests purely relative control, safe here because the integrand
    never changes sign.
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

    used = 0
    counter = 0
    heap: list = []
    err_sum = 0.0
    inf_count = 0
    val_sum = 0.0

    def push(kind: str, plo, phi, val: float, err: float):
        nonlocal counter, err_sum, inf_count, val_sum
        heapq.heappush(heap, (-err, counter, kind, plo, phi, val))
        counter += 1
        val_sum += val
        if math.isinf(err):
            inf_count += 1
        else:
            err_sum += err

    def pop():
        nonlocal err_sum, inf_count, val_sum
        neg_err, _, kind, plo, phi, val = heapq.heappop(heap)
        err = -neg_err
        val_sum -= val
        if math.isinf(err):
            inf_count -= 1
        else:
            err_sum -= err
        return kind, plo, phi, val

    def gl_value(plo, phi) -> float:
        nonlocal used
        if used >= budget:
            raise QuadratureBudgetError(
                f"cube quadrature budget of {budget} cells exhausted")
        used += 1
        return _tensor_gl(gamma, plo, phi)

    for plo, phi in _split_signed(lo, hi):
        if all(v == 0.0 for v in plo):
            bound = _origin_cell_bound(gamma, phi, d)
            push("origin", plo, phi, 0.5 * bound, 0.5 * bound)
        else:
            push("gl", plo, phi, gl_value(plo, phi), math.inf)

    floor = 1.0 if scale is None else abs(scale)
    tol_abs = tol * (floor + abs(val_sum))
    if tol_abs == 0.0:
        tol_abs = 1e-290

    def children_boxes(plo, phi):
        mids = tuple(0.5 * (a + b) for a, b in zip(plo, phi))
        boxes = [((), ())]
        for a, m, b in zip(plo, mids, phi):
            boxes = [(clo + (a,), chi + (m,)) for clo, chi in boxes] + \
                    [(clo + (m,), chi + (b,)) for clo, chi in boxes]
        return boxes

    while inf_count > 0 or err_sum > tol_abs:
        kind, plo, phi, val = pop()
        if kind == "origin":
            for clo, chi in children_boxes(plo, phi):
                if all(v == 0.0 for v in clo):
                    bound = _origin_cell_bound(gamma, chi, d)
                    push("origin", clo, chi, 0.5 * bound, 0.5 * bound)
                else:
                    push("gl", clo, chi, gl_value(clo, chi), math.inf)
        else:
            kids = [(clo, chi, gl_value(clo, chi))
                    for clo, chi in children_boxes(plo, phi)]
            spread = abs(sum(v for _, _, v in kids) - val)
            share = spread / len(kids)
            for clo, chi, v in kids:
                push("gl", clo, chi, v, share)
    return val_sum


def average_type1b(w: SymbolicPowerMatrix, cube: Cube, tol: float = 1e-6,
                   budget: int = 50000) -> np.ndarray:
    """Entrywise cube average of a radial weight by radial-power quadrature,
    one integral per distinct exponent."""
    if w.separable or cube.d != w.d:
        raise ValueError("cube dimension does not match the radial weight")
    lo, hi = cube.lower, cube.upper
    cache: dict[float, float] = {}
    out = np.zeros((w.n, w.n), dtype=complex)
    for i, j, a, (e,) in w.terms:
        if e not in cache:
            try:
                cache[e] = (cube_integral_radial(e, lo, hi, tol,
                                                 budget, scale=0.0)
                            / cube.volume)
            except ValueError as exc:
                raise NotIntegrableError(
                    f"entry ({i}, {j}): {exc}") from exc
        out[i, j] = a * cache[e]
    out = 0.5 * (out + out.conj().T)
    return out.real if np.all(out.imag == 0) else out


_FAMILIES = ("cornered", "centered", "shifted")


@dataclass(frozen=True)
class CubeSearchConfig:
    """Candidate cubes: families x log-spaced side lengths."""

    sides: tuple[float, ...]
    families: tuple[str, ...] = _FAMILIES
    shifts: tuple[int, ...] = (1, 2)
    refine_rounds: int = 8
    quadrature_tol: float = 1e-6
    budget: int = 50000

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "shifts", tuple(int(k) for k in self.shifts))
        if not self.sides or any(s <= 0 or not math.isfinite(s)
                                 for s in self.sides):
            raise ValueError("side grid must be positive and finite")
        if any(f not in _FAMILIES for f in self.families) or not self.families:
            raise ValueError(f"families must come from {_FAMILIES}")
        if any(k < 1 for k in self.shifts):
            raise ValueError("shift multiples must be >= 1")
        if self.refine_rounds < 0 or self.quadrature_tol <= 0 or self.budget < 1:
            raise ValueError("invalid refinement or quadrature settings")


def default_cube_config() -> CubeSearchConfig:
    return CubeSearchConfig(sides=tuple(np.logspace(-3.0, 3.0, 13)))


def coarse_cube_config() -> CubeSearchConfig:
    """Smaller grid for quadrature-bound radial weights."""
    return CubeSearchConfig(sides=tuple(np.logspace(-2.0, 2.0, 9)),
                            refine_rounds=6)


def _family_cube(family: str, shift: int, d: int, side: float) -> Cube:
    if family == "cornered":
        return Cube((0.0,) * d, side)
    if family == "centered":
        return Cube((-0.5 * side,) * d, side)
    return Cube((shift * side,) * d, side)


def estimate_a2_cubes(weight, functional: str = "trace",
                      config: CubeSearchConfig | None = None) -> SupSearchResult:
    """Searched lower bound of the A2 functional supremum over cubes.

    Same search as for intervals: grid scan over the family grid, golden
    refinement in log side length through the incumbent, and the canonical
    tie-break preferring cubes whose nearest vertex is closest to the
    origin in units of the side.
    """
    cfg = config if config is not None else default_cube_config()
    func = {"trace": a2_functional_trace, "norm": a2_functional_norm}.get(functional)
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
        def averages(cube: Cube):
            return average_type1a(weight, cube), average_type1a(inverse, cube)
    else:
        def averages(cube: Cube):
            return (average_type1b(weight, cube, cfg.quadrature_tol, cfg.budget),
                    average_type1b(inverse, cube, cfg.quadrature_tol, cfg.budget))

    d = weight.d

    def evaluate(cube: Cube) -> float:
        return func(*averages(cube))

    labels: list[tuple[str, int]] = []
    grid: list[Cube] = []
    for family in cfg.families:
        shifts = cfg.shifts if family == "shifted" else (0,)
        for shift in shifts:
            for side in cfg.sides:
                labels.append((family, shift))
                grid.append(_family_cube(family, shift, d, side))

    def refine(scored, incumbent) -> None:
        if cfg.refine_rounds == 0:
            return
        idx, best_cube = incumbent()
        family, shift = labels[idx]
        span = math.log(4.0)
        s0 = math.log(best_cube.side)
        golden_max(lambda logs: scored(_family_cube(family, shift, d,
                                                    math.exp(logs))),
                   s0 - span, s0 + span, cfg.refine_rounds)

    return _maximize(grid, evaluate, refine,
                     lambda c: c.nearest_vertex_distance() / c.side, functional)
